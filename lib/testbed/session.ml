(* One debugging session: instrument a bug's design with the chosen
   tools, run it once through the bug's harness, and decode every
   tool's verdict from that run. See session.mli. *)

module Ast = Fpga_hdl.Ast
module Fsm_monitor = Fpga_debug.Fsm_monitor
module Stat_monitor = Fpga_debug.Stat_monitor
module Dep_monitor = Fpga_debug.Dep_monitor
module Losscheck = Fpga_debug.Losscheck

type fsm = { extra : string list; exclude : string list }
type stat = { events : (string * string) list; log_changes : bool }
type dep = { target : string; cycles : int; data_only : bool; slices : bool }

type tools = {
  fsm : fsm option;
  stat : stat option;
  dep : dep option;
  loss : Losscheck.spec option;
}

let none = { fsm = None; stat = None; dep = None; loss = None }

(* Use case 1 of section 6.2: all three monitors, Stat and Dep where the
   bug names events and a target. *)
let recipe (bug : Bug.t) =
  {
    none with
    fsm = Some { extra = []; exclude = [] };
    stat =
      (if bug.Bug.stat_events = [] then None
       else Some { events = bug.Bug.stat_events; log_changes = true });
    dep =
      Option.map
        (fun target -> { target; cycles = 8; data_only = false; slices = false })
        bug.Bug.dep_target;
  }

let top (bug : Bug.t) design =
  match Ast.find_module design bug.Bug.top with
  | Some m -> m
  | None -> Fpga_debug.Instrument.err "no module %s" bug.Bug.top

type instrumented = {
  baseline : Ast.module_def;
  with_monitors : Ast.module_def;
  design : Ast.design;
  fsm_plan : Fsm_monitor.t option;
  stat_plan : Stat_monitor.t option;
  dep_plan : Dep_monitor.plan option;
}

(* Each chosen tool plans on the module the previous one produced. *)
let instrument tools (bug : Bug.t) design =
  let baseline = top bug design in
  let fsm_plan, m =
    match tools.fsm with
    | None -> (None, baseline)
    | Some { extra; exclude } ->
        let p = Fsm_monitor.plan ~extra ~exclude baseline in
        (Some p, Fsm_monitor.instrument p baseline)
  in
  let stat_plan, m =
    match tools.stat with
    | None -> (None, m)
    | Some { events; log_changes } ->
        let event (event_name, signal) =
          { Stat_monitor.event_name; trigger = Ast.Ident signal }
        in
        let p = Stat_monitor.plan m (List.map event events) in
        (Some p, Stat_monitor.instrument ~log_changes p m)
  in
  let dep_plan, with_monitors =
    match tools.dep with
    | None -> (None, m)
    | Some { target; cycles; data_only; slices } ->
        let p =
          Dep_monitor.analyze ~design ~data_only ~slice_precise:slices ~target
            ~cycles m
        in
        (Some p, Dep_monitor.instrument p m)
  in
  (* an untouched design stays the shared value that
     [Bug.with_simulator] keeps idle simulators for *)
  let design =
    if with_monitors == baseline then design
    else Ast.replace_module design baseline with_monitors
  in
  { baseline; with_monitors; design; fsm_plan; stat_plan; dep_plan }

type verdicts = {
  session : instrumented;
  report : Bug.report;
  transitions : Fsm_monitor.transition list;
  final_states : (string * string) list;
  counts : (string * int) list;
  updates : Dep_monitor.update list;
  loss : Losscheck.result option;
}

let run tools (bug : Bug.t) design =
  let session = instrument tools bug design in
  let report, counts =
    Bug.with_simulator bug session.design @@ fun sim ->
    let h = Bug.resume bug sim None in
    Bug.drive bug sim h ~max_cycles:bug.Bug.max_cycles (fun _ -> false);
    ( Bug.report_of bug sim h,
      match session.stat_plan with
      | Some p -> Stat_monitor.counts p sim
      | None -> [] )
  in
  let decode plan f = match plan with Some p -> f p report.Bug.log | None -> [] in
  {
    session;
    report;
    transitions = decode session.fsm_plan Fsm_monitor.transitions;
    final_states = decode session.fsm_plan Fsm_monitor.final_states;
    counts;
    updates = decode session.dep_plan Dep_monitor.updates;
    loss =
      Option.map
        (fun spec ->
          Losscheck.localize ~ground_truth:bug.Bug.ground_truth
            ~max_cycles:bug.Bug.max_cycles ~top:bug.Bug.top ~spec
            ~stimulus:bug.Bug.stimulus design)
        tools.loss;
  }
