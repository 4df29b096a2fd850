(* Items rebuilt from the libraries' public layer calls, for the traced
   run. Library calls that carry the program's own spans are made
   directly (Mutate.validate, Replay.record, Replay.replay and the
   checkpoint codec): the traced run splits them with those spans. Bug.run_design has no spans inside, so
   [run_design] mirrors it call for call with every layer call wrapped
   by [Layer]; the campaign jobs and Fuzz.run_one's classification are
   rebuilt on top of it. The traced run checks that a composed item's
   output digest equals the real item's, so a mirror that drifts from
   its original shows up as a failed item.

   Two defaults are copied, not read: Campaign.differential_job and
   Fuzz.run_one both default their primary kernel to Event_driven. A
   change of either default must be made here too. *)

module Ast = Fpga_hdl.Ast
module Bug = Fpga_testbed.Bug
module Campaign = Fpga_campaign.Campaign
module Checkpoint = Fpga_sim.Checkpoint
module Elaborate = Fpga_sim.Elaborate
module Fuzz = Fpga_fuzz.Fuzz
module Lowered = Fpga_sim.Lowered
module Mutate = Fpga_fuzz.Mutate
module Replay = Fpga_testbed.Replay
module Simulator = Fpga_sim.Simulator
module Taxonomy = Fpga_study.Taxonomy
module Telemetry = Fpga_telemetry.Telemetry
module Trace = Telemetry.Trace
module Vcd = Fpga_sim.Vcd
module L = Layer

let default_kernel = Simulator.Event_driven

let design_of (bug : Bug.t) ~buggy =
  L.call L.parser (fun () -> Bug.design_of bug ~buggy)

let count_lowered sim =
  match Simulator.lowered_run_stats sim with
  | None -> ()
  | Some rs ->
      L.add L.q_closures_run rs.Lowered.rs_closures_run;
      L.add L.q_closures_skipped rs.Lowered.rs_closures_skipped;
      L.add L.q_commit_imm rs.Lowered.rs_commit_imm;
      L.add L.q_commit_boxed rs.Lowered.rs_commit_boxed

let create ?kernel flat =
  L.call L.sim_create (fun () ->
      match kernel with
      | Some kernel -> Simulator.create ~kernel flat
      | None -> Simulator.create flat)

(* Bug.run_design, without the checkpoint options: the composed items
   checkpoint through Replay *)
let run_design ?(vcd = false) ?(vcd_from = 0) ?kernel (bug : Bug.t)
    (design : Ast.design) : Bug.report =
  L.add L.q_sims 1;
  let max_cycles = bug.Bug.max_cycles in
  let flat =
    L.call L.elaborate (fun () -> Elaborate.elaborate design ~top:bug.Bug.top)
  in
  let sim = create ?kernel flat in
  let rows = ref [] and ext = ref false and satisfied = ref false in
  let dump = if vcd then Some (L.call L.vcd (fun () -> Vcd.create flat)) else None in
  let i = ref 0 in
  Trace.with_span ~cat:"layer" "simulator.step" (fun () ->
      while !i < max_cycles && (not (Simulator.finished sim)) && not !satisfied do
        let c = !i in
        L.tick L.harness (fun () ->
            List.iter
              (fun (n, v) -> Simulator.set_input sim n v)
              (bug.Bug.stimulus c));
        L.tick L.sim_step (fun () -> Simulator.step sim);
        (match dump with
        | Some d when c >= vcd_from -> L.tick L.vcd (fun () -> Vcd.sample d sim)
        | _ -> ());
        L.tick L.harness (fun () ->
            (match bug.Bug.sample sim with
            | Some row -> rows := (c, row) :: !rows
            | None -> ());
            (match bug.Bug.ext_monitor with
            | Some f when f sim -> ext := true
            | _ -> ());
            match bug.Bug.done_when with
            | Some cond when cond sim -> satisfied := true
            | _ -> ());
        incr i
      done);
  let vcd = Option.map (fun d -> L.call L.vcd (fun () -> Vcd.contents d)) dump in
  Option.iter (fun s -> L.add L.q_vcd_bytes (String.length s)) vcd;
  count_lowered sim;
  {
    Bug.stuck =
      (match bug.Bug.done_when with Some _ -> not !satisfied | None -> false);
    finished = Simulator.finished sim;
    rows = List.rev !rows;
    ext_error = !ext;
    log = Simulator.log sim;
    cycles = !i;
    vcd;
  }

(* ------------------------------------------------------------------ *)
(* Campaign jobs                                                        *)
(* ------------------------------------------------------------------ *)

(* Campaign.repro_job *)
let repro (bug : Bug.t) : Campaign.verdict =
  let buggy = run_design ~vcd:true bug (design_of bug ~buggy:true) in
  let fixed = run_design bug (design_of bug ~buggy:false) in
  {
    Campaign.v_bug = bug.Bug.id;
    v_kind = "repro";
    v_cycles = buggy.Bug.cycles + fixed.Bug.cycles;
    v_ok = Bug.reproduces_of ~bug ~buggy ~fixed;
    v_detail =
      Printf.sprintf "%d rows buggy, %d rows fixed" (List.length buggy.Bug.rows)
        (List.length fixed.Bug.rows);
    v_symptoms = List.map Taxonomy.symptom_name (Bug.symptoms_of ~buggy ~fixed);
    v_log = buggy.Bug.log;
    v_vcd = buggy.Bug.vcd;
  }

(* Campaign.differential_job, at its default primary kernel *)
let differential (bug : Bug.t) : Campaign.verdict =
  let kernel = default_kernel in
  let design = design_of bug ~buggy:true in
  let pr = run_design ~kernel bug design in
  let bf = run_design ~kernel:Simulator.Brute_force bug design in
  let agree =
    pr.Bug.log = bf.Bug.log && pr.Bug.rows = bf.Bug.rows
    && pr.Bug.stuck = bf.Bug.stuck
    && pr.Bug.finished = bf.Bug.finished
    && pr.Bug.cycles = bf.Bug.cycles
  in
  {
    Campaign.v_bug = bug.Bug.id;
    v_kind = "differential";
    v_cycles = pr.Bug.cycles + bf.Bug.cycles;
    v_ok = agree;
    v_detail =
      (if agree then "kernels agree"
       else Simulator.kernel_name kernel ^ " and brute-force kernels diverge");
    v_symptoms = [];
    v_log = pr.Bug.log;
    v_vcd = None;
  }

(* Campaign.replay_job *)
let replay ~every (bug : Bug.t) : Campaign.verdict =
  let kind = Printf.sprintf "replay:%d" every in
  let rc = L.call L.record (fun () -> Replay.record ~every bug) in
  let recorded = rc.Replay.rec_report in
  match rc.Replay.rec_checkpoints with
  | [] ->
      {
        Campaign.v_bug = bug.Bug.id;
        v_kind = kind;
        v_cycles = recorded.Bug.cycles;
        v_ok = true;
        v_detail =
          Printf.sprintf "no checkpoints: run ended after %d cycles (< every=%d)"
            recorded.Bug.cycles every;
        v_symptoms = [];
        v_log = recorded.Bug.log;
        v_vcd = None;
      }
  | cps ->
      let mid = List.nth cps ((List.length cps - 1) / 2) in
      let text = L.call L.ck_encode (fun () -> Checkpoint.to_string mid) in
      L.add L.q_ck_bytes (String.length text);
      let mid = L.call L.ck_decode (fun () -> Checkpoint.of_string text) in
      let at = mid.Checkpoint.ck_cycle in
      let straight = run_design ~vcd:true ~vcd_from:at bug (design_of bug ~buggy:true) in
      let replayed = L.call L.replay (fun () -> Replay.replay ~from:mid bug) in
      Option.iter (fun s -> L.add L.q_vcd_bytes (String.length s)) replayed.Bug.vcd;
      let agree =
        straight.Bug.vcd = replayed.Bug.vcd
        && straight.Bug.rows = replayed.Bug.rows
        && straight.Bug.log = replayed.Bug.log
        && straight.Bug.stuck = replayed.Bug.stuck
        && straight.Bug.finished = replayed.Bug.finished
        && straight.Bug.cycles = replayed.Bug.cycles
      in
      {
        Campaign.v_bug = bug.Bug.id;
        v_kind = kind;
        v_cycles = recorded.Bug.cycles + straight.Bug.cycles + (replayed.Bug.cycles - at);
        v_ok = agree;
        v_detail =
          (if agree then
             Printf.sprintf
               "replay from cycle %d identical to straight run (%d-cycle window)"
               at (replayed.Bug.cycles - at)
           else Printf.sprintf "replay from cycle %d DIVERGES" at);
        v_symptoms = [];
        v_log = replayed.Bug.log;
        v_vcd = replayed.Bug.vcd;
      }

(* ------------------------------------------------------------------ *)
(* Fuzz                                                                 *)
(* ------------------------------------------------------------------ *)

(* Fuzz's differential runs: a crash is an observation *)
let safe f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let run_kernel ~kernel bug d = safe (fun () -> run_design ~kernel bug d)

let run_instrumented ~kernel bug d =
  safe (fun () ->
      let was = Telemetry.enabled () in
      if not was then Telemetry.enable ();
      Fun.protect
        ~finally:(fun () -> if not was then Telemetry.disable ())
        (fun () -> run_design ~kernel bug d))

let diff_reports (a : Bug.report) (b : Bug.report) : string option =
  if a.Bug.rows <> b.Bug.rows then
    Some
      (Printf.sprintf "output rows differ (%d vs %d rows)"
         (List.length a.Bug.rows) (List.length b.Bug.rows))
  else if a.Bug.log <> b.Bug.log then Some "$display logs differ"
  else if a.Bug.stuck <> b.Bug.stuck then
    Some (Printf.sprintf "stuck flag differs (%b vs %b)" a.Bug.stuck b.Bug.stuck)
  else if a.Bug.finished <> b.Bug.finished then
    Some
      (Printf.sprintf "finished flag differs (%b vs %b)" a.Bug.finished
         b.Bug.finished)
  else if a.Bug.ext_error <> b.Bug.ext_error then
    Some
      (Printf.sprintf "external-monitor flag differs (%b vs %b)" a.Bug.ext_error
         b.Bug.ext_error)
  else if a.Bug.cycles <> b.Bug.cycles then
    Some (Printf.sprintf "cycle counts differ (%d vs %d)" a.Bug.cycles b.Bug.cycles)
  else None

let diff_runs a b =
  match (a, b) with
  | Ok a, Ok b -> diff_reports a b
  | Error e, Error f ->
      if String.equal e f then None
      else Some (Printf.sprintf "crashes differ (%s vs %s)" e f)
  | Ok _, Error e -> Some ("second run crashed: " ^ e)
  | Error e, Ok _ -> Some ("first run crashed: " ^ e)

let mismatch_of ~kernel bug d =
  let pr = run_kernel ~kernel bug d in
  let bf = run_kernel ~kernel:Simulator.Brute_force bug d in
  match diff_runs pr bf with
  | Some why -> Some (Simulator.kernel_name kernel ^ " vs brute-force: " ^ why)
  | None -> (
      match diff_runs pr (run_instrumented ~kernel bug d) with
      | Some why -> Some ("telemetry-off vs telemetry-on: " ^ why)
      | None -> None)

(* Fuzz.run_one at its default primary kernel, up to classification: a
   kernel mismatch is a failed item, so its minimization is not
   mirrored. *)
let fuzz_one ~seed ~index =
  let kernel = default_kernel in
  let bug, mutant, muts =
    L.call L.generate (fun () -> Fuzz.generate ~seed ~index)
  in
  let base = design_of bug ~buggy:false in
  let outcome =
    match
      L.call L.validate (fun () ->
          Mutate.validate ~top:bug.Bug.top ~baseline:base mutant)
    with
    | Error reason -> Fuzz.Invalid reason
    | Ok valid -> (
        L.add L.q_valid 1;
        match mismatch_of ~kernel bug valid with
        | Some why -> Fuzz.Kernel_mismatch why
        | None -> (
            let mutant_run = run_kernel ~kernel bug valid in
            let base_run = run_kernel ~kernel bug base in
            match diff_runs mutant_run base_run with
            | None -> Fuzz.Equivalent
            | Some why ->
                let symptoms =
                  match (mutant_run, base_run) with
                  | Ok m, Ok b ->
                      Bug.symptoms_of ~buggy:m ~fixed:b
                      |> List.map Taxonomy.symptom_name
                  | Error _, _ | _, Error _ -> [ "crash" ]
                in
                Fuzz.Symptom_divergent (if symptoms = [] then [ why ] else symptoms)))
  in
  (bug, muts, outcome)
