(* The reproducible-bug testbed (section 6.1, Table 2).

   Each bug carries the buggy Verilog source, the fixed source (the
   upstream patch reduced to our subset), a stimulus that triggers the
   symptom push-button, observation hooks, and metadata connecting it to
   the study taxonomy and to the tools that help localize it.

   Reproduction is differential: the same stimulus drives the buggy and
   the fixed design; symptoms are derived from how the two runs diverge
   (missing output rows = data loss, different rows = incorrect output,
   unmet completion = stuck, tripped shell monitor = external error). *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Simulator = Fpga_sim.Simulator
module Testbench = Fpga_sim.Testbench
module Taxonomy = Fpga_study.Taxonomy
module Telemetry = Fpga_telemetry.Telemetry

type tool = SC | FSM | Stat | Dep | LC

let tool_name = function
  | SC -> "SignalCat"
  | FSM -> "FSM Monitor"
  | Stat -> "Statistics Monitor"
  | Dep -> "Dependency Monitor"
  | LC -> "LossCheck"

type t = {
  id : string;  (* Table 2 identifier, e.g. "D1" *)
  subclass : Taxonomy.subclass;
  application : string;
  platform : Fpga_resources.Platforms.kind;
  symptoms : Taxonomy.symptom list;  (* expected, from Table 2 *)
  helpful_tools : tool list;
  description : string;
  top : string;
  buggy_src : string;
  fixed_src : string;
  stimulus : Testbench.stimulus;
  max_cycles : int;
  (* a valid output row of the design, when one is present this cycle *)
  sample : Simulator.t -> (string * int) list option;
  (* completion condition; unmet = the "stuck" symptom *)
  done_when : (Simulator.t -> bool) option;
  (* FPGA-shell-style external monitor (protocol checker, address range
     checker); tripping it is the "Ext" symptom *)
  ext_monitor : (Simulator.t -> bool) option;
  (* LossCheck inputs, for the data-loss bugs *)
  loss_spec : Fpga_debug.Losscheck.spec option;
  (* the register LossCheck is expected to localize (the loss root) *)
  loss_root : string option;
  (* passing stimuli used as ground truth for false-positive filtering *)
  ground_truth : (Testbench.stimulus * int) list;
  (* manually identified FSM state variables, for the section 4.2
     detection-accuracy experiment *)
  manual_fsms : string list;
  (* events for Statistics Monitor debugging recipes *)
  stat_events : (string * string) list;  (* event name * 1-bit signal *)
  (* target for Dependency Monitor recipes *)
  dep_target : string option;
  target_mhz : int;
}

type report = {
  stuck : bool;
  finished : bool;
  rows : (int * (string * int) list) list;
  ext_error : bool;
  log : (int * string) list;
  cycles : int;
  vcd : string option;
}

(* Every campaign job, replay, bisection and fuzz base wants the same
   few designs, so each source is parsed once per process and the
   immutable AST is shared by every domain. The key is the physical
   source string: sources are module-level constants, so the memo is
   bounded by the registry, and a [{ bug with ... }] copy shares its
   parent's entry. Lookups are lock-free. A miss parses outside any
   lock and publishes with [compare_and_set]; a domain that loses the
   race returns the winner's design, so every caller sees one physical
   AST. A source that fails to parse is not cached. *)
let parsed : (string * Ast.design) list Atomic.t = Atomic.make []

let design_of bug ~buggy =
  let src = if buggy then bug.buggy_src else bug.fixed_src in
  match List.assq_opt src (Atomic.get parsed) with
  | Some design -> design
  | None ->
      let design = Fpga_hdl.Parser.parse_design src in
      let rec publish () =
        let seen = Atomic.get parsed in
        match List.assq_opt src seen with
        | Some winner -> winner
        | None ->
            if Atomic.compare_and_set parsed seen ((src, design) :: seen) then design
            else publish ()
      in
      publish ()

(* ------------------------------------------------------------------ *)
(* Simulator reuse                                                      *)
(* ------------------------------------------------------------------ *)

(* A campaign builds the same few designs over and over: repro runs
   buggy and fixed, the differential runs two kernels, replay records
   and replays, bisection runs the reference and then scans. So the
   simulators of the designs [design_of] shares go back to a
   process-wide free list after a run, and the next run of the same
   design takes one and [Simulator.reset]s it instead of elaborating
   and compiling again.

   - The key is the physical design, the top, the kernel [create]
     builds and whether the instance counts toggles. Only designs in
     [parsed] get a slot, so the registry bounds the list; mutants,
     instrumented designs and callers' own designs build afresh.
   - A slot holds at most one idle instance. A key's first run only
     opens its slot: a design run once (fuzz's memoised base) keeps
     nothing. A run that finds its slot already refilled drops its
     instance.
   - Every word an idle instance keeps costs several words of peak
     major heap under the GC's pacing. So a miss builds on the flat of
     an idle instance of the same design and top when there is one
     (the kernels and toggle settings of one design share a flat), and
     a lowered-dirty instance keeps no brute-force plan.
   - Instances leave and enter slots under [slots_lock], which orders
     everything the last domain to run one wrote before everything the
     next one reads. The flat it was built from is never written after
     elaboration.
   - An instance goes back only when the run returns normally. One
     whose run raised, in the simulator or in a harness callback, is
     dropped: nothing is assumed about the state it was left in.
   - A hit opens the same "compile" span that [Simulator.create] opens
     on a miss and records nothing else, so traces, counters and
     results are the same whether the list was cold or warm. *)
type slot = {
  s_design : Ast.design;
  s_top : string;
  s_kernel : Simulator.kernel;
  s_stats : bool;
  mutable s_idle : Simulator.t option;
}

let slots_lock = Mutex.create ()
let slots : slot list ref = ref []

let shared design = List.exists (fun (_, d) -> d == design) (Atomic.get parsed)

let with_simulator ?kernel (bug : t) (design : Ast.design) f =
  (* the kernel [Simulator.create ?kernel] builds *)
  let kernel =
    match Option.value kernel ~default:Simulator.default_kernel with
    | Simulator.Event_driven -> Simulator.Lowered_dirty
    | k -> k
  in
  let build () =
    Simulator.create ~kernel (Fpga_sim.Elaborate.elaborate design ~top:bug.top)
  in
  if not (shared design) then f (build ())
  else
    let stats = Simulator.profiling () in
    let same_design s = s.s_design == design && String.equal s.s_top bug.top in
    let same s = same_design s && s.s_kernel = kernel && s.s_stats = stats in
    let taken =
      Mutex.protect slots_lock (fun () ->
          match List.find_opt same !slots with
          | Some ({ s_idle = Some sim; _ } as s) ->
              s.s_idle <- None;
              Ok sim
          | _ ->
              Error
                (List.find_map
                   (fun s ->
                     if same_design s then Option.map Simulator.flat s.s_idle
                     else None)
                   !slots))
    in
    let sim =
      match taken with
      | Ok sim ->
          Telemetry.span "compile" (fun () -> Simulator.reset sim);
          sim
      | Error (Some flat) -> Simulator.create ~kernel flat
      | Error None -> build ()
    in
    let result = f sim in
    Mutex.protect slots_lock (fun () ->
        match List.find_opt same !slots with
        | Some ({ s_idle = None; _ } as s) -> s.s_idle <- Some sim
        | Some _ -> ()
        | None ->
            slots :=
              { s_design = design; s_top = bug.top; s_kernel = kernel;
                s_stats = stats; s_idle = None }
              :: !slots);
    result

(* ------------------------------------------------------------------ *)
(* Harness state in checkpoint metadata                                 *)
(* ------------------------------------------------------------------ *)

(* A checkpoint captures the simulator; the testbed harness around it
   (observed output rows, the external-monitor flag, the completion
   flag) lives in the checkpoint's metadata section so a replayed run
   reports exactly what an uninterrupted run would. Row names are
   Verilog identifiers and values are ints, so a flat
   "cycle:name=value,...;..." encoding round-trips losslessly. *)

let encode_rows (rows : (int * (string * int) list) list) : string =
  String.concat ";"
    (List.map
       (fun (c, row) ->
         Printf.sprintf "%d:%s" c
           (String.concat ","
              (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) row)))
       rows)

let malformed () =
  raise
    (Fpga_sim.Checkpoint.Checkpoint_error
       "checkpoint carries malformed harness metadata")

let decode_int s = match int_of_string_opt s with Some n -> n | None -> malformed ()

let decode_rows (s : string) : (int * (string * int) list) list =
  if s = "" then []
  else
    String.split_on_char ';' s
    |> List.map (fun entry ->
           match String.split_on_char ':' entry with
           | [ c; row ] ->
               ( decode_int c,
                 if row = "" then []
                 else
                   String.split_on_char ',' row
                   |> List.map (fun kv ->
                          match String.split_on_char '=' kv with
                          | [ k; v ] -> (k, decode_int v)
                          | _ -> malformed ()) )
           | _ -> malformed ())

type harness = {
  h_rows : (int * (string * int) list) list;  (* oldest first *)
  h_ext : bool;
  h_satisfied : bool;
}

let meta_of_harness h =
  [
    ("harness.rows", encode_rows h.h_rows);
    ("harness.ext", if h.h_ext then "1" else "0");
    ("harness.satisfied", if h.h_satisfied then "1" else "0");
  ]

let harness_of_meta meta =
  let get k = List.assoc_opt k meta in
  {
    h_rows = (match get "harness.rows" with Some s -> decode_rows s | None -> []);
    h_ext = get "harness.ext" = Some "1";
    h_satisfied = get "harness.satisfied" = Some "1";
  }

(* A run's harness observations so far, rows newest first: the state
   [run_design] and [Replay.bisect]'s fine phase carry alongside the
   simulator. *)
type progress = {
  mutable p_rows : (int * (string * int) list) list;
  mutable p_ext : bool;
  mutable p_satisfied : bool;
}

(* Resuming from a checkpoint restores both halves of the state: the
   simulator itself and the harness observations accumulated up to the
   capture cycle, so the loop continues exactly where the original run
   was. Returns the observations and the cycle to continue from. *)
let resume sim (from_checkpoint : Fpga_sim.Checkpoint.t option) =
  match from_checkpoint with
  | None -> ({ p_rows = []; p_ext = false; p_satisfied = false }, 0)
  | Some ck ->
      Simulator.restore_checkpoint sim ck;
      let h = harness_of_meta ck.Fpga_sim.Checkpoint.ck_meta in
      ( { p_rows = List.rev h.h_rows; p_ext = h.h_ext;
          p_satisfied = h.h_satisfied },
        ck.Fpga_sim.Checkpoint.ck_cycle )

(* The harness's view of [cycle], which the simulator has just
   completed: the output row, the external monitor, the completion
   condition. *)
let observe (bug : t) sim (p : progress) cycle =
  (match bug.sample sim with
  | Some row -> p.p_rows <- (cycle, row) :: p.p_rows
  | None -> ());
  (match bug.ext_monitor with
  | Some f when f sim -> p.p_ext <- true
  | _ -> ());
  match bug.done_when with
  | Some cond when cond sim -> p.p_satisfied <- true
  | _ -> ()

let run_design ?(vcd = false) ?(vcd_from = 0) ?kernel ?max_cycles
    ?checkpoint_every ?on_checkpoint ?from_checkpoint (bug : t)
    (design : Ast.design) : report =
  let max_cycles = Option.value max_cycles ~default:bug.max_cycles in
  with_simulator ?kernel bug design @@ fun sim ->
  let p, start = resume sim from_checkpoint in
  let dump =
    if vcd then Some (Fpga_sim.Vcd.create (Simulator.flat sim)) else None
  in
  let capture_checkpoint () =
    match on_checkpoint with
    | None -> ()
    | Some f ->
        f
          (Simulator.save_checkpoint ~tag:bug.id
             ~meta:
               (meta_of_harness
                  { h_rows = List.rev p.p_rows; h_ext = p.p_ext;
                    h_satisfied = p.p_satisfied })
             sim)
  in
  let i = ref start in
  while !i < max_cycles && (not (Simulator.finished sim)) && not p.p_satisfied do
    List.iter (fun (n, v) -> Simulator.set_input sim n v) (bug.stimulus !i);
    Simulator.step sim;
    (match dump with
    | Some d when !i >= vcd_from -> Fpga_sim.Vcd.sample d sim
    | _ -> ());
    observe bug sim p !i;
    (match checkpoint_every with
    | Some every when every > 0 && (!i + 1) mod every = 0 ->
        capture_checkpoint ()
    | _ -> ());
    incr i
  done;
  {
    stuck = (match bug.done_when with Some _ -> not p.p_satisfied | None -> false);
    finished = Simulator.finished sim;
    rows = List.rev p.p_rows;
    ext_error = p.p_ext;
    log = Simulator.log sim;
    cycles = !i;
    vcd = Option.map Fpga_sim.Vcd.contents dump;
  }

let run (bug : t) ~buggy : report = run_design bug (design_of bug ~buggy)

(* The first way two runs of one design disagree, if any. *)
let diff_reports (a : report) (b : report) : string option =
  if a.rows <> b.rows then
    Some
      (Printf.sprintf "output rows differ (%d vs %d rows)" (List.length a.rows)
         (List.length b.rows))
  else if a.log <> b.log then Some "$display logs differ"
  else if a.stuck <> b.stuck then
    Some (Printf.sprintf "stuck flag differs (%b vs %b)" a.stuck b.stuck)
  else if a.finished <> b.finished then
    Some (Printf.sprintf "finished flag differs (%b vs %b)" a.finished b.finished)
  else if a.ext_error <> b.ext_error then
    Some
      (Printf.sprintf "external-monitor flag differs (%b vs %b)" a.ext_error
         b.ext_error)
  else if a.cycles <> b.cycles then
    Some (Printf.sprintf "cycle counts differ (%d vs %d)" a.cycles b.cycles)
  else None

(* Symptoms derived from an already-executed differential pair: how the
   buggy run diverges from the fixed one. Factored out of
   [observed_symptoms] so a campaign job that already holds both
   reports (e.g. with VCD capture on the buggy side) need not simulate
   again. *)
let symptoms_of ~(buggy : report) ~(fixed : report) : Taxonomy.symptom list =
  let stuck = buggy.stuck && not fixed.stuck in
  let loss = List.length buggy.rows < List.length fixed.rows in
  let incorrect =
    List.length buggy.rows = List.length fixed.rows
    && List.exists2 (fun (_, a) (_, b) -> a <> b) buggy.rows fixed.rows
  in
  let ext = buggy.ext_error && not fixed.ext_error in
  List.filter_map
    (fun (flag, sym) -> if flag then Some sym else None)
    [
      (stuck, Taxonomy.App_stuck);
      (loss, Taxonomy.Data_loss);
      (incorrect, Taxonomy.Incorrect_output);
      (ext, Taxonomy.External_error);
    ]

(* Symptoms observed by differential execution. *)
let observed_symptoms (bug : t) : Taxonomy.symptom list =
  let buggy = run bug ~buggy:true in
  let fixed = run bug ~buggy:false in
  symptoms_of ~buggy ~fixed

(* Push-button reproduction: the expected symptoms all manifest in an
   executed buggy/fixed pair. *)
let reproduces_of ~(bug : t) ~buggy ~fixed : bool =
  let observed = symptoms_of ~buggy ~fixed in
  List.for_all (fun s -> List.mem s observed) bug.symptoms

(* Convenience constructors for stimuli. *)
let b = Bits.of_int
let hi = b ~width:1 1
let lo = b ~width:1 0

(* Signals whose driving logic differs between the buggy and fixed
   versions - the registers a localization tool should lead the
   developer to. *)
let changed_signals (bug : t) : string list =
  let assignments ~buggy =
    match Ast.find_module (design_of bug ~buggy) bug.top with
    | None -> []
    | Some m ->
        let decl_sigs =
          List.map
            (fun (d : Ast.decl) -> (d.Ast.name, `Decl (d.Ast.width, d.Ast.depth)))
            m.Ast.decls
        in
        let assign_sigs =
          List.concat_map
            (fun (a : Ast.always) ->
              List.map
                (fun (l, rhs, cond) ->
                  ( String.concat "," (Ast.lvalue_bases l),
                    `Assign (l, rhs, cond) ))
                (Fpga_analysis.Path_constraint.assignments_of_always a))
            m.Ast.always_blocks
          @ List.map
              (fun (l, rhs) ->
                (String.concat "," (Ast.lvalue_bases l), `Assign (l, rhs, Ast.true_expr)))
              m.Ast.assigns
        in
        (* a fix can also rewire an instance: key each connection by
           instance and formal so swapped operands surface as changes *)
        let conn_sigs =
          List.concat_map
            (fun (i : Ast.instance) ->
              List.map
                (fun (c : Ast.connection) ->
                  ( String.concat ","
                      (Ast.dedup (Ast.expr_reads c.Ast.actual)),
                    `Conn (i.Ast.inst_name, c.Ast.formal, c.Ast.actual) ))
                i.Ast.conns)
            m.Ast.instances
        in
        decl_sigs @ assign_sigs @ conn_sigs
  in
  let buggy = assignments ~buggy:true and fixed = assignments ~buggy:false in
  let diff a b =
    List.filter_map
      (fun (name, payload) ->
        if List.exists (fun (n, p) -> n = name && p = payload) b then None
        else Some name)
      a
  in
  (diff buggy fixed @ diff fixed buggy)
  |> List.concat_map (String.split_on_char ',')
  |> Ast.dedup
