(* Evaluation-report generation: the printers that regenerate the
   paper's tables and figures, shared by bench/main.exe and the
   fpga-debug CLI. *)

module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Recipe = Fpga_testbed.Recipe
module Session = Fpga_testbed.Session
module Taxonomy = Fpga_study.Taxonomy
module Bug_db = Fpga_study.Bug_db
module Model = Fpga_resources.Model
module Platforms = Fpga_resources.Platforms

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let mark b = if b then "Y" else "."

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: bug classification (3 classes, 13 subclasses, 68 bugs)";
  Printf.printf "%-16s %-28s %5s  %-5s %-4s %-6s %-3s\n" "Class" "Subclass"
    "Bugs" "Stuck" "Loss" "Incor." "Ext";
  List.iter
    (fun (r : Bug_db.table1_row) ->
      let has s = List.mem s r.Bug_db.row_symptoms in
      Printf.printf "%-16s %-28s %5d  %-5s %-4s %-6s %-3s\n"
        (Taxonomy.class_name r.Bug_db.row_class)
        (Taxonomy.subclass_name r.Bug_db.row_subclass)
        r.Bug_db.row_count
        (mark (has Taxonomy.App_stuck))
        (mark (has Taxonomy.Data_loss))
        (mark (has Taxonomy.Incorrect_output))
        (mark (has Taxonomy.External_error)))
    Bug_db.table1;
  Printf.printf "%-16s %-28s %5d\n" "" "Total" Bug_db.total;
  Printf.printf
    "\ncorpus: of the %d most popular GitHub FPGA projects, %d%% lack a \
     public bug tracker and %d%% lack reproduction tests\n"
    Bug_db.corpus.Bug_db.surveyed_projects
    Bug_db.corpus.Bug_db.without_bug_tracker_pct
    Bug_db.corpus.Bug_db.without_repro_tests_pct;
  print_endline "bugs by origin:";
  List.iter
    (fun o ->
      Printf.printf "  %-28s %d\n" (Bug_db.origin_name o) (Bug_db.count_origin o))
    Bug_db.origins;
  print_endline "\ntypical fixes per subclass (sections 3.2-3.4):";
  List.iter
    (fun sc ->
      Printf.printf "  %-28s %s\n" (Taxonomy.subclass_name sc)
        (Taxonomy.common_fix sc))
    Taxonomy.all_subclasses

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header
    "Table 2: reproducible testbed (observed symptoms from differential \
     execution; tools marked helpful)";
  Printf.printf "%-4s %-28s %-22s %-8s | %-5s %-4s %-6s %-3s | %-2s %-3s %-5s %-4s %-2s\n"
    "ID" "Subclass" "Application" "Platform" "Stuck" "Loss" "Incor." "Ext"
    "SC" "FSM" "Stat." "Dep." "LC";
  List.iter
    (fun (bug : Bug.t) ->
      let observed = Bug.observed_symptoms bug in
      let has s = List.mem s observed in
      let tool t = List.mem t bug.Bug.helpful_tools in
      let platform =
        match bug.Bug.platform with
        | Platforms.Harp -> "HARP"
        | Platforms.Xilinx -> "Xilinx"
        | Platforms.Generic -> "Generic"
      in
      Printf.printf
        "%-4s %-28s %-22s %-8s | %-5s %-4s %-6s %-3s | %-2s %-3s %-5s %-4s %-2s\n"
        bug.Bug.id
        (Taxonomy.subclass_name bug.Bug.subclass)
        bug.Bug.application platform
        (mark (has Taxonomy.App_stuck))
        (mark (has Taxonomy.Data_loss))
        (mark (has Taxonomy.Incorrect_output))
        (mark (has Taxonomy.External_error))
        (mark (tool Bug.SC))
        (mark (tool Bug.FSM))
        (mark (tool Bug.Stat))
        (mark (tool Bug.Dep))
        (mark (tool Bug.LC)))
    Registry.all

let extended_testbed () =
  header
    "Extended testbed: study bugs reproduced beyond Table 2 (all 13 \
     subclasses covered)";
  List.iter
    (fun (bug : Bug.t) ->
      let buggy = Bug.run bug ~buggy:true in
      let fixed = Bug.run bug ~buggy:false in
      Printf.printf "%-4s %-28s %-20s %s -> [%s]\n" bug.Bug.id
        (Taxonomy.subclass_name bug.Bug.subclass)
        bug.Bug.application
        (if Bug.reproduces_of ~bug ~buggy ~fixed then "reproduces" else "FAILS")
        (String.concat ","
           (List.map Taxonomy.symptom_name (Bug.symptoms_of ~buggy ~fixed))))
    Registry.extended

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  header
    "Figure 2: SignalCat + monitors resource overhead vs. recording \
     buffer size";
  let depths = [ 1024; 2048; 4096; 8192 ] in
  let show (bug : Bug.t) =
    let cells =
      List.map (fun depth -> (depth, Recipe.overhead ~buffer_depth:depth bug)) depths
    in
    Printf.printf "%-4s bram(Kbit):" bug.Bug.id;
    List.iter
      (fun (_, u) -> Printf.printf " %8.1f" (float_of_int u.Model.bram_bits /. 1024.))
      cells;
    Printf.printf "  regs:";
    (match cells with
    | (_, u) :: _ -> Printf.printf " %5d" u.Model.registers
    | [] -> ());
    Printf.printf "  logic:";
    (match cells with
    | (_, u) :: _ -> Printf.printf " %5d" u.Model.logic
    | [] -> ());
    print_newline ()
  in
  print_endline "-- Intel HARP designs (buffer 1K / 2K / 4K / 8K entries) --";
  List.iter
    (fun b -> if b.Bug.platform = Platforms.Harp then show b)
    Registry.all;
  print_endline "-- Xilinx KC705 designs (buffer 1K / 2K / 4K / 8K entries) --";
  List.iter
    (fun b -> if b.Bug.platform <> Platforms.Harp then show b)
    Registry.all;
  (* the headline trend: BRAM linear in depth, registers/logic flat *)
  let d1 = Option.get (Registry.find "D1") in
  let u1 = Recipe.overhead ~buffer_depth:1024 d1 in
  let u8 = Recipe.overhead ~buffer_depth:8192 d1 in
  Printf.printf
    "trend check (D1): bram 8K/1K = %.2fx (expect 8.0x), registers 8K-1K = %+d\n"
    (float_of_int u8.Model.bram_bits /. float_of_int u1.Model.bram_bits)
    (u8.Model.registers - u1.Model.registers)

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  header
    "Figure 3: LossCheck overhead (% of platform registers/logic)";
  List.iter
    (fun (bug : Bug.t) ->
      match Recipe.losscheck_overhead bug with
      | None -> ()
      | Some u ->
          let platform = Platforms.of_kind bug.Bug.platform in
          let norm = Model.normalize platform u in
          Printf.printf "%-4s (%-7s) registers=%.4f%% logic=%.4f%%\n" bug.Bug.id
            (match bug.Bug.platform with
            | Platforms.Harp -> "HARP"
            | _ -> "KC705")
            (List.assoc "registers" norm) (List.assoc "logic" norm))
    Registry.loss_bugs

(* ------------------------------------------------------------------ *)
(* Effectiveness (6.3)                                                 *)
(* ------------------------------------------------------------------ *)

(* FSM detection over every bug against its manually identified FSMs,
   with the given heuristics: (detected, false positives, false
   negatives). Effectiveness reports it at full heuristics; ablation A3
   switches each rule off. *)
let fsm_census ~require_no_arith ~require_self_condition =
  let fp = ref 0 and fn = ref 0 and detected = ref 0 in
  List.iter
    (fun (bug : Bug.t) ->
      let m = Session.top bug (Bug.design_of bug ~buggy:true) in
      let det =
        List.map
          (fun f -> f.Fpga_analysis.Fsm_detect.state_var)
          (Fpga_analysis.Fsm_detect.detect ~require_no_arith
             ~require_self_condition m)
      in
      detected := !detected + List.length det;
      List.iter
        (fun v -> if not (List.mem v bug.Bug.manual_fsms) then incr fp)
        det;
      List.iter
        (fun v -> if not (List.mem v det) then incr fn)
        bug.Bug.manual_fsms)
    Registry.all;
  (!detected, !fp, !fn)

(* LossCheck's verdict on a loss bug's buggy design. *)
let localize (bug : Bug.t) =
  Option.get
    (Session.run
       { Session.none with loss = bug.Bug.loss_spec }
       bug (Bug.design_of bug ~buggy:true))
      .Session.loss

(* [localize] of a registry bug, once per process: effectiveness and
   ablation A2 report the same verdicts. *)
let verdicts = Hashtbl.create 8

let losscheck (bug : Bug.t) =
  match Hashtbl.find_opt verdicts bug.Bug.id with
  | Some r -> r
  | None ->
      let r = localize bug in
      Hashtbl.replace verdicts bug.Bug.id r;
      r

let effectiveness () =
  header "Effectiveness (section 6.3)";
  (* generated code for the monitor use case *)
  let locs =
    List.map
      (fun bug ->
        let monitor, recording =
          Recipe.loc (Recipe.apply ~buffer_depth:8192 bug)
        in
        (bug.Bug.id, monitor + recording))
      Registry.all
  in
  let total = List.fold_left (fun acc (_, l) -> acc + l) 0 locs in
  Printf.printf
    "SignalCat + monitors: average generated/inserted Verilog = %d lines \
     (paper: 72)\n"
    (total / List.length locs);
  (* LossCheck results *)
  let lc_locs = ref [] in
  let localized = ref 0 in
  let fp_total = ref 0 in
  List.iter
    (fun (bug : Bug.t) ->
      let r = losscheck bug in
      lc_locs := Fpga_debug.Losscheck.generated_loc r :: !lc_locs;
      let root = bug.Bug.loss_root in
      let found =
        match root with
        | Some root -> List.mem root r.Fpga_debug.Losscheck.reported
        | None -> false
      in
      if found then incr localized;
      let fps =
        List.length
          (List.filter
             (fun reg -> Some reg <> root)
             r.Fpga_debug.Losscheck.reported)
      in
      fp_total := !fp_total + fps;
      Printf.printf
        "LossCheck %-4s reported=[%s] suppressed=[%s] -> %s%s\n" bug.Bug.id
        (String.concat "," r.Fpga_debug.Losscheck.reported)
        (String.concat "," r.Fpga_debug.Losscheck.suppressed)
        (match root with
        | Some root when found -> "localized to " ^ root
        | Some root -> "MISSED " ^ root
        | None -> "false negative (filtered intentional drop)")
        (if fps > 0 then Printf.sprintf " with %d false positive(s)" fps else ""))
    Registry.loss_bugs;
  Printf.printf
    "LossCheck: %d/%d loss bugs localized (paper: 6/7), %d false positive \
     total (paper: 1 on D1)\n"
    !localized
    (List.length Registry.loss_bugs)
    !fp_total;
  Printf.printf "LossCheck generated code: %d-%d lines (paper: 522-19,462)\n"
    (List.fold_left min max_int !lc_locs)
    (List.fold_left max 0 !lc_locs);
  (* FSM detection accuracy *)
  let manual =
    List.fold_left
      (fun n (bug : Bug.t) -> n + List.length bug.Bug.manual_fsms)
      0 Registry.all
  in
  let detected, fp, fn =
    fsm_census ~require_no_arith:true ~require_self_condition:true
  in
  Printf.printf
    "FSM detection: %d manually-identified FSMs, %d detected, %d false \
     positives, %d false negatives (paper: 32 manual, 0 FP, 5 FN)\n"
    manual detected fp fn

(* ------------------------------------------------------------------ *)
(* Frequency (6.4)                                                     *)
(* ------------------------------------------------------------------ *)

let frequency () =
  header "Frequency closure (section 6.4)";
  let kept = ref 0 in
  List.iter
    (fun (bug : Bug.t) ->
      let before, after = Recipe.timing ~buffer_depth:8192 bug in
      if after.Model.meets_target then incr kept;
      Printf.printf
        "%-4s %-22s target %3d MHz | baseline fmax %3d | instrumented fmax \
         %3d -> %s %d MHz\n"
        bug.Bug.id bug.Bug.application bug.Bug.target_mhz before.Model.fmax_mhz
        after.Model.fmax_mhz
        (if after.Model.meets_target then "keeps" else "reduced to")
        after.Model.achieved_mhz)
    Registry.all;
  Printf.printf
    "%d/20 designs keep their target frequency after instrumentation \
     (paper: 18/20; Optimus 400 -> 200 MHz)\n"
    !kept

(* ------------------------------------------------------------------ *)
(* Ablations (design-choice studies called out in DESIGN.md)           *)
(* ------------------------------------------------------------------ *)

(* D2 under a chatty instrumentation, for A1 and A4: the Statistics
   Monitor on the bug's events, displaying every counter change. Returns
   the bug, its instrumented top module, and the number of log events a
   run keeps at a buffer depth in a SignalCat mode. *)
let chatty_d2 () =
  let bug = Option.get (Registry.find "D2") in
  let s =
    Session.instrument
      { Session.none with
        stat = Some { events = bug.Bug.stat_events; log_changes = true } }
      bug (Bug.design_of bug ~buggy:true)
  in
  let events ~buffer_depth mode =
    List.length
      (Fpga_debug.Signalcat.run_and_log ~buffer_depth
         ~max_cycles:bug.Bug.max_cycles ~mode ~top:bug.Bug.top
         s.Session.design bug.Bug.stimulus)
  in
  (bug, s.Session.with_monitors, events)

(* A1: SignalCat recording-buffer sizing - how much of the unified log
   survives at each depth (the capacity/completeness tradeoff that
   distinguishes SignalCat from pause-the-circuit loggers like
   Cascade/Synergy, section 7). *)
let ablation_buffer_sizing () =
  header "Ablation A1: SignalCat buffer depth vs. log completeness";
  let bug, _, events = chatty_d2 () in
  let total = events ~buffer_depth:1024 Fpga_debug.Signalcat.Simulation in
  List.iter
    (fun depth ->
      let got = events ~buffer_depth:depth Fpga_debug.Signalcat.On_fpga in
      let r = Fpga_testbed.Recipe.apply ~buffer_depth:depth bug in
      let u =
        Model.overhead ~baseline:r.Fpga_testbed.Recipe.baseline
          ~instrumented:r.Fpga_testbed.Recipe.on_fpga
      in
      Printf.printf
        "depth %5d: %2d/%2d events captured (%3.0f%%), %7.1f Kbit BRAM\n"
        depth got total
        (100.0 *. float_of_int got /. float_of_int (max 1 total))
        (float_of_int u.Model.bram_bits /. 1024.))
    [ 2; 4; 8; 16; 1024 ]

(* A2: LossCheck false-positive filtering on vs. off. *)
let ablation_losscheck_filtering () =
  header "Ablation A2: LossCheck ground-truth filtering";
  Printf.printf "%-4s %-28s %-28s\n" "bug" "without filtering" "with filtering";
  List.iter
    (fun (bug : Bug.t) ->
      let reported (r : Fpga_debug.Losscheck.result) =
        String.concat "," r.Fpga_debug.Losscheck.reported
      in
      Printf.printf "%-4s %-28s %-28s\n" bug.Bug.id
        (reported (localize { bug with Bug.ground_truth = [] }))
        (reported (losscheck bug)))
    Registry.loss_bugs;
  print_endline
    "filtering trades false positives (C2's replay register) for one \
     false negative (D11), as in sections 4.5.3-4.5.4"

(* A3: contribution of each FSM-detection heuristic. *)
let ablation_fsm_heuristics () =
  header "Ablation A3: FSM detection heuristics";
  List.iter
    (fun (label, na, sc) ->
      let d, fp, fn =
        fsm_census ~require_no_arith:na ~require_self_condition:sc
      in
      Printf.printf "%-34s detected=%2d  FP=%2d  FN=%2d\n" label d fp fn)
    [
      ("full heuristics (paper)", true, true);
      ("without the no-arithmetic rule", false, true);
      ("without the self-condition rule", true, false);
      ("neither rule", false, false);
    ];
  print_endline
    "dropping the self-condition rule floods the report with plain data \
     registers; the two byte-phase false negatives (half <= ~half) fail \
     the constant-assignment requirement itself, so no relaxation recovers \
     them - they need the developer patch-in facility of section 4.2"

(* A4: SignalCat's tradeoff against pause-the-circuit logging (Cascade /
   Synergy, section 7): on-chip recording bounds the log but never
   stalls; unsynthesizable-printf execution captures everything but
   pauses the circuit for the host to drain each statement. *)
let ablation_pause_logging () =
  header "Ablation A4: on-chip recording vs. pause-the-circuit logging";
  let drain_cycles = 300 in  (* host round-trip per printf, Cascade-style *)
  let bug, chatty, events = chatty_d2 () in
  let total_events = events ~buffer_depth:1024 Fpga_debug.Signalcat.Simulation in
  let run_cycles = bug.Bug.max_cycles in
  let sc_plan = Fpga_debug.Signalcat.analyze ~buffer_depth:16 chatty in
  Printf.printf
    "run: %d cycles, %d log events, entry width %d bits\n" run_cycles
    total_events sc_plan.Fpga_debug.Signalcat.entry_width;
  Printf.printf
    "SignalCat (16-entry buffer): %d/%d events, 1.00x runtime, %d bits BRAM\n"
    (min 16 total_events) total_events
    (16 * sc_plan.Fpga_debug.Signalcat.entry_width);
  let paused = run_cycles + (drain_cycles * total_events) in
  Printf.printf
    "pause-the-circuit (Cascade-style, %d-cycle drain): %d/%d events, \
     %.2fx runtime, 0 bits BRAM\n"
    drain_cycles total_events total_events
    (float_of_int paused /. float_of_int run_cycles);
  print_endline
    "SignalCat trades completeness for zero slowdown; pausing trades \
     slowdown for completeness - the section 7 comparison"

let ablations () =
  ablation_buffer_sizing ();
  ablation_losscheck_filtering ();
  ablation_fsm_heuristics ();
  ablation_pause_logging ()
