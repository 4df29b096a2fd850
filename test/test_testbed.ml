(* Integration tests over the 20-bug testbed: every bug reproduces its
   Table 2 symptoms push-button, the fixed version is clean, and each
   tool marked helpful for a bug actually produces the localizing
   evidence the paper describes (section 6.3). *)

open Fpga_testbed
module Taxonomy = Fpga_study.Taxonomy
module Simulator = Fpga_sim.Simulator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all = Registry.all

(* --- reproduction ---------------------------------------------------- *)

let reproduction_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " reproduces") `Quick (fun () ->
          let observed = Bug.observed_symptoms bug in
          List.iter
            (fun s ->
              check_bool
                (Printf.sprintf "%s shows %s" bug.Bug.id
                   (Taxonomy.symptom_name s))
                true (List.mem s observed))
            bug.Bug.symptoms))
    all

let fixed_clean_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " fixed is clean") `Quick (fun () ->
          let fixed = Bug.run bug ~buggy:false in
          check_bool "fixed not stuck" false fixed.Bug.stuck;
          check_bool "fixed no external error" false fixed.Bug.ext_error))
    all

(* --- testbed metadata ------------------------------------------------- *)

let test_registry_shape () =
  check_int "20 bugs" 20 (List.length all);
  check_int "13 data mis-access" 13
    (List.length
       (List.filter
          (fun (b : Bug.t) ->
            Taxonomy.class_of_subclass b.Bug.subclass = Taxonomy.Data_mis_access)
          all));
  check_int "4 communication" 4
    (List.length
       (List.filter
          (fun (b : Bug.t) ->
            Taxonomy.class_of_subclass b.Bug.subclass = Taxonomy.Communication)
          all));
  check_int "3 semantic" 3
    (List.length
       (List.filter
          (fun (b : Bug.t) ->
            Taxonomy.class_of_subclass b.Bug.subclass = Taxonomy.Semantic)
          all));
  (* ids match the study database's testbed annotations *)
  List.iter
    (fun (b : Bug.t) ->
      check_bool
        (Printf.sprintf "%s appears in the study database" b.Bug.id)
        true
        (Fpga_study.Bug_db.find_by_testbed_id b.Bug.id <> None))
    all;
  (* SignalCat is helpful for every bug (section 6.3) *)
  List.iter
    (fun (b : Bug.t) ->
      check_bool (b.Bug.id ^ " uses SignalCat") true
        (List.mem Bug.SC b.Bug.helpful_tools))
    all;
  (* each monitor helps at least four bugs *)
  List.iter
    (fun tool ->
      let n =
        List.length
          (List.filter (fun (b : Bug.t) -> List.mem tool b.Bug.helpful_tools) all)
      in
      check_bool
        (Printf.sprintf "%s helps >= 4 bugs (got %d)" (Bug.tool_name tool) n)
        true (n >= 4))
    [ Bug.FSM; Bug.Stat; Bug.Dep ]

(* --- LossCheck over the loss bugs (section 6.3) ----------------------- *)

let losscheck_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " losscheck") `Quick (fun () ->
          let design = Bug.design_of bug ~buggy:true in
          let spec = Option.get bug.Bug.loss_spec in
          let r =
            Fpga_debug.Losscheck.localize ~ground_truth:bug.Bug.ground_truth
              ~max_cycles:bug.Bug.max_cycles ~top:bug.Bug.top ~spec
              ~stimulus:bug.Bug.stimulus design
          in
          (match bug.Bug.loss_root with
          | Some root ->
              check_bool
                (Printf.sprintf "%s localized to %s" bug.Bug.id root)
                true
                (List.mem root r.Fpga_debug.Losscheck.reported)
          | None ->
              (* D11: the paper's false negative - filtering suppresses
                 the alarm *)
              check_bool (bug.Bug.id ^ " reports nothing (false negative)")
                true
                (r.Fpga_debug.Losscheck.reported = []);
              check_bool (bug.Bug.id ^ " alarm was filtered") true
                (r.Fpga_debug.Losscheck.suppressed <> []));
          check_bool "losscheck generated code" true
            (Fpga_debug.Losscheck.generated_loc r > 0)))
    Registry.loss_bugs

let test_losscheck_d1_false_positive () =
  (* D1 keeps exactly one false positive after filtering (section 6.3) *)
  let bug = App_rsd.bug in
  let design = Bug.design_of bug ~buggy:true in
  let spec = Option.get bug.Bug.loss_spec in
  let r =
    Fpga_debug.Losscheck.localize ~ground_truth:bug.Bug.ground_truth
      ~max_cycles:bug.Bug.max_cycles ~top:bug.Bug.top ~spec
      ~stimulus:bug.Bug.stimulus design
  in
  Alcotest.(check (list string))
    "true root + one false positive" [ "codeword"; "in_reg" ]
    (List.sort String.compare r.Fpga_debug.Losscheck.reported)

let test_losscheck_summary () =
  (* 6 of 7 loss bugs localize, as in section 6.3 *)
  let localized =
    List.filter (fun (b : Bug.t) -> b.Bug.loss_root <> None) Registry.loss_bugs
  in
  check_int "7 loss bugs evaluated" 7 (List.length Registry.loss_bugs);
  check_int "6 localized" 6 (List.length localized)

(* --- FSM detection accuracy (section 4.2) ----------------------------- *)

let test_fsm_accuracy () =
  let detected_total = ref 0 in
  let manual_total = ref 0 in
  let false_positives = ref [] in
  let false_negatives = ref [] in
  List.iter
    (fun (bug : Bug.t) ->
      let design = Bug.design_of bug ~buggy:true in
      let m = Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top) in
      let detected =
        List.map
          (fun f -> f.Fpga_analysis.Fsm_detect.state_var)
          (Fpga_analysis.Fsm_detect.detect m)
      in
      detected_total := !detected_total + List.length detected;
      manual_total := !manual_total + List.length bug.Bug.manual_fsms;
      List.iter
        (fun v ->
          if not (List.mem v bug.Bug.manual_fsms) then
            false_positives := (bug.Bug.id, v) :: !false_positives)
        detected;
      List.iter
        (fun v ->
          if not (List.mem v detected) then
            false_negatives := (bug.Bug.id, v) :: !false_negatives)
        bug.Bug.manual_fsms)
    all;
  check_int "no false positives" 0 (List.length !false_positives);
  check_int "two deliberate false negatives" 2 (List.length !false_negatives);
  check_int "manual census" 17 !manual_total;
  check_int "detected census" 15 !detected_total

(* --- FSM Monitor finds the stuck state (grayscale case study) --------- *)

let test_fsm_monitor_case_study () =
  let bug = App_grayscale.bug in
  let design = Bug.design_of bug ~buggy:true in
  let m = Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top) in
  let plan = Fpga_debug.Fsm_monitor.plan m in
  let instrumented = Fpga_debug.Fsm_monitor.instrument plan m in
  let design' = { Fpga_hdl.Ast.modules = [ instrumented ] } in
  let report = Bug.run_design bug design' in
  let finals = Fpga_debug.Fsm_monitor.final_states plan report.Bug.log in
  (* the read FSM finished, the write FSM is stuck mid-transfer *)
  Alcotest.(check (option string))
    "read FSM reached RD_FINISH" (Some "RD_FINISH")
    (List.assoc_opt "rd_state" finals);
  Alcotest.(check (option string))
    "write FSM stuck in WR_DATA" (Some "WR_DATA")
    (List.assoc_opt "wr_state" finals)

(* --- Statistics Monitor flags the loss bugs --------------------------- *)

let stat_anomaly_bugs = [ "D2"; "D4"; "D11"; "C2"; "C4" ]

let stat_tests =
  List.map
    (fun id ->
      Alcotest.test_case (id ^ " statistics anomaly") `Quick (fun () ->
          let bug = Option.get (Registry.find id) in
          let design = Bug.design_of bug ~buggy:true in
          let m = Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top) in
          let events =
            List.map
              (fun (name, signal) ->
                {
                  Fpga_debug.Stat_monitor.event_name = name;
                  trigger = Fpga_hdl.Ast.Ident signal;
                })
              bug.Bug.stat_events
          in
          let plan = Fpga_debug.Stat_monitor.plan m events in
          let instrumented = Fpga_debug.Stat_monitor.instrument plan m in
          let design' = { Fpga_hdl.Ast.modules = [ instrumented ] } in
          let sim = Fpga_sim.Testbench.of_design ~top:bug.Bug.top design' in
          let _ =
            Fpga_sim.Testbench.run ~max_cycles:bug.Bug.max_cycles sim
              bug.Bug.stimulus
          in
          let counts = Fpga_debug.Stat_monitor.counts plan sim in
          (* total produced across input events vs. the output event *)
          let consumer =
            fst (List.nth bug.Bug.stat_events (List.length bug.Bug.stat_events - 1))
          in
          let produced =
            List.fold_left
              (fun acc (name, n) -> if name = consumer then acc else acc + n)
              0 counts
          in
          let consumed = List.assoc consumer counts in
          check_bool
            (Printf.sprintf "produced %d > consumed %d" produced consumed)
            true (produced > consumed)))
    stat_anomaly_bugs

(* --- Dependency Monitor: the chain reaches the buggy logic ------------ *)

let dep_tests =
  List.filter_map
    (fun (bug : Bug.t) ->
      match bug.Bug.dep_target with
      | Some target when List.mem Bug.Dep bug.Bug.helpful_tools ->
          Some
            (Alcotest.test_case (bug.Bug.id ^ " dependency chain") `Quick
               (fun () ->
                 let design = Bug.design_of bug ~buggy:true in
                 let m =
                   Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top)
                 in
                 let plan =
                   Fpga_debug.Dep_monitor.analyze ~design ~target ~cycles:8 m
                 in
                 let changed = Bug.changed_signals bug in
                 Alcotest.(check bool)
                   (Printf.sprintf
                      "chain of %s contains a signal the fix touches (%s)"
                      target
                      (String.concat "," changed))
                   true
                   (List.exists
                      (fun c -> List.mem c plan.Fpga_debug.Dep_monitor.chain)
                      changed)))
      | _ -> None)
    all

(* --- Deadlock: the circular control dependency is found --------------- *)

let test_deadlock_cycle () =
  let bug = App_sdspi.c1 in
  let design = Bug.design_of bug ~buggy:true in
  let m = Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top) in
  let g = Fpga_analysis.Deps.of_module m in
  let cycles = Fpga_analysis.Deps.control_cycles g in
  check_bool "a circular control dependency exists" true (cycles <> []);
  check_bool "cmd_active and data_idle are in a cycle" true
    (List.exists
       (fun c -> List.mem "cmd_active" c && List.mem "data_idle" c)
       cycles)

(* --- SignalCat unification across the testbed ------------------------- *)

let kernels = [ Simulator.Brute_force; Simulator.Lowered_dirty ]

let substitute (design : Fpga_hdl.Ast.design) (m : Fpga_hdl.Ast.module_def) =
  {
    Fpga_hdl.Ast.modules =
      List.map
        (fun (x : Fpga_hdl.Ast.module_def) ->
          if x.Fpga_hdl.Ast.mod_name = m.Fpga_hdl.Ast.mod_name then m else x)
        design.Fpga_hdl.Ast.modules;
  }

(* [Signalcat.run_and_log] with the simulator built under [kernel]: in
   [Simulation] mode the displays print; in [On_fpga] mode the log is
   read back from the recording buffer. *)
let signalcat_log ~kernel ~mode (bug : Bug.t) (m : Fpga_hdl.Ast.module_def)
    design =
  let m', plan = Fpga_debug.Signalcat.apply ~buffer_depth:1024 mode m in
  let sim =
    Fpga_sim.Testbench.of_design ~kernel ~top:bug.Bug.top (substitute design m')
  in
  let outcome =
    Fpga_sim.Testbench.run ~max_cycles:bug.Bug.max_cycles sim bug.Bug.stimulus
  in
  match mode with
  | Fpga_debug.Signalcat.Simulation -> outcome.Fpga_sim.Testbench.log
  | Fpga_debug.Signalcat.On_fpga -> Fpga_debug.Signalcat.reconstruct plan sim

(* The Simulation-mode log equals the on-FPGA readback under every
   kernel, and every kernel gives the same log, for each bug: with the
   full debug recipe's monitors (every bug) and with the FSM-monitor
   displays alone (bugs with hand-identified FSMs). *)
let signalcat_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " signalcat unification") `Quick
        (fun () ->
          let design = Bug.design_of bug ~buggy:true in
          let m =
            Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top)
          in
          let recipe = Fpga_testbed.Recipe.apply ~buffer_depth:1024 bug in
          let designs =
            ("recipe", recipe.Fpga_testbed.Recipe.with_monitors)
            ::
            (if bug.Bug.manual_fsms = [] then []
             else
               [
                 ( "fsm monitor",
                   Fpga_debug.Fsm_monitor.instrument
                     (Fpga_debug.Fsm_monitor.plan m) m );
               ])
          in
          List.iter
            (fun (what, m') ->
              let reference =
                signalcat_log ~kernel:Simulator.Brute_force
                  ~mode:Fpga_debug.Signalcat.Simulation bug m' design
              in
              List.iter
                (fun kernel ->
                  List.iter
                    (fun mode ->
                      Alcotest.(check (list (pair int string)))
                        (Printf.sprintf "%s %s: %s log under %s" bug.Bug.id
                           what
                           (match mode with
                           | Fpga_debug.Signalcat.Simulation -> "simulation"
                           | Fpga_debug.Signalcat.On_fpga -> "on-FPGA")
                           (Simulator.kernel_name kernel))
                        reference
                        (signalcat_log ~kernel ~mode bug m' design))
                    [ Fpga_debug.Signalcat.Simulation; Fpga_debug.Signalcat.On_fpga ])
                kernels)
            designs))
    all

let suite =
  reproduction_tests @ fixed_clean_tests
  @ [
      Alcotest.test_case "registry shape" `Quick test_registry_shape;
      Alcotest.test_case "losscheck D1 false positive" `Quick
        test_losscheck_d1_false_positive;
      Alcotest.test_case "losscheck summary" `Quick test_losscheck_summary;
      Alcotest.test_case "fsm detection accuracy" `Quick test_fsm_accuracy;
      Alcotest.test_case "fsm monitor case study" `Quick
        test_fsm_monitor_case_study;
      Alcotest.test_case "deadlock control cycle" `Quick test_deadlock_cycle;
    ]
  @ losscheck_tests @ stat_tests @ dep_tests @ signalcat_tests

(* --- extended testbed (beyond Table 2) --------------------------------- *)

let extended_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " (extended) reproduces") `Quick
        (fun () ->
          let observed = Bug.observed_symptoms bug in
          List.iter
            (fun s ->
              check_bool
                (Printf.sprintf "%s shows %s" bug.Bug.id
                   (Taxonomy.symptom_name s))
                true (List.mem s observed))
            bug.Bug.symptoms;
          let fixed = Bug.run bug ~buggy:false in
          check_bool "fixed not stuck" false fixed.Bug.stuck))
    Registry.extended

let test_subclass_coverage () =
  (* with the extended set, every subclass of the taxonomy has at least
     one push-button reproduction *)
  let covered =
    List.map (fun (b : Bug.t) -> b.Bug.subclass) Registry.all_with_extended
  in
  List.iter
    (fun sc ->
      check_bool
        (Taxonomy.subclass_name sc ^ " covered")
        true (List.mem sc covered))
    Taxonomy.all_subclasses

let suite =
  suite @ extended_tests
  @ [ Alcotest.test_case "all subclasses covered" `Quick test_subclass_coverage ]

(* --- instrumentation is non-invasive ------------------------------------ *)

(* The full debug recipe (monitors + recording logic) must not change
   the design's observable behaviour: the instrumented buggy design
   produces exactly the rows the bare buggy design does. *)
let noninvasive_tests =
  List.map
    (fun id ->
      Alcotest.test_case (id ^ " instrumentation non-invasive") `Quick
        (fun () ->
          let bug = Option.get (Registry.find id) in
          let bare = Bug.run bug ~buggy:true in
          let r = Fpga_testbed.Recipe.apply ~buffer_depth:1024 bug in
          let design = Bug.design_of bug ~buggy:true in
          let design' =
            {
              Fpga_hdl.Ast.modules =
                List.map
                  (fun m ->
                    if m.Fpga_hdl.Ast.mod_name = bug.Bug.top then
                      r.Fpga_testbed.Recipe.on_fpga
                    else m)
                  design.Fpga_hdl.Ast.modules;
            }
          in
          let instrumented = Bug.run_design bug design' in
          Alcotest.(check bool)
            "same stuck verdict" bare.Bug.stuck instrumented.Bug.stuck;
          Alcotest.(check bool)
            "same output rows" true
            (List.map snd bare.Bug.rows = List.map snd instrumented.Bug.rows)))
    [ "D1"; "D2"; "D4"; "D9"; "C1"; "C4"; "S3" ]

(* --- every testbed source parses, prints, and reparses ------------------- *)

let roundtrip_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " source roundtrip") `Quick (fun () ->
          List.iter
            (fun src ->
              let d1 = Fpga_hdl.Parser.parse_design src in
              let printed = Fpga_hdl.Pp_verilog.design_to_string d1 in
              let d2 = Fpga_hdl.Parser.parse_design printed in
              Alcotest.(check bool)
                (bug.Bug.id ^ " print/parse stable") true (d1 = d2))
            [ bug.Bug.buggy_src; bug.Bug.fixed_src ]))
    Registry.all_with_extended

(* --- elaboration error reporting ----------------------------------------- *)

let test_elaboration_errors () =
  let elaborates src top =
    match
      Fpga_sim.Elaborate.elaborate (Fpga_hdl.Parser.parse_design src) ~top
    with
    | exception Fpga_sim.Elaborate.Elaboration_error _ -> false
    | _ -> true
  in
  check_bool "unknown top rejected" false
    (elaborates "module m (input a); endmodule" "ghost");
  check_bool "unknown child module rejected" false
    (elaborates
       "module top (input clk); mystery u0 (.x(clk)); endmodule" "top");
  check_bool "unknown parameter override rejected" false
    (elaborates
       {|
module child #(parameter N = 1) (input clk);
endmodule
module top (input clk);
  child #(.GHOST(3)) u0 (.clk(clk));
endmodule
|}
       "top");
  check_bool "unknown port rejected" false
    (elaborates
       {|
module child (input clk);
endmodule
module top (input clk);
  child u0 (.nonexistent(clk));
endmodule
|}
       "top")

let suite =
  suite @ noninvasive_tests @ roundtrip_tests
  @ [ Alcotest.test_case "elaboration errors" `Quick test_elaboration_errors ]

(* --- Dependency Monitor over the extended bugs --------------------------- *)

let extended_dep_tests =
  List.filter_map
    (fun (bug : Bug.t) ->
      match bug.Bug.dep_target with
      | Some target when List.mem Bug.Dep bug.Bug.helpful_tools ->
          Some
            (Alcotest.test_case
               (bug.Bug.id ^ " (extended) dependency chain")
               `Quick
               (fun () ->
                 let design = Bug.design_of bug ~buggy:true in
                 let m =
                   Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top)
                 in
                 let plan =
                   Fpga_debug.Dep_monitor.analyze ~design ~target ~cycles:8 m
                 in
                 let changed = Bug.changed_signals bug in
                 Alcotest.(check bool)
                   (Printf.sprintf "chain reaches the fix (%s)"
                      (String.concat "," changed))
                   true
                   (List.exists
                      (fun c -> List.mem c plan.Fpga_debug.Dep_monitor.chain)
                      changed)))
      | _ -> None)
    Registry.extended

let suite = suite @ extended_dep_tests

(* --- external monitors under concurrent runs ----------------------------- *)

(* One [Bug.t] is shared by every worker of a campaign or fuzz pool, so
   a stateful external monitor must keep its state per domain. Two
   domains step S2's buggy design in strict lockstep (a mutex and
   condition pass the turn after every cycle); each must get exactly
   the per-cycle verdicts of a run alone. *)
let test_s2_monitor_per_domain () =
  let bug = Option.get (Registry.find "S2") in
  let monitor = Option.get bug.Bug.ext_monitor in
  let flat =
    Fpga_sim.Elaborate.elaborate (Bug.design_of bug ~buggy:true) ~top:bug.Bug.top
  in
  let cycles = bug.Bug.max_cycles in
  let run ~turn =
    let sim = Simulator.create flat in
    List.init cycles (fun i ->
        turn (fun () ->
            List.iter (fun (n, v) -> Simulator.set_input sim n v) (bug.Bug.stimulus i);
            Simulator.step sim;
            monitor sim))
  in
  let serial = run ~turn:(fun f -> f ()) in
  check_bool "a run alone flags the violation" true (List.mem true serial);
  let m = Mutex.create () and c = Condition.create () and next = ref 0 in
  let lockstep who f =
    Mutex.lock m;
    while !next <> who do
      Condition.wait c m
    done;
    let v = f () in
    next := 1 - who;
    Condition.broadcast c;
    Mutex.unlock m;
    v
  in
  let d0 = Domain.spawn (fun () -> run ~turn:(lockstep 0)) in
  let d1 = Domain.spawn (fun () -> run ~turn:(lockstep 1)) in
  let v0 = Domain.join d0 and v1 = Domain.join d1 in
  Alcotest.(check (list bool)) "first domain gets the serial verdicts" serial v0;
  Alcotest.(check (list bool)) "second domain gets the serial verdicts" serial v1

let suite =
  suite
  @ [
      Alcotest.test_case "S2 monitor state is per domain" `Quick
        test_s2_monitor_per_domain;
    ]

(* --- recorder allocation ceiling ------------------------------------------ *)

(* D2 under the debug recipe's on-FPGA design: SignalCat stages one
   wide concat of every display's constraint and arguments per cycle.
   Stepping it under lowered-dirty, stimulus included, stays under 263
   minor words per cycle; building that concat part by part through
   intermediate vectors costs about 520. *)
let test_recorder_allocation () =
  let bug = Option.get (Registry.find "D2") in
  let r = Fpga_testbed.Recipe.apply ~buffer_depth:2048 bug in
  let design =
    substitute (Bug.design_of bug ~buggy:true) r.Fpga_testbed.Recipe.on_fpga
  in
  let sim =
    Fpga_sim.Testbench.of_design ~kernel:Simulator.Lowered_dirty
      ~top:bug.Bug.top design
  in
  let cycles = 2000 in
  let before = Gc.minor_words () in
  for i = 0 to cycles - 1 do
    List.iter (fun (n, v) -> Simulator.set_input sim n v) (bug.Bug.stimulus i);
    Simulator.step sim
  done;
  let per_cycle = (Gc.minor_words () -. before) /. float_of_int cycles in
  check_int "every cycle stepped" cycles (Simulator.cycle sim);
  check_bool
    (Printf.sprintf "%.0f minor words per cycle <= 263" per_cycle)
    true (per_cycle <= 263.)

(* The recorder's staged concat evaluates through memoised runs, and a
   checkpoint restore writes values without notification. D2's on-FPGA
   design, run to the end, restored into the same instance at cycle 20
   (mid-frame: its monitored registers then differ from their final
   values) and run to the end again, must still read back the
   Simulation-mode log. *)
let test_recorder_restore () =
  let bug = Option.get (Registry.find "D2") in
  let r = Fpga_testbed.Recipe.apply ~buffer_depth:1024 bug in
  let design = Bug.design_of bug ~buggy:true in
  let sim =
    Fpga_sim.Testbench.of_design ~kernel:Simulator.Lowered_dirty ~top:bug.Bug.top
      (substitute design r.Fpga_testbed.Recipe.on_fpga)
  in
  let run max_cycles = ignore (Fpga_sim.Testbench.run ~max_cycles sim bug.Bug.stimulus) in
  run 20;
  let ck = Simulator.save_checkpoint sim in
  run bug.Bug.max_cycles;
  Simulator.restore_checkpoint sim ck;
  run bug.Bug.max_cycles;
  Alcotest.(check (list (pair int string)))
    "on-FPGA log after a restore equals the simulation-mode log"
    (signalcat_log ~kernel:Simulator.Brute_force ~mode:Fpga_debug.Signalcat.Simulation
       bug r.Fpga_testbed.Recipe.with_monitors design)
    (Fpga_debug.Signalcat.reconstruct r.Fpga_testbed.Recipe.signalcat_plan sim)

let suite =
  suite
  @ [
      Alcotest.test_case "recorder allocation ceiling" `Quick
        test_recorder_allocation;
      Alcotest.test_case "recorder log after a restore" `Quick test_recorder_restore;
    ]

(* --- the debug window: readback over a wrapped ring ------------------------ *)

let window = 2000
let window_depth = 256

(* [bug]'s debug recipe at the window's ring depth, and one run of
   [m] (a top module of it) for the window, from reset. *)
let window_run (bug : Bug.t) m =
  let sim =
    Fpga_sim.Testbench.of_design ~top:bug.Bug.top
      (substitute (Bug.design_of bug ~buggy:true) m)
  in
  let outcome =
    Fpga_sim.Testbench.run ~max_cycles:window sim bug.Bug.stimulus
  in
  (sim, outcome.Fpga_sim.Testbench.log)

let suffix n l = List.filteri (fun i _ -> i >= List.length l - n) l

(* Every Table 2 bug's on-FPGA design run for a debug session's 2000
   cycles into a 256-entry ring (S2 and D3 wrap it): the readback is
   the newest part of the Simulation-mode log of the same run. *)
let test_debug_window () =
  List.iter
    (fun (bug : Bug.t) ->
      let r = Recipe.apply ~buffer_depth:window_depth bug in
      let _, sim_log = window_run bug r.Recipe.with_monitors in
      let sim, _ = window_run bug r.Recipe.on_fpga in
      let fpga_log = Fpga_debug.Signalcat.reconstruct r.Recipe.signalcat_plan sim in
      Alcotest.(check (list (pair int string)))
        (bug.Bug.id ^ ": readback is the log's newest lines")
        (suffix (List.length fpga_log) sim_log)
        fpga_log)
    all

(* S2's readback decodes a wrapped 256-entry ring into 616 lines.
   Reading narrow arguments straight from each entry costs 13.5 minor
   words per line, the line's string and list cells included; slicing
   every argument into a vector first costs 18.5, and the renderer
   before formats were compiled about 50. *)
let test_readback_allocation () =
  let bug = Option.get (Registry.find "S2") in
  let r = Recipe.apply ~buffer_depth:window_depth bug in
  let sim, _ = window_run bug r.Recipe.on_fpga in
  let before = Gc.minor_words () in
  let log = Fpga_debug.Signalcat.reconstruct r.Recipe.signalcat_plan sim in
  let words = Gc.minor_words () -. before in
  let lines = List.length log in
  let per_line = words /. float_of_int lines in
  check_bool "the ring wrapped" true (lines >= window_depth);
  check_bool
    (Printf.sprintf "%.1f minor words per log line <= 16" per_line)
    true (per_line <= 16.)

let suite =
  suite
  @ [
      Alcotest.test_case "debug window: readback is the log's suffix" `Quick
        test_debug_window;
      Alcotest.test_case "readback allocation ceiling" `Quick
        test_readback_allocation;
    ]

(* --- the process-wide parse memo ------------------------------------------ *)

let test_design_of_shared () =
  let bug = Option.get (Registry.find "D2") in
  let buggy = Bug.design_of bug ~buggy:true in
  check_bool "repeated buggy calls share one design" true
    (Bug.design_of bug ~buggy:true == buggy);
  check_bool "repeated fixed calls share one design" true
    (Bug.design_of bug ~buggy:false == Bug.design_of bug ~buggy:false);
  check_bool "buggy and fixed sources get different designs" false
    (Bug.design_of bug ~buggy:false == buggy);
  let copy = { bug with Bug.max_cycles = bug.Bug.max_cycles + 1 } in
  check_bool "a record copy shares its parent's design" true
    (Bug.design_of copy ~buggy:true == buggy)

(* Two domains released together make the first call on a source no
   call has parsed yet: both must come back with one physical design. *)
let test_design_of_race () =
  let bug = Option.get (Registry.find "D2") in
  let fresh = Bytes.to_string (Bytes.of_string bug.Bug.buggy_src) in
  let bug = { bug with Bug.buggy_src = fresh } in
  let go = Atomic.make false in
  let racer () =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        Bug.design_of bug ~buggy:true)
  in
  let d0 = racer () and d1 = racer () in
  Atomic.set go true;
  let v0 = Domain.join d0 and v1 = Domain.join d1 in
  check_bool "both domains get the same physical design" true (v0 == v1);
  check_bool "later calls get it too" true (Bug.design_of bug ~buggy:true == v0);
  check_bool "it equals a fresh parse" true (v0 = Fpga_hdl.Parser.parse_design fresh)

let test_design_of_error_not_cached () =
  let bug = Option.get (Registry.find "D2") in
  let broken = { bug with Bug.buggy_src = "module broken (" } in
  let raises () =
    match Bug.design_of broken ~buggy:true with
    | exception Fpga_hdl.Parser.Parse_error _ -> true
    | _ -> false
  in
  check_bool "first call raises Parse_error" true (raises ());
  check_bool "second call raises Parse_error" true (raises ())

let suite =
  suite
  @ [
      Alcotest.test_case "design_of shares one design per source" `Quick
        test_design_of_shared;
      Alcotest.test_case "design_of first-call race" `Quick test_design_of_race;
      Alcotest.test_case "design_of does not cache parse errors" `Quick
        test_design_of_error_not_cached;
    ]

(* --- pinned waveforms ------------------------------------------------------ *)

(* MD5 of the VCD of every Table 2 bug, buggy and fixed, sampled from
   cycle 0 and from the listed mid-run cycle (half the run), recorded
   before the sampler read signals by dense id. Both kernels must
   reproduce every byte: the waveform is the oracle that compares
   kernels and replays. Columns: bug, buggy, mid cycle, digest from 0,
   digest from mid. *)
let pinned_vcds =
  [
    ("D1", true, 60, "86eadcbd7d50f5ddde8d9071fa943ffe", "b9099c04c9426b3eb8b8312c1a4f180d");
    ("D1", false, 20, "6f535bc1dd33cb6cfee676fda619b991", "535a1cc63eb12aa15d4a906dc460ab4c");
    ("D2", true, 60, "644c5e278b1799cfbe00a53ca0c3082b", "87b206a6ee9bd08f03cb7516178831a2");
    ("D2", false, 27, "49cc7e56dae00ee8030122f9d9b5d6fe", "d237a4204a589c364b586637fb153fa8");
    ("D3", true, 40, "4dc1452329b72af6ab8a3c2635de6c58", "4f229f55c5818737a63110ed0023a8c1");
    ("D3", false, 8, "4e62ae690d403721dcdeb554805982b2", "eb13311e74c15b6d62b2faf43f7cd73d");
    ("D4", true, 40, "e817e24da75e1020814042de459e82e8", "5b2164987195a6b49dcf2fa8a535eda5");
    ("D4", false, 40, "17293b6526452d56b062451d7ad5fb4d", "0400c1846b2821b9bc124be135b25f6e");
    ("D5", true, 20, "76306d4136dd3f7f8ccbc5f44c86ee6b", "4e9cfc1d763255ac772e19757e9365b3");
    ("D5", false, 20, "a5f65df7ca41867c38176a187ad48d45", "031642c619ccfcc48bf4f4202fbc33c9");
    ("D6", true, 10, "06c387733a1671d633d7b8fddaaf2fe0", "ab44830e323e655b0ee32d536795799d");
    ("D6", false, 10, "1c934cccd608838d8440c1a2d326d7b5", "b6d82c91e73166f9350b9fbbe9d5c38c");
    ("D7", true, 12, "417dd9363a5985a5715ee152e63f4692", "e7fcc63151619401e6a4dc4d5ea1a0df");
    ("D7", false, 12, "8ea3e15afd88af42318808e2b668ce43", "5d3a27e74b08b423b8bea6d529f41756");
    ("D8", true, 6, "dc141f67229ff8633a3ece626537b407", "5d8415ff888e348de5c6f7cf0cbb08c1");
    ("D8", false, 6, "ebc5d7dab13d561ce4b853d35d34e11b", "5d8415ff888e348de5c6f7cf0cbb08c1");
    ("D9", true, 8, "2d9685fcb01eca38fa9b8ff893e13896", "51d3ee584d31971c748518ea179936cd");
    ("D9", false, 8, "21eb540d82f6b5135092bf92969bd152", "dee1939f0e80d5fee7a19e7368ad32d5");
    ("D10", true, 30, "6125ca8b1c076a178e85c04ec09c408b", "555d9d4859a9cb0d6d7cc34caf697291");
    ("D10", false, 30, "e01c7380713f6579e89175916c84a097", "63e721063cd7a81c6d29fbcbd79342aa");
    ("D11", true, 30, "94f99ce4a2542c853cfa88c73f229a13", "4b0de5f545dc0692573777074771db9d");
    ("D11", false, 30, "63717604fa617505087b2cca5d788c18", "ec963bf0d203c7b4e93f0a7729ca74ec");
    ("D12", true, 15, "f96f5d6db76ee32939700918221e020c", "61e5a33846526d62f1a45589d55e4a14");
    ("D12", false, 15, "d3f0a1b175e8e1779332ead78a364659", "9fd6d78bee38ffeae11ebebf26f833e4");
    ("D13", true, 10, "aeaef4c367c285805e07ce2de2a7a987", "d8344e21234cb98f5b3695038a1b3659");
    ("D13", false, 10, "c8933829e2ba36cb7c72203439505070", "b10aec32f029e3c8765d8f40d6ae9121");
    ("C1", true, 25, "c177504e4ee31cc5a47f7f5b08d3b34e", "cd74a138444d3bc23913900f22da134e");
    ("C1", false, 2, "dfe3809b1474ca59d944bf2cf3e1a48e", "b3210aa0876d51f9fc7152f0bf1dfa4d");
    ("C2", true, 30, "876bee67e397c4ecdc20dd105c04f8eb", "f61aea2a325012a3b4938c17ac58e8ec");
    ("C2", false, 7, "8221dd9719086c972db49d09ad32d779", "63c1595ec459444d9ad2c13f476cd682");
    ("C3", true, 8, "2ea790820d36e05832655125ee0ded7e", "2943d91889d9e4956e79ecf3867746d6");
    ("C3", false, 8, "c6720a1131b52d03c60d30181d6f5db8", "1d7dff2cf299199c359d324fce9fbb05");
    ("C4", true, 20, "719caee9a4ae061e6e7de4fd2b559147", "38c9a2ef889de004d7b345ba9651237e");
    ("C4", false, 20, "97bcd13adddefeae4c5ef67237331454", "38c9a2ef889de004d7b345ba9651237e");
    ("S1", true, 2, "6a890ac2c38f91f80012f56b90c73beb", "f5e03a8772038994f822f7379e75a911");
    ("S1", false, 4, "d1b3ca8270269de209769507b6af4a2c", "4663cbfb36529afa3ec56290ffde028d");
    ("S2", true, 6, "04c4723edb6c9008eb1fef7611bc442e", "76376394266b421a7fa42a60b4c9f57c");
    ("S2", false, 6, "b4ec8eac363d8197ff2a5e345e6e0b17", "2363e3c58f6fc2c93239228d86359080");
    ("S3", true, 8, "e1deb33ca1ff98e6da69ff03ba38883a", "e050eed4f79fb8ca8d70f0b49f3e1796");
    ("S3", false, 8, "333ee13696a2a6d26ba9c47efb79f778", "e050eed4f79fb8ca8d70f0b49f3e1796");
  ]

let vcd_md5 ~kernel ~from bug ~buggy =
  let r =
    Bug.run_design ~vcd:true ~vcd_from:from ~kernel bug
      (Bug.design_of bug ~buggy)
  in
  Digest.to_hex (Digest.string (Option.get r.Bug.vcd))

let pinned_vcd_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " vcd md5 pinned") `Quick (fun () ->
          let rows =
            List.filter (fun (id, _, _, _, _) -> id = bug.Bug.id) pinned_vcds
          in
          check_int "buggy and fixed rows" 2 (List.length rows);
          List.iter
            (fun (_, buggy, mid, from0, from_mid) ->
              List.iter
                (fun kernel ->
                  let tag from =
                    Printf.sprintf "%s %s from %d under %s" bug.Bug.id
                      (if buggy then "buggy" else "fixed")
                      from
                      (Simulator.kernel_name kernel)
                  in
                  Alcotest.(check string) (tag 0) from0
                    (vcd_md5 ~kernel ~from:0 bug ~buggy);
                  Alcotest.(check string) (tag mid) from_mid
                    (vcd_md5 ~kernel ~from:mid bug ~buggy))
                [ Simulator.Lowered_dirty; Simulator.Brute_force ])
            rows))
    all

let suite = suite @ pinned_vcd_tests

(* --- simulator reuse through the free list --------------------------------- *)

module Checkpoint = Fpga_sim.Checkpoint
module Telemetry = Fpga_telemetry.Telemetry
module Trace = Telemetry.Trace

(* A copy of [bug] on fresh copies of its source strings: [design_of]
   parses them into designs of their own, so the copy's first run of
   each design finds the free list cold. *)
let cold_copy (bug : Bug.t) =
  let copy s = Bytes.to_string (Bytes.of_string s) in
  { bug with Bug.buggy_src = copy bug.Bug.buggy_src; fixed_src = copy bug.Bug.fixed_src }

(* A run's report with every checkpoint it emitted, serialized. *)
let run_checkpointed ?from ~kernel bug ~buggy =
  let cks = ref [] in
  let report =
    Bug.run_design ~vcd:true ~kernel ~checkpoint_every:9
      ~on_checkpoint:(fun ck -> cks := Checkpoint.to_string ck :: !cks)
      ?from_checkpoint:from bug (Bug.design_of bug ~buggy)
  in
  (report, List.rev !cks)

let with_telemetry on f =
  if not on then f ()
  else (
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable f)

(* The first two runs of a cold copy build their simulators (the
   first only opens the key's slot); every later run of the same
   design, kernel and telemetry state takes the second's instance back
   and resets it. Each must report what the cold run did, also after a
   run resumed from a checkpoint has used the instance. *)
let reuse_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " warm free list runs like a cold one")
        `Quick (fun () ->
          List.iter
            (fun (buggy, kernel, telemetry) ->
              with_telemetry telemetry @@ fun () ->
              let tag =
                Printf.sprintf "%s %s, %s, telemetry %s" bug.Bug.id
                  (if buggy then "buggy" else "fixed")
                  (Simulator.kernel_name kernel)
                  (if telemetry then "on" else "off")
              in
              let copy = cold_copy bug in
              let ((_, cks) as cold) = run_checkpointed ~kernel copy ~buggy in
              for _ = 1 to 2 do
                if run_checkpointed ~kernel copy ~buggy <> cold then
                  Alcotest.failf "%s: a warm run differs from the cold one" tag
              done;
              match cks with
              | [] -> ()
              | cks ->
                  let from =
                    Checkpoint.of_string (List.nth cks (List.length cks / 2))
                  in
                  let resumed = run_checkpointed ~from ~kernel copy ~buggy in
                  let cold_resumed =
                    run_checkpointed ~from ~kernel (cold_copy bug) ~buggy
                  in
                  if resumed <> cold_resumed then
                    Alcotest.failf "%s: a warm resumed run differs" tag;
                  if run_checkpointed ~kernel copy ~buggy <> cold then
                    Alcotest.failf "%s: the run after a resumed one differs" tag)
            [
              (true, Simulator.Lowered_dirty, false);
              (false, Simulator.Lowered_dirty, false);
              (true, Simulator.Brute_force, false);
              (false, Simulator.Brute_force, false);
              (true, Simulator.Lowered_dirty, true);
              (false, Simulator.Lowered_dirty, true);
              (true, Simulator.Brute_force, true);
              (false, Simulator.Brute_force, true);
            ]))
    all

(* A key's first run keeps nothing; after its second, an instance goes
   back on a normal return and comes out again for the same key. One
   whose run raised, in [with_simulator]'s callback or in a harness
   callback of [run_design], is never handed out again. Keys differ by
   kernel and telemetry state; a miss builds on the flat of an idle
   instance of the same design. A design [design_of] did not return is
   never kept. *)
let test_free_list_rules () =
  let bug = cold_copy (Option.get (Registry.find "D2")) in
  let design = Bug.design_of bug ~buggy:true in
  let take ?kernel () = Bug.with_simulator ?kernel bug design Fun.id in
  let first = take () in
  let s0 = take () in
  check_bool "a key's first run keeps nothing" false (s0 == first);
  check_bool "a normal return puts the instance back" true (take () == s0);
  check_bool "the default kernel is lowered-dirty's key" true
    (take ~kernel:Simulator.Lowered_dirty () == s0);
  let b0 = take ~kernel:Simulator.Brute_force () in
  check_bool "another kernel is another key" false (b0 == s0);
  check_bool "built on the idle instance's flat" true
    (Simulator.flat b0 == Simulator.flat s0);
  check_bool "telemetry on is another key" false
    (with_telemetry true (fun () -> take ()) == s0);
  (match
     Bug.with_simulator bug design (fun sim ->
         Simulator.step sim;
         failwith "callback")
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "the callback's exception is lost");
  let s1 = take () in
  check_bool "an instance whose run raised is dropped" false (s1 == s0);
  let cold = Bug.run_design bug design in
  let raising =
    { bug with
      Bug.sample =
        (fun sim -> if Simulator.cycle sim = 3 then failwith "harness" else None) }
  in
  (match Bug.run_design raising design with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the harness exception is lost");
  check_bool "so is one whose harness raised" false (take () == s1);
  check_bool "the next run is unaffected" true (Bug.run_design bug design = cold);
  let own = Fpga_hdl.Parser.parse_design bug.Bug.buggy_src in
  let own_run () = Bug.with_simulator bug own Fun.id in
  let o1 = own_run () and o2 = own_run () in
  check_bool "a caller's own design is never kept" false
    (own_run () == o1 || own_run () == o2)

(* What a campaign pass runs per bug: repro, differential, replay and
   bisection. Traced on the virtual clock, the first pass over a cold
   copy and a second, warm pass export the same bytes and record the
   same spans ("compile" included) and counters. *)
let traced_pass (bug : Bug.t) =
  Trace.enable ~clock:Trace.Virtual ();
  Telemetry.enable ();
  Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.disable ();
      Trace.disable ())
    (fun () ->
      let buggy = Bug.design_of bug ~buggy:true in
      ignore (Bug.run_design ~vcd:true bug buggy);
      ignore (Bug.run_design bug (Bug.design_of bug ~buggy:false));
      ignore (Bug.run_design ~kernel:Simulator.Brute_force bug buggy);
      let rc = Replay.record ~every:16 bug in
      List.iter
        (fun from -> ignore (Replay.replay ~from bug))
        rc.Replay.rec_checkpoints;
      ignore (Replay.bisect ~every:16 bug);
      let r = Telemetry.report () in
      let calls = List.map (fun (name, n, _) -> (name, n)) r.Telemetry.r_spans in
      let main = Trace.capture_all () in
      ( Fpga_telemetry.Trace_export.to_json ~clock:Trace.Virtual ~main ~jobs:[] (),
        calls,
        r.Telemetry.r_counters ))

let test_trace_invisible () =
  List.iter
    (fun (bug : Bug.t) ->
      let copy = cold_copy bug in
      let cold_json, cold_calls, cold_counters = traced_pass copy in
      let warm_json, warm_calls, warm_counters = traced_pass copy in
      let compiles calls = Option.value (List.assoc_opt "compile" calls) ~default:0 in
      check_bool (bug.Bug.id ^ ": compile spans recorded") true
        (compiles cold_calls > 0);
      check_int (bug.Bug.id ^ ": compile spans, cold vs warm")
        (compiles cold_calls) (compiles warm_calls);
      check_bool (bug.Bug.id ^ ": span calls, cold vs warm") true
        (cold_calls = warm_calls);
      check_bool (bug.Bug.id ^ ": counters, cold vs warm") true
        (cold_counters = warm_counters);
      Alcotest.(check string)
        (bug.Bug.id ^ ": virtual trace, cold vs warm")
        cold_json warm_json)
    all

let suite =
  suite @ reuse_tests
  @ [
      Alcotest.test_case "free list: keys, returns and raised runs" `Quick
        test_free_list_rules;
      Alcotest.test_case "free list: cold and warm traces identical" `Quick
        test_trace_invisible;
    ]

(* --- instrumented designs under both kernels ------------------------------ *)

(* Run [design] for up to 2000 cycles of the bug's stimulus under
   [kernel], telemetry on so toggles are counted: the top's outputs
   after every cycle, the log, the recording buffer (when the design
   has one) and the toggle counts. *)
let instrumented_run ~kernel (bug : Bug.t) design =
  let module Telemetry = Fpga_telemetry.Telemetry in
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let flat = Fpga_sim.Elaborate.elaborate design ~top:bug.Bug.top in
  let sim = Simulator.create ~kernel flat in
  let top = Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top) in
  let outputs =
    List.filter_map
      (fun (p : Fpga_hdl.Ast.port) ->
        if p.Fpga_hdl.Ast.dir = Fpga_hdl.Ast.Output then Some p.Fpga_hdl.Ast.port_name
        else None)
      top.Fpga_hdl.Ast.ports
  in
  let rows = ref [] in
  let c = ref 0 in
  while !c < 2000 && not (Simulator.finished sim) do
    List.iter (fun (n, v) -> Simulator.set_input sim n v) (bug.Bug.stimulus !c);
    Simulator.step sim;
    rows :=
      List.map (fun n -> Fpga_bits.Bits.to_hex_string (Simulator.read sim n)) outputs
      :: !rows;
    incr c
  done;
  let buffer =
    if Hashtbl.mem flat.Fpga_sim.Elaborate.f_signals "_sc_buf" then
      Some (Simulator.read_memory sim "_sc_buf")
    else None
  in
  (List.rev !rows, Simulator.log sim, buffer, Simulator.toggle_counts sim)

(* The debug recipe's designs, with the monitors' displays and with
   them compiled into SignalCat recording logic, are where lowered-dirty
   skips most sequential work. They must run exactly as under brute
   force for 2000 cycles: outputs every cycle, log, recording buffer
   and toggle counts. *)
let instrumented_kernel_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " instrumented designs: lowered == brute")
        `Quick (fun () ->
          let r = Fpga_testbed.Recipe.apply ~buffer_depth:2048 bug in
          let design = Bug.design_of bug ~buggy:true in
          List.iter
            (fun (what, m) ->
              let design = substitute design m in
              let lr, ll, lb, lt =
                instrumented_run ~kernel:Simulator.Lowered_dirty bug design
              in
              let br, bl, bb, bt =
                instrumented_run ~kernel:Simulator.Brute_force bug design
              in
              let tag part = Printf.sprintf "%s %s: %s" bug.Bug.id what part in
              check_bool (tag "records into a buffer") (what = "on FPGA") (lb <> None);
              check_bool (tag "outputs every cycle") true (lr = br);
              check_bool (tag "log") true (ll = bl);
              check_bool (tag "recording buffer") true
                (Option.map (Array.map Fpga_bits.Bits.to_hex_string) lb
                = Option.map (Array.map Fpga_bits.Bits.to_hex_string) bb);
              check_bool (tag "toggle counts") true (lt = bt))
            [
              ("with monitors", r.Fpga_testbed.Recipe.with_monitors);
              ("on FPGA", r.Fpga_testbed.Recipe.on_fpga);
            ]))
    all

let suite = suite @ instrumented_kernel_tests

(* --- pinned lowering shape and run counters --------------------------- *)

(* What the lowered kernel builds for every Table 2 design, buggy and
   fixed, and what it counts over 200 cycles of the bug's stimulus:
   how nodes fuse into closures, which banks hold the signals, and how
   much each settle and edge runs and skips. A change to the scheduling
   analysis (read sets, sensitivity, fusion, statement groups) moves
   these first. *)
let pinned_kernel_stats = [
  ("D1", true,
    "closures 1 fused 0 imm 18 boxed 1 seq 1",
    "steps 200 settles 400 run 2 skipped 398 min 0 max 1 dirty 2/1 edges 200 seq 29/171 commits 138/12 displays 0");
  ("D1", false,
    "closures 1 fused 0 imm 18 boxed 1 seq 1",
    "steps 200 settles 400 run 4 skipped 396 min 0 max 1 dirty 4/1 edges 200 seq 41/159 commits 197/12 displays 0");
  ("D2", true,
    "closures 3 fused 0 imm 18 boxed 1 seq 1",
    "steps 200 settles 400 run 30 skipped 1170 min 0 max 3 dirty 30/3 edges 200 seq 38/162 commits 138/24 displays 0");
  ("D2", false,
    "closures 3 fused 0 imm 18 boxed 1 seq 1",
    "steps 200 settles 400 run 31 skipped 1169 min 0 max 3 dirty 31/3 edges 200 seq 54/146 commits 237/24 displays 0");
  ("D3", true,
    "closures 1 fused 0 imm 18 boxed 1 seq 1",
    "steps 200 settles 400 run 9 skipped 391 min 0 max 1 dirty 9/1 edges 200 seq 200/0 commits 654/8 displays 0");
  ("D3", false,
    "closures 1 fused 0 imm 18 boxed 1 seq 1",
    "steps 200 settles 400 run 15 skipped 385 min 0 max 1 dirty 15/1 edges 200 seq 200/0 commits 674/8 displays 0");
  ("D4", true,
    "closures 0 fused 0 imm 11 boxed 1 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 30/170 commits 67/20 displays 0");
  ("D4", false,
    "closures 0 fused 0 imm 11 boxed 1 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 46/154 commits 131/20 displays 0");
  ("D5", true,
    "closures 1 fused 0 imm 9 boxed 5 seq 1",
    "steps 200 settles 400 run 5 skipped 395 min 0 max 1 dirty 5/1 edges 200 seq 16/184 commits 33/20 displays 0");
  ("D5", false,
    "closures 1 fused 0 imm 9 boxed 5 seq 1",
    "steps 200 settles 400 run 5 skipped 395 min 0 max 1 dirty 5/1 edges 200 seq 16/184 commits 33/20 displays 0");
  ("D6", true,
    "closures 0 fused 0 imm 12 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 9/191 commits 38/0 displays 0");
  ("D6", false,
    "closures 0 fused 0 imm 12 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 9/191 commits 38/0 displays 0");
  ("D7", true,
    "closures 0 fused 0 imm 15 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 15/185 commits 69/0 displays 0");
  ("D7", false,
    "closures 0 fused 0 imm 15 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 15/185 commits 69/0 displays 0");
  ("D8", true,
    "closures 0 fused 0 imm 8 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 8/192 commits 20/0 displays 0");
  ("D8", false,
    "closures 0 fused 0 imm 8 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 8/192 commits 20/0 displays 0");
  ("D9", true,
    "closures 1 fused 0 imm 10 boxed 0 seq 1",
    "steps 200 settles 400 run 5 skipped 395 min 0 max 1 dirty 5/1 edges 200 seq 9/191 commits 33/0 displays 0");
  ("D9", false,
    "closures 1 fused 0 imm 10 boxed 0 seq 1",
    "steps 200 settles 400 run 5 skipped 395 min 0 max 1 dirty 5/1 edges 200 seq 9/191 commits 33/0 displays 0");
  ("D10", true,
    "closures 1 fused 0 imm 9 boxed 5 seq 1",
    "steps 200 settles 400 run 9 skipped 391 min 0 max 1 dirty 9/1 edges 200 seq 30/170 commits 62/37 displays 0");
  ("D10", false,
    "closures 1 fused 0 imm 9 boxed 5 seq 1",
    "steps 200 settles 400 run 9 skipped 391 min 0 max 1 dirty 9/1 edges 200 seq 30/170 commits 62/39 displays 0");
  ("D11", true,
    "closures 0 fused 0 imm 16 boxed 1 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 20/180 commits 89/5 displays 0");
  ("D11", false,
    "closures 0 fused 0 imm 16 boxed 1 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 26/174 commits 122/9 displays 0");
  ("D12", true,
    "closures 0 fused 0 imm 11 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 11/189 commits 28/0 displays 0");
  ("D12", false,
    "closures 0 fused 0 imm 11 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 11/189 commits 32/0 displays 0");
  ("D13", true,
    "closures 0 fused 0 imm 8 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 14/186 commits 36/0 displays 0");
  ("D13", false,
    "closures 0 fused 0 imm 8 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 14/186 commits 38/0 displays 0");
  ("C1", true,
    "closures 2 fused 0 imm 10 boxed 0 seq 1",
    "steps 200 settles 400 run 3 skipped 797 min 0 max 2 dirty 3/2 edges 200 seq 4/196 commits 6/0 displays 0");
  ("C1", false,
    "closures 2 fused 0 imm 10 boxed 0 seq 1",
    "steps 200 settles 400 run 7 skipped 793 min 0 max 2 dirty 7/2 edges 200 seq 7/193 commits 16/0 displays 0");
  ("C2", true,
    "closures 1 fused 0 imm 17 boxed 0 seq 1",
    "steps 200 settles 400 run 16 skipped 384 min 0 max 1 dirty 16/1 edges 200 seq 14/186 commits 46/0 displays 0");
  ("C2", false,
    "closures 1 fused 0 imm 19 boxed 0 seq 1",
    "steps 200 settles 400 run 16 skipped 384 min 0 max 1 dirty 16/1 edges 200 seq 14/186 commits 51/0 displays 0");
  ("C3", true,
    "closures 0 fused 0 imm 7 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 8/192 commits 17/0 displays 0");
  ("C3", false,
    "closures 0 fused 0 imm 8 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 10/190 commits 30/0 displays 0");
  ("C4", true,
    "closures 1 fused 0 imm 13 boxed 0 seq 1",
    "steps 200 settles 400 run 3 skipped 397 min 0 max 1 dirty 3/1 edges 200 seq 11/189 commits 25/0 displays 0");
  ("C4", false,
    "closures 1 fused 0 imm 13 boxed 0 seq 1",
    "steps 200 settles 400 run 9 skipped 391 min 0 max 1 dirty 9/1 edges 200 seq 11/189 commits 37/0 displays 0");
  ("S1", true,
    "closures 2 fused 0 imm 13 boxed 0 seq 1",
    "steps 200 settles 400 run 5 skipped 795 min 0 max 2 dirty 5/2 edges 200 seq 7/193 commits 12/0 displays 0");
  ("S1", false,
    "closures 2 fused 0 imm 13 boxed 0 seq 1",
    "steps 200 settles 400 run 6 skipped 794 min 0 max 2 dirty 6/2 edges 200 seq 8/192 commits 12/0 displays 0");
  ("S2", true,
    "closures 0 fused 0 imm 9 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 200/0 commits 410/0 displays 0");
  ("S2", false,
    "closures 0 fused 0 imm 9 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 86/114 commits 26/0 displays 0");
  ("S3", true,
    "closures 0 fused 0 imm 10 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 9/191 commits 37/0 displays 0");
  ("S3", false,
    "closures 0 fused 0 imm 10 boxed 0 seq 1",
    "steps 200 settles 400 run 0 skipped 0 min 0 max 0 dirty 0/0 edges 200 seq 9/191 commits 37/0 displays 0");
]

let kernel_stats_row (bug : Bug.t) ~buggy =
  let flat =
    Fpga_sim.Elaborate.elaborate (Bug.design_of bug ~buggy) ~top:bug.Bug.top
  in
  let sim = Simulator.create ~kernel:Simulator.Lowered_dirty flat in
  let i = ref 0 in
  while !i < 200 && not (Simulator.finished sim) do
    List.iter (fun (n, v) -> Simulator.set_input sim n v) (bug.Bug.stimulus !i);
    Simulator.step sim;
    incr i
  done;
  let lw = Option.get (Simulator.lowering_stats sim) in
  let r = Simulator.stats sim in
  let open Fpga_sim.Lowered in
  ( Printf.sprintf "closures %d fused %d imm %d boxed %d seq %d" lw.lw_closures
      lw.lw_fused lw.lw_imm lw.lw_boxed lw.lw_seq,
    Printf.sprintf
      "steps %d settles %d run %d skipped %d min %d max %d dirty %d/%d edges \
       %d seq %d/%d commits %d/%d displays %d"
      r.rs_steps r.rs_settles r.rs_closures_run r.rs_closures_skipped
      r.rs_run_min r.rs_run_max r.rs_dirty_total r.rs_dirty_peak r.rs_edges
      r.rs_seq_run r.rs_seq_skipped r.rs_commit_imm r.rs_commit_boxed
      r.rs_displays )

let test_kernel_stats_pinned () =
  List.iter
    (fun (bug : Bug.t) ->
      List.iter
        (fun buggy ->
          let tag =
            Printf.sprintf "%s %s" bug.Bug.id (if buggy then "buggy" else "fixed")
          in
          let shape, runs = kernel_stats_row bug ~buggy in
          match
            List.find_opt (fun (id, b, _, _) -> id = bug.Bug.id && b = buggy)
              pinned_kernel_stats
          with
          | None -> Alcotest.failf "%s: no pinned row (%S, %S)" tag shape runs
          | Some (_, _, s, r) ->
              Alcotest.(check string) (tag ^ " lowering") s shape;
              Alcotest.(check string) (tag ^ " 200-cycle stats") r runs)
        [ true; false ])
    all

let suite =
  suite
  @ [
      Alcotest.test_case "lowering and run counters pinned" `Quick
        test_kernel_stats_pinned;
    ]

(* --- static analyses pinned ------------------------------------------------- *)

(* Every bug's LossCheck plan (relations printed [src ~>[cond] dst] as
   examples/fifo_data_loss.ml prints them, the instrumented registers
   and memories, the lines of checking logic) and Dependency Monitor
   chain (name-level and slice-precise, 8 cycles), compared with
   analyses.expected. On a mismatch the rendering is written to
   analyses.actual next to it. *)
let render_analyses () =
  let b = Buffer.create 16384 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  List.iter
    (fun (bug : Bug.t) ->
      let design = Bug.design_of bug ~buggy:true in
      let m = Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top) in
      line "== %s" bug.Bug.id;
      (match bug.Bug.loss_spec with
      | None -> ()
      | Some spec ->
          let open Fpga_debug.Losscheck in
          let plan = analyze ~design spec m in
          List.iter
            (fun r ->
              line "losscheck %s ~>[%s] %s" r.src
                (Fpga_hdl.Pp_verilog.expr_str r.cond)
                r.dst)
            plan.relations;
          line "losscheck scalar_checks %s" (String.concat " " plan.scalar_checks);
          line "losscheck memory_checks %s" (String.concat " " plan.memory_checks);
          line "losscheck generated_loc %d"
            (Fpga_debug.Instrument.added_loc ~before:m ~after:(instrument plan m)));
      match bug.Bug.dep_target with
      | None -> ()
      | Some target ->
          List.iter
            (fun slice_precise ->
              let plan =
                Fpga_debug.Dep_monitor.analyze ~design ~slice_precise ~target
                  ~cycles:8 m
              in
              line "deps%s %s: %s"
                (if slice_precise then " --slices" else "")
                target
                (String.concat " " plan.Fpga_debug.Dep_monitor.chain))
            [ false; true ])
    Registry.all_with_extended;
  Buffer.contents b

let test_analyses_pinned () =
  let expected = In_channel.with_open_bin "analyses.expected" In_channel.input_all in
  let actual = render_analyses () in
  if actual <> expected then (
    Out_channel.with_open_bin "analyses.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.fail
      "static analyses differ from analyses.expected (rendering written to \
       analyses.actual)")

let suite =
  suite
  @ [ Alcotest.test_case "static analyses pinned" `Quick test_analyses_pinned ]

(* --- tabulated stimuli against their closures ---------------------------- *)

(* Drive [design] with [stimulus] for [cycles] cycles under [kernel],
   telemetry on so toggles are counted: per cycle the top's outputs and
   the toggle counts, then the log and the run counters. *)
let stimulus_run ~kernel ~cycles (bug : Bug.t) design stimulus =
  let module Telemetry = Fpga_telemetry.Telemetry in
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let sim =
    Simulator.create ~kernel (Fpga_sim.Elaborate.elaborate design ~top:bug.Bug.top)
  in
  let top = Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top) in
  let outputs =
    List.filter_map
      (fun (p : Fpga_hdl.Ast.port) ->
        if p.Fpga_hdl.Ast.dir = Fpga_hdl.Ast.Output then
          Some p.Fpga_hdl.Ast.port_name
        else None)
      top.Fpga_hdl.Ast.ports
  in
  let per_cycle = ref [] in
  let c = ref 0 in
  while !c < cycles && not (Simulator.finished sim) do
    List.iter (fun (n, v) -> Simulator.set_input sim n v) (stimulus !c);
    Simulator.step sim;
    per_cycle :=
      ( List.map
          (fun n -> Fpga_bits.Bits.to_hex_string (Simulator.read sim n))
          outputs,
        Simulator.toggle_counts sim )
      :: !per_cycle;
    incr c
  done;
  (List.rev !per_cycle, Simulator.log sim, Simulator.stats sim)

(* Every registry stimulus, the bug's own and each ground-truth one, run
   50 cycles past its budget and past the table's first block on the
   buggy and the fixed design under both kernels, must drive the design
   exactly as the closure it was tabulated from: outputs and toggles
   every cycle, log and counters. *)
let tabulated_tests =
  List.map2
    (fun (bug : Bug.t) (closure : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " tabulated stimuli run as closures")
        `Quick (fun () ->
          check_bool "same bug" true (bug.Bug.id = closure.Bug.id);
          let stimuli =
            ("stimulus", bug.Bug.max_cycles, bug.Bug.stimulus, closure.Bug.stimulus)
            :: List.mapi
                 (fun i ((table, budget), (f, _)) ->
                   (Printf.sprintf "ground truth %d" i, budget, table, f))
                 (List.combine bug.Bug.ground_truth closure.Bug.ground_truth)
          in
          List.iter
            (fun (what, budget, table, f) ->
              List.iter
                (fun (buggy, kernel) ->
                  let run =
                    stimulus_run ~kernel
                      ~cycles:(max budget Fpga_sim.Testbench.table_block + 50)
                      bug
                      (Bug.design_of bug ~buggy)
                  in
                  check_bool
                    (Printf.sprintf "%s %s %s %s" bug.Bug.id what
                       (if buggy then "buggy" else "fixed")
                       (Simulator.kernel_name kernel))
                    true
                    (run table = run f))
                [
                  (true, Simulator.Lowered_dirty); (true, Simulator.Brute_force);
                  (false, Simulator.Lowered_dirty); (false, Simulator.Brute_force);
                ])
            stimuli))
    Registry.all_with_extended Registry.untabulated

(* A tabulated row leaves out re-sets of an unchanged input, which is
   exact only for inputs: a stimulus that forced an internal signal
   would be overwritten by the design between its re-sets. So every
   name a registry stimulus binds is an input port of the top in the
   buggy, the fixed and the recipe's on-FPGA design. *)
let test_stimuli_bind_inputs () =
  List.iter
    (fun (bug : Bug.t) ->
      let inputs (m : Fpga_hdl.Ast.module_def) =
        List.filter_map
          (fun (p : Fpga_hdl.Ast.port) ->
            if p.Fpga_hdl.Ast.dir = Fpga_hdl.Ast.Input then
              Some p.Fpga_hdl.Ast.port_name
            else None)
          m.Fpga_hdl.Ast.ports
      in
      let top buggy =
        Option.get (Fpga_hdl.Ast.find_module (Bug.design_of bug ~buggy) bug.Bug.top)
      in
      let designs =
        [
          ("buggy", inputs (top true));
          ("fixed", inputs (top false));
          ("on FPGA", inputs (Recipe.apply bug).Recipe.on_fpga);
        ]
      in
      List.iter
        (fun (stimulus, budget) ->
          for c = 0 to budget + 49 do
            List.iter
              (fun (n, _) ->
                List.iter
                  (fun (what, ins) ->
                    if not (List.mem n ins) then
                      Alcotest.failf "%s: %s at cycle %d is not an input of the %s top"
                        bug.Bug.id n c what)
                  designs)
              (stimulus c)
          done)
        ((bug.Bug.stimulus, bug.Bug.max_cycles) :: bug.Bug.ground_truth))
    Registry.all_with_extended

let suite =
  suite @ tabulated_tests
  @ [
      Alcotest.test_case "registry stimuli bind only input ports" `Quick
        test_stimuli_bind_inputs;
    ]
