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
            (r.Fpga_debug.Losscheck.generated_loc > 0)))
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

let kernels =
  [ Simulator.Event_driven; Simulator.Brute_force; Simulator.Lowered_dirty ]

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

let suite =
  suite
  @ [
      Alcotest.test_case "recorder allocation ceiling" `Quick
        test_recorder_allocation;
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
