(* The debugging walkthrough of section 6.3, replayed on the testbed's
   D2 (Grayscale buffer overflow):

     1. the software side reports a hang,
     2. FSM Monitor shows the read FSM finished while the write FSM is
        stuck in WR_DATA, pointing at write-side data loss,
     3. Statistics Monitor confirms fewer pixels left than entered,
     4. LossCheck pinpoints the line buffer as the loss location.

   Run with:  dune exec examples/grayscale_case_study.exe *)

module Ast = Fpga_hdl.Ast
module Bug = Fpga_testbed.Bug
module Fsm_monitor = Fpga_debug.Fsm_monitor
module Stat_monitor = Fpga_debug.Stat_monitor
module Losscheck = Fpga_debug.Losscheck

let bug = Fpga_testbed.App_grayscale.bug

let () =
  print_endline "== Step 0: the symptom ==";
  let report = Bug.run bug ~buggy:true in
  Printf.printf
    "the acceleration task hangs: completion never observed in %d cycles \
     (stuck = %b), %d gray pixels were produced\n"
    bug.Bug.max_cycles report.Bug.stuck
    (List.length report.Bug.rows);

  print_endline "\n== Step 1: FSM Monitor ==";
  let design = Bug.design_of bug ~buggy:true in
  let m = Option.get (Ast.find_module design bug.Bug.top) in
  let fsm_plan = Fsm_monitor.plan m in
  Printf.printf "detected FSMs: %s\n"
    (String.concat ", "
       (List.map
          (fun f -> f.Fpga_analysis.Fsm_detect.state_var)
          fsm_plan.Fsm_monitor.fsms));
  let monitored = Fsm_monitor.instrument fsm_plan m in
  let report1 = Bug.run_design bug { Ast.modules = [ monitored ] } in
  List.iter
    (fun tr -> print_endline ("  " ^ Fsm_monitor.transition_to_string tr))
    (Fsm_monitor.transitions fsm_plan report1.Bug.log);
  List.iter
    (fun (var, state) -> Printf.printf "final state of %s: %s\n" var state)
    (Fsm_monitor.final_states fsm_plan report1.Bug.log);
  print_endline
    "-> the read FSM reached RD_FINISH but the write FSM never left \
     WR_DATA: the hang is in write-related logic";

  print_endline "\n== Step 2: Statistics Monitor ==";
  let events =
    [
      { Stat_monitor.event_name = "pixels_in"; trigger = Ast.Ident "in_valid" };
      { Stat_monitor.event_name = "pixels_out"; trigger = Ast.Ident "out_valid" };
    ]
  in
  let stat_plan = Stat_monitor.plan m events in
  let counted = Stat_monitor.instrument stat_plan m in
  let sim = Fpga_sim.Testbench.of_design ~top:bug.Bug.top { Ast.modules = [ counted ] } in
  let _ = Fpga_sim.Testbench.run ~max_cycles:bug.Bug.max_cycles sim bug.Bug.stimulus in
  let counts = Stat_monitor.counts stat_plan sim in
  List.iter (fun (name, n) -> Printf.printf "  %s = %d\n" name n) counts;
  (match Stat_monitor.check_balance counts ~producer:"pixels_in" ~consumer:"pixels_out" with
  | Some a -> print_endline ("-> " ^ Stat_monitor.anomaly_to_string a)
  | None -> print_endline "-> no anomaly (unexpected)");

  print_endline "\n== Step 3: LossCheck ==";
  let spec = Option.get bug.Bug.loss_spec in
  let result =
    Losscheck.localize ~ground_truth:bug.Bug.ground_truth
      ~max_cycles:bug.Bug.max_cycles ~top:bug.Bug.top ~spec
      ~stimulus:bug.Bug.stimulus design
  in
  Printf.printf "LossCheck generated %d lines of checking logic\n"
    (Losscheck.generated_loc result);
  List.iter
    (fun reg -> Printf.printf "-> potential data loss at register: %s\n" reg)
    result.Losscheck.reported;

  print_endline "\n== Step 4: the fix ==";
  print_endline
    "enlarging the line buffer (the upstream patch) makes the same \
     stimulus complete:";
  let fixed = Bug.run bug ~buggy:false in
  Printf.printf "fixed design: stuck = %b, %d pixels delivered\n"
    fixed.Bug.stuck
    (List.length fixed.Bug.rows)
