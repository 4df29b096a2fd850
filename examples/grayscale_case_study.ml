(* The debugging walkthrough of section 6.3, replayed on the testbed's
   D2 (Grayscale buffer overflow):

     1. the software side reports a hang,
     2. FSM Monitor shows the read FSM finished while the write FSM is
        stuck in WR_DATA, pointing at write-side data loss,
     3. Statistics Monitor confirms fewer pixels left than entered,
     4. LossCheck pinpoints the line buffer as the loss location.

   Run with:  dune exec examples/grayscale_case_study.exe *)

module Bug = Fpga_testbed.Bug
module Session = Fpga_testbed.Session
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

  (* one session: use case 1's monitors (FSM, Statistics on the pixel
     valids, Dependency) built into one design and run once, plus
     LossCheck *)
  let v =
    Session.run
      { (Session.recipe bug) with loss = bug.Bug.loss_spec }
      bug (Bug.design_of bug ~buggy:true)
  in

  print_endline "\n== Step 1: FSM Monitor ==";
  let fsm_plan = Option.get v.Session.session.Session.fsm_plan in
  Printf.printf "detected FSMs: %s\n"
    (String.concat ", "
       (List.map
          (fun f -> f.Fpga_analysis.Fsm_detect.state_var)
          fsm_plan.Fsm_monitor.fsms));
  List.iter
    (fun tr -> print_endline ("  " ^ Fsm_monitor.transition_to_string tr))
    v.Session.transitions;
  List.iter
    (fun (var, state) -> Printf.printf "final state of %s: %s\n" var state)
    v.Session.final_states;
  print_endline
    "-> the read FSM reached RD_FINISH but the write FSM never left \
     WR_DATA: the hang is in write-related logic";

  print_endline "\n== Step 2: Statistics Monitor ==";
  let counts = v.Session.counts in
  List.iter (fun (name, n) -> Printf.printf "  %s = %d\n" name n) counts;
  (match Stat_monitor.check_balance counts ~producer:"pixels_in" ~consumer:"pixels_out" with
  | Some a -> print_endline ("-> " ^ Stat_monitor.anomaly_to_string a)
  | None -> print_endline "-> no anomaly (unexpected)");

  print_endline "\n== Step 3: LossCheck ==";
  let result = Option.get v.Session.loss in
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
