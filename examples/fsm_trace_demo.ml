(* FSM Monitor on a deadlocked controller (the testbed's C1): the trace
   shows both engines parked in their waiting states, and the dependency
   analysis exposes the circular control dependency - the hardware
   analog of a lock cycle.

   Run with:  dune exec examples/fsm_trace_demo.exe *)

module Bug = Fpga_testbed.Bug
module Session = Fpga_testbed.Session
module Fsm_monitor = Fpga_debug.Fsm_monitor
module Deps = Fpga_analysis.Deps

let bug = Fpga_testbed.App_sdspi.c1

let () =
  print_endline "== Symptom ==";
  let report = Bug.run bug ~buggy:true in
  Printf.printf "transfer never completes within %d cycles (stuck = %b)\n"
    bug.Bug.max_cycles report.Bug.stuck;

  print_endline "\n== FSM Monitor ==";
  let v =
    Session.run
      { Session.none with fsm = Some { extra = []; exclude = [] } }
      bug (Bug.design_of bug ~buggy:true)
  in
  let plan = Option.get v.Session.session.Session.fsm_plan in
  let transitions = v.Session.transitions in
  if transitions = [] then
    print_endline "no state transitions at all - both FSMs are parked:";
  List.iter
    (fun tr -> print_endline ("  " ^ Fsm_monitor.transition_to_string tr))
    transitions;
  List.iter
    (fun (f : Fpga_analysis.Fsm_detect.fsm) ->
      Printf.printf "  %s: %d named states\n" f.Fpga_analysis.Fsm_detect.state_var
        (List.length f.Fpga_analysis.Fsm_detect.state_names))
    plan.Fsm_monitor.fsms;

  print_endline "\n== Dependency analysis: the circular wait ==";
  let g = Deps.of_module v.Session.session.Session.baseline in
  let cycles = Deps.control_cycles g in
  List.iter
    (fun cycle ->
      Printf.printf "  control cycle: %s -> (back to start)\n"
        (String.concat " -> " cycle))
    cycles;
  print_endline
    "-> cmd waits for data_idle, data raises data_idle only after \
     cmd_active: initialize data_idle at reset to break the cycle";

  print_endline "\n== After the fix ==";
  let fixed = Bug.run bug ~buggy:false in
  Printf.printf "fixed design completes: stuck = %b\n" fixed.Bug.stuck
