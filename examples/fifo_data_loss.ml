(* LossCheck on a FIFO output stage built around the scfifo IP (the
   testbed's C4): under downstream backpressure the skid register is
   overwritten before its word is consumed. This example shows the
   tool's raw pieces: the propagation-relation table, the generated
   shadow logic, and the final localization.

   Run with:  dune exec examples/fifo_data_loss.exe
   It exits 1 unless LossCheck reports the bug's [loss_root]. *)

module Ast = Fpga_hdl.Ast
module Pp = Fpga_hdl.Pp_verilog
module Bug = Fpga_testbed.Bug
module Session = Fpga_testbed.Session
module Losscheck = Fpga_debug.Losscheck

let bug = Fpga_testbed.App_axis_fifo.bug

let () =
  let design = Bug.design_of bug ~buggy:true in
  let m = Session.top bug design in
  let spec = Option.get bug.Bug.loss_spec in

  print_endline "== The design under suspicion ==";
  print_string (Pp.module_to_string m);

  print_endline "\n== Static analysis: propagation relations ==";
  let plan = Losscheck.analyze spec m in
  List.iter
    (fun (r : Losscheck.relation) ->
      Printf.printf "  %s ~>[%s] %s\n" r.Losscheck.src
        (Pp.expr_str r.Losscheck.cond)
        r.Losscheck.dst)
    plan.Losscheck.relations;
  Printf.printf "registers on the source->sink sequence: %s\n"
    (String.concat ", "
       (plan.Losscheck.scalar_checks @ plan.Losscheck.memory_checks));

  print_endline "\n== Generated shadow logic (A/V/P/N of section 4.5.2) ==";
  let instrumented = Losscheck.instrument plan m in
  let added =
    Fpga_debug.Instrument.added_loc ~before:m ~after:instrumented
  in
  Printf.printf "%d lines of checking logic inserted\n" added;

  print_endline "\n== Dynamic analysis ==";
  let result =
    Option.get
      (Session.run { Session.none with loss = Some spec } bug design)
        .Session.loss
  in
  List.iter
    (fun (cycle, reg) ->
      Printf.printf "  cycle %3d: potential data loss at %s\n" cycle reg)
    result.Losscheck.raw_alarms;
  Printf.printf "localized loss register(s): %s\n"
    (String.concat ", " result.Losscheck.reported);

  print_endline "\n== Cross-check with the fix ==";
  let fixed = Bug.run bug ~buggy:false and buggy = Bug.run bug ~buggy:true in
  Printf.printf
    "buggy design delivered %d words, fixed design delivered %d\n"
    (List.length buggy.Bug.rows)
    (List.length fixed.Bug.rows);

  (* a wrong localization fails the run, not only a crash *)
  let expected = Option.get bug.Bug.loss_root in
  if not (List.mem expected result.Losscheck.reported) then (
    Printf.eprintf "LossCheck did not report the expected register %s\n"
      expected;
    exit 1)
