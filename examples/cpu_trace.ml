(* Tracing a program on the reduced CPU core with SignalCat trigger
   windows: full instruction traces are too big for on-chip buffers, so
   the recorder arms only around the region of interest - exactly how
   SignalTap/ILA sessions are set up in practice, here expressed as
   start/stop expressions over design state.

   The buggy core (E7) loses the PC carry on branches taken above
   address 128; the windowed trace shows execution veering into low
   memory right after the branch.

   Run with:  dune exec examples/cpu_trace.exe *)

module Ast = Fpga_hdl.Ast
module Bug = Fpga_testbed.Bug
module Signalcat = Fpga_debug.Signalcat

let bug = Fpga_testbed.App_cpu.e7

(* Add a retirement trace to the core: one $display per executed
   instruction. *)
let with_trace (m : Ast.module_def) : Ast.module_def =
  let trace_block =
    {
      Ast.sens = Ast.Posedge "clk";
      stmts =
        [
          Ast.If
            ( Ast.and_expr (Ast.Ident "running") (Ast.not_expr (Ast.Ident "halted")),
              [
                Ast.Display
                  ("[TRACE] pc=%d op=%d", [ Ast.Ident "pc"; Ast.Ident "opcode" ]);
              ],
              [] );
        ];
    }
  in
  { m with Ast.always_blocks = m.Ast.always_blocks @ [ trace_block ] }

let () =
  let design = Bug.design_of bug ~buggy:true in
  let m = Option.get (Ast.find_module design bug.Bug.top) in
  let traced = with_trace m in
  let design' = Ast.replace_module design m traced in

  print_endline "== Full simulation trace (too big for an on-chip buffer) ==";
  let full =
    Signalcat.run_and_log ~max_cycles:bug.Bug.max_cycles
      ~mode:Signalcat.Simulation ~top:bug.Bug.top design' bug.Bug.stimulus
  in
  Printf.printf "%d retirement events in total\n" (List.length full);

  print_endline
    "\n== Windowed on-FPGA trace: arm when the PC crosses 128, keep 4 \
     post-trigger entries after it falls back below 64 ==";
  let trigger =
    {
      Signalcat.start =
        Some (Ast.Binop (Ast.Ge, Ast.Ident "pc", Fpga_hdl.Builder.const ~width:8 128));
      stop =
        Some (Ast.Binop (Ast.Lt, Ast.Ident "pc", Fpga_hdl.Builder.const ~width:8 64));
      post = 4;
    }
  in
  let windowed =
    Signalcat.run_and_log ~buffer_depth:64 ~trigger ~max_cycles:bug.Bug.max_cycles
      ~mode:Signalcat.On_fpga ~top:bug.Bug.top design' bug.Bug.stimulus
  in
  List.iter (fun (c, t) -> Printf.printf "  [cycle %3d] %s\n" c t) windowed;
  Printf.printf "%d events captured with a 64-entry buffer\n"
    (List.length windowed);
  print_endline
    "-> after the branch at pc=130 the trace continues at pc=6: the \
     branch target lost the PC's top bit (bug E7)";

  print_endline "\n== The fixed core, same window ==";
  let fixed_design = Bug.design_of bug ~buggy:false in
  let fm = Option.get (Ast.find_module fixed_design bug.Bug.top) in
  let fixed_traced = with_trace fm in
  let fixed' =
    { Ast.modules =
        List.map (fun x -> if x == fm then fixed_traced else x) fixed_design.Ast.modules }
  in
  let fixed_window =
    Signalcat.run_and_log ~buffer_depth:64 ~trigger ~max_cycles:bug.Bug.max_cycles
      ~mode:Signalcat.On_fpga ~top:bug.Bug.top fixed' bug.Bug.stimulus
  in
  List.iter (fun (c, t) -> Printf.printf "  [cycle %3d] %s\n" c t) fixed_window;
  print_endline "-> the fixed core stays above 128 until it halts"
