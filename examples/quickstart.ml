(* Quickstart: parse a small Verilog design, simulate it, trace it with
   SignalCat in both execution modes, and confirm that the unified logs
   agree.

   Run with:  dune exec examples/quickstart.exe *)

module Bits = Fpga_bits.Bits
module Parser = Fpga_hdl.Parser
module Simulator = Fpga_sim.Simulator
module Testbench = Fpga_sim.Testbench
module Signalcat = Fpga_debug.Signalcat

(* A counter that announces multiples of five through $display. *)
let source =
  {|
module counter (
  input clk,
  input reset,
  input enable,
  output reg [7:0] count
);
  always @(posedge clk) begin
    if (reset) count <= 8'd0;
    else if (enable) begin
      count <= count + 8'd1;
      if (count % 8'd5 == 8'd4)
        $display("count reaches a multiple of five: %d", count + 8'd1);
    end
  end
endmodule
|}

let stimulus cycle =
  [
    ("reset", Bits.of_int ~width:1 (if cycle = 0 then 1 else 0));
    ("enable", Bits.of_int ~width:1 (if cycle > 1 then 1 else 0));
  ]

let () =
  print_endline "== 1. Parse ==";
  let design = Parser.parse_design source in
  Printf.printf "parsed %d module(s); counter has %d always block(s)\n"
    (List.length design.Fpga_hdl.Ast.modules)
    (List.length
       (List.hd design.Fpga_hdl.Ast.modules).Fpga_hdl.Ast.always_blocks);

  print_endline "\n== 2. Simulate directly ==";
  let sim = Testbench.of_design ~top:"counter" design in
  ignore (Testbench.run ~max_cycles:21 sim stimulus);
  Printf.printf "count after 21 cycles: %d\n" (Simulator.read_int sim "count");

  print_endline "\n== 3. Unified logging with SignalCat ==";
  let run mode = Signalcat.run_and_log ~max_cycles:21 ~mode ~top:"counter" design stimulus in
  let sim_log = run Signalcat.Simulation in
  let fpga_log = run Signalcat.On_fpga in
  print_endline "simulation-mode log:";
  List.iter (fun (c, t) -> Printf.printf "  [cycle %2d] %s\n" c t) sim_log;
  print_endline "on-FPGA-mode log (reconstructed from the recording buffer):";
  List.iter (fun (c, t) -> Printf.printf "  [cycle %2d] %s\n" c t) fpga_log;
  Printf.printf "logs identical: %b\n" (sim_log = fpga_log)
