(* A larger, hierarchical design debugged with the full toolbox: a
   two-port packet router built from a header parser, two scfifo
   queues, and an arbiter - the kind of networking design the study's
   GitHub corpus is full of.

   We inject a fresh producer-consumer bug (the arbiter acknowledges
   both queues in the same cycle when both are ready, but can forward
   only one), then walk the tools over it: statistics catch the loss,
   LossCheck names the register, and the fix (one grant at a time)
   checks clean.

   Run with:  dune exec examples/packet_router.exe
   It exits 1 unless LossCheck reports the forwarding register [fwd_data]. *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Simulator = Fpga_sim.Simulator
module Testbench = Fpga_sim.Testbench

let source ~buggy =
  let pop_ok = if buggy then "1'b1" else "!fwd_vld" in
  Printf.sprintf
    {|
module hdr_parse (
  input [15:0] beat,
  output port_sel,
  output [7:0] payload
);
  // bit 8 of the header selects the egress port
  assign port_sel = beat[8];
  assign payload = beat[7:0];
endmodule

module router (
  input clk,
  input reset,
  input in_valid,
  input [15:0] in_beat,
  output reg out_valid,
  output reg [7:0] out_data,
  output reg out_port
);
  wire sel;
  wire [7:0] payload;
  wire [7:0] q0_data, q1_data;
  wire q0_empty, q1_empty;
  wire q0_pop, q1_pop;
  wire push0, push1;
  wire pop_ok;
  reg [7:0] fwd_data;
  reg fwd_port;
  reg fwd_vld;
  reg busy;

  hdr_parse u_hdr (.beat(in_beat), .port_sel(sel), .payload(payload));

  assign push0 = in_valid && !sel;
  assign push1 = in_valid && sel;

  scfifo #(.lpm_width(8), .lpm_numwords(8)) u_q0 (
    .clock(clk), .data(payload), .wrreq(push0), .rdreq(q0_pop),
    .q(q0_data), .empty(q0_empty));
  scfifo #(.lpm_width(8), .lpm_numwords(8)) u_q1 (
    .clock(clk), .data(payload), .wrreq(push1), .rdreq(q1_pop),
    .q(q1_data), .empty(q1_empty));

  // the arbiter grants one queue per cycle; the BUGGY version keeps
  // popping while the forwarding slot is still occupied
  assign pop_ok = %s;
  assign q0_pop = !q0_empty && pop_ok;
  assign q1_pop = !q1_empty && q0_empty && pop_ok;

  always @(posedge clk) begin
    out_valid <= 1'b0;
    if (reset) begin
      fwd_vld <= 1'b0;
      busy <= 1'b0;
    end else begin
      // the egress serializer takes two cycles per beat
      if (fwd_vld && !busy) begin
        out_valid <= 1'b1;
        out_data <= fwd_data;
        out_port <= fwd_port;
        busy <= 1'b1;
        fwd_vld <= 1'b0;
      end else if (busy) begin
        busy <= 1'b0;
      end
      if (q0_pop) begin
        fwd_data <= q0_data;
        fwd_port <= 1'b0;
        fwd_vld <= 1'b1;
      end
      if (q1_pop) begin
        fwd_data <= q1_data;
        fwd_port <= 1'b1;
        fwd_vld <= 1'b1;
      end
    end
  end
endmodule
|}
    pop_ok

(* interleaved traffic to both ports *)
let stimulus cycle =
  let beats =
    [ 0x00A1; 0x01B1; 0x00A2; 0x01B2; 0x00A3; 0x01B3 ]
  in
  if cycle = 0 then [ ("reset", Bits.of_int ~width:1 1) ]
  else if cycle >= 2 && cycle - 2 < List.length beats then
    [
      ("reset", Bits.of_int ~width:1 0);
      ("in_valid", Bits.of_int ~width:1 1);
      ("in_beat", Bits.of_int ~width:16 (List.nth beats (cycle - 2)));
    ]
  else [ ("in_valid", Bits.of_int ~width:1 0) ]

let run_and_count src =
  let design = Fpga_hdl.Parser.parse_design src in
  let sim = Testbench.of_design ~top:"router" design in
  let forwarded = ref [] in
  (* [until] observes each cycle and never holds: the run takes all 41 *)
  let observe sim =
    if Simulator.read_int sim "out_valid" = 1 then
      forwarded :=
        (Simulator.read_int sim "out_port", Simulator.read_int sim "out_data")
        :: !forwarded;
    false
  in
  ignore (Testbench.run ~max_cycles:41 ~until:observe sim stimulus);
  List.rev !forwarded

let () =
  print_endline "== The symptom: beats go missing ==";
  let buggy = run_and_count (source ~buggy:true) in
  let fixed = run_and_count (source ~buggy:false) in
  Printf.printf "ingress: 6 beats; buggy egress: %d beats; fixed egress: %d beats\n"
    (List.length buggy) (List.length fixed);
  Printf.printf "buggy forwarded: %s\n"
    (String.concat " "
       (List.map (fun (p, d) -> Printf.sprintf "p%d:%02x" p d) buggy));

  print_endline "\n== Statistics Monitor confirms the loss ==";
  let design = Fpga_hdl.Parser.parse_design (source ~buggy:true) in
  let m = Option.get (Ast.find_module design "router") in
  let events =
    [
      { Fpga_debug.Stat_monitor.event_name = "beats_in"; trigger = Ast.Ident "in_valid" };
      { Fpga_debug.Stat_monitor.event_name = "beats_out"; trigger = Ast.Ident "out_valid" };
    ]
  in
  let plan = Fpga_debug.Stat_monitor.plan m events in
  let counted = Fpga_debug.Stat_monitor.instrument plan m in
  let design' = Ast.replace_module design m counted in
  let sim = Testbench.of_design ~top:"router" design' in
  let _ = Testbench.run ~max_cycles:40 sim stimulus in
  List.iter
    (fun (n, c) -> Printf.printf "  %s = %d\n" n c)
    (Fpga_debug.Stat_monitor.counts plan sim);

  print_endline "\n== LossCheck names the overwritten register ==";
  let spec =
    { Fpga_debug.Losscheck.source = "in_beat";
      valid = Ast.Ident "in_valid"; sink = "out_data" }
  in
  let result =
    Fpga_debug.Losscheck.localize ~max_cycles:40 ~top:"router" ~spec
      ~stimulus design
  in
  List.iter
    (fun reg -> Printf.printf "  potential data loss at: %s\n" reg)
    result.Fpga_debug.Losscheck.reported;
  print_endline
    "-> the arbiter refills the forwarding register while the two-cycle \
     egress serializer still holds an unsent beat";

  print_endline "\n== After the fix (one grant per cycle) ==";
  Printf.printf "fixed egress order: %s\n"
    (String.concat " "
       (List.map (fun (p, d) -> Printf.sprintf "p%d:%02x" p d) fixed));

  (* a wrong localization fails the run, not only a crash *)
  if not (List.mem "fwd_data" result.Fpga_debug.Losscheck.reported) then (
    prerr_endline "LossCheck did not report the forwarding register fwd_data";
    exit 1)
