(* Tests for elaboration and the cycle-accurate simulator. *)

open Fpga_hdl
open Fpga_sim
module Bits = Fpga_bits.Bits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let b w v = Bits.of_int ~width:w v
let sim_of src top = Testbench.of_source ~top src

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_counter () =
  let sim =
    sim_of
      {|
module top (input clk, input reset, input enable, output reg [7:0] count);
  always @(posedge clk) begin
    if (reset) count <= 8'd0;
    else if (enable) count <= count + 8'd1;
  end
endmodule
|}
      "top"
  in
  Simulator.set_input sim "reset" (b 1 1);
  Simulator.step sim;
  Simulator.set_input sim "reset" (b 1 0);
  Simulator.set_input sim "enable" (b 1 1);
  for _ = 1 to 5 do
    Simulator.step sim
  done;
  check_int "count after 5 enables" 5 (Simulator.read_int sim "count");
  Simulator.set_input sim "enable" (b 1 0);
  Simulator.step sim;
  check_int "count holds" 5 (Simulator.read_int sim "count")

let test_nonblocking_swap () =
  (* classic: non-blocking swap exchanges values every cycle *)
  let sim =
    sim_of
      {|
module top (input clk, output [7:0] xa, output [7:0] xb);
  reg [7:0] a = 8'd1;
  reg [7:0] b = 8'd2;
  assign xa = a;
  assign xb = b;
  always @(posedge clk) begin
    a <= b;
    b <= a;
  end
endmodule
|}
      "top"
  in
  Simulator.step sim;
  check_int "a swapped" 2 (Simulator.read_int sim "xa");
  check_int "b swapped" 1 (Simulator.read_int sim "xb");
  Simulator.step sim;
  check_int "a swapped back" 1 (Simulator.read_int sim "xa")

let test_blocking_in_seq () =
  (* blocking assignment visible to the following statement *)
  let sim =
    sim_of
      {|
module top (input clk, output reg [7:0] y);
  reg [7:0] t;
  always @(posedge clk) begin
    t = 8'd7;
    y <= t + 8'd1;
  end
endmodule
|}
      "top"
  in
  Simulator.step sim;
  check_int "blocking visible" 8 (Simulator.read_int sim "y")

let test_comb_chain () =
  let sim =
    sim_of
      {|
module top (input [7:0] a, output [7:0] o);
  wire [7:0] w1, w2;
  assign o = w2 + 8'd1;
  assign w2 = w1 * 8'd2;
  assign w1 = a + 8'd3;
endmodule
|}
      "top"
  in
  Simulator.set_input sim "a" (b 8 4);
  Simulator.step sim;
  (* ((4+3)*2)+1 = 15, assigns listed in anti-dependency order *)
  check_int "comb chain" 15 (Simulator.read_int sim "o")

let test_comb_cycle_detected () =
  let raised =
    try
      ignore
        (sim_of
           {|
module top (input a, output x);
  wire y;
  assign x = y & a;
  assign y = x | a;
endmodule
|}
           "top");
      false
    with Simulator.Combinational_cycle _ -> true
  in
  check_bool "cycle detected" true raised

let test_hierarchy () =
  let sim =
    sim_of
      {|
module adder (input [7:0] x, input [7:0] y, output [7:0] s);
  assign s = x + y;
endmodule

module top (input clk, input [7:0] a, output [7:0] out);
  wire [7:0] mid;
  adder u1 (.x(a), .y(8'd10), .s(mid));
  adder u2 (.x(mid), .y(a), .s(out));
endmodule
|}
      "top"
  in
  Simulator.set_input sim "a" (b 8 5);
  Simulator.step sim;
  check_int "two adders" 20 (Simulator.read_int sim "out")

let test_parameter_override () =
  let sim =
    sim_of
      {|
module incr #(parameter STEP = 1) (input clk, output reg [7:0] v);
  always @(posedge clk) v <= v + STEP;
endmodule

module top (input clk, output [7:0] v1, output [7:0] v3);
  incr u1 (.clk(clk), .v(v1));
  incr #(.STEP(3)) u3 (.clk(clk), .v(v3));
endmodule
|}
      "top"
  in
  Simulator.run sim 4;
  check_int "default step" 4 (Simulator.read_int sim "v1");
  check_int "overridden step" 12 (Simulator.read_int sim "v3")

let test_memory_overflow_semantics () =
  (* Power-of-two memory wraps; non-power-of-two drops the write
     (bug study section 3.2.1). *)
  let src size =
    Printf.sprintf
      {|
module top (input clk, input [7:0] idx, input [7:0] din, input we,
            input [7:0] ridx, output [7:0] dout);
  reg [7:0] m [0:%d];
  assign dout = m[ridx];
  always @(posedge clk) if (we) m[idx] <= din;
endmodule
|}
      (size - 1)
  in
  (* size 8 (pow2): write at 9 lands at 1 *)
  let sim = sim_of (src 8) "top" in
  Simulator.set_input sim "we" (b 1 1);
  Simulator.set_input sim "idx" (b 8 9);
  Simulator.set_input sim "din" (b 8 0x5A);
  Simulator.step sim;
  Simulator.set_input sim "we" (b 1 0);
  Simulator.set_input sim "ridx" (b 8 1);
  Simulator.step sim;
  check_int "pow2 wraps" 0x5A (Simulator.read_int sim "dout");
  (* size 6 (non-pow2): write at 9 dropped *)
  let sim = sim_of (src 6) "top" in
  Simulator.set_input sim "we" (b 1 1);
  Simulator.set_input sim "idx" (b 8 9);
  Simulator.set_input sim "din" (b 8 0x5A);
  Simulator.step sim;
  Simulator.set_input sim "we" (b 1 0);
  for k = 0 to 5 do
    Simulator.set_input sim "ridx" (b 8 k);
    Simulator.step sim;
    check_int
      (Printf.sprintf "non-pow2 untouched word %d" k)
      0
      (Simulator.read_int sim "dout")
  done

let test_display_log () =
  let sim =
    sim_of
      {|
module top (input clk, output reg [7:0] n);
  always @(posedge clk) begin
    n <= n + 8'd1;
    if (n == 8'd2) $display("n reached two: %d (hex %h)", n, n);
  end
endmodule
|}
      "top"
  in
  Simulator.run sim 5;
  match Simulator.log sim with
  | [ (cycle, text) ] ->
      check_int "display at cycle" 2 cycle;
      Alcotest.(check string) "text" "n reached two: 2 (hex 02)" text
  | l -> Alcotest.failf "expected one log entry, got %d" (List.length l)

let test_finish () =
  let sim =
    sim_of
      {|
module top (input clk, output reg [7:0] n);
  always @(posedge clk) begin
    n <= n + 8'd1;
    if (n == 8'd3) $finish;
  end
endmodule
|}
      "top"
  in
  Simulator.run sim 100;
  check_bool "finished" true (Simulator.finished sim);
  check_bool "stopped early" true (Simulator.cycle sim < 10)

let test_scfifo () =
  let sim =
    sim_of
      {|
module top (input clk, input [7:0] din, input push, input pop,
            output [7:0] front, output is_empty, output is_full);
  scfifo #(.lpm_width(8), .lpm_numwords(4)) q0 (
    .clock(clk), .data(din), .wrreq(push), .rdreq(pop),
    .q(front), .empty(is_empty), .full(is_full));
endmodule
|}
      "top"
  in
  check_int "initially empty" 1 (Simulator.read_int sim "is_empty");
  Simulator.set_input sim "push" (b 1 1);
  Simulator.set_input sim "din" (b 8 11);
  Simulator.step sim;
  Simulator.set_input sim "din" (b 8 22);
  Simulator.step sim;
  Simulator.set_input sim "push" (b 1 0);
  Simulator.step sim;
  check_int "not empty" 0 (Simulator.read_int sim "is_empty");
  check_int "show-ahead front" 11 (Simulator.read_int sim "front");
  Simulator.set_input sim "pop" (b 1 1);
  Simulator.step sim;
  check_int "front after pop" 22 (Simulator.read_int sim "front");
  Simulator.step sim;
  Simulator.set_input sim "pop" (b 1 0);
  Simulator.step sim;
  check_int "empty again" 1 (Simulator.read_int sim "is_empty");
  (* fill to full *)
  Simulator.set_input sim "push" (b 1 1);
  Simulator.run sim 6;
  check_int "full" 1 (Simulator.read_int sim "is_full")

let test_altsyncram () =
  let sim =
    sim_of
      {|
module top (input clk, input [3:0] addr, input [7:0] din, input we,
            output [7:0] q);
  altsyncram #(.width_a(8), .numwords_a(16)) ram (
    .clock0(clk), .address_a(addr), .data_a(din), .wren_a(we), .q_a(q));
endmodule
|}
      "top"
  in
  Simulator.set_input sim "we" (b 1 1);
  Simulator.set_input sim "addr" (b 4 3);
  Simulator.set_input sim "din" (b 8 99);
  Simulator.step sim;
  Simulator.set_input sim "we" (b 1 0);
  Simulator.step sim;
  (* registered read: q shows word 3 after a cycle with addr=3 *)
  check_int "ram readback" 99 (Simulator.read_int sim "q")

let test_concat_lvalue () =
  let sim =
    sim_of
      {|
module top (input clk, input [7:0] a, input [7:0] bb, output reg co,
            output reg [7:0] s);
  always @(posedge clk) {co, s} <= a + bb;
endmodule
|}
      "top"
  in
  Simulator.set_input sim "a" (b 8 200);
  Simulator.set_input sim "bb" (b 8 100);
  Simulator.step sim;
  check_int "sum low bits" ((200 + 100) land 0xFF) (Simulator.read_int sim "s");
  check_int "carry out" 1 (Simulator.read_int sim "co")

let stuck_src =
  {|
module top (input clk, input go, output reg done_flag);
  always @(posedge clk) if (go) done_flag <= 1'b1;
endmodule
|}

let test_testbench_stuck_detection () =
  let outcome =
    Testbench.run ~max_cycles:50
      ~until:(fun s -> Simulator.read_int s "done_flag" = 1)
      (sim_of stuck_src "top")
      (Testbench.const_stimulus [ ("go", b 1 0) ])
  in
  check_bool "stuck when go never set" true outcome.Testbench.stuck;
  let outcome2 =
    Testbench.run ~max_cycles:50
      ~until:(fun s -> Simulator.read_int s "done_flag" = 1)
      (sim_of stuck_src "top")
      (Testbench.const_stimulus [ ("go", b 1 1) ])
  in
  check_bool "not stuck when go set" false outcome2.Testbench.stuck

let test_vcd () =
  let design =
    Parser.parse_design
      {|
module top (input clk, output reg [3:0] n);
  always @(posedge clk) n <= n + 4'd1;
endmodule
|}
  in
  let flat = Elaborate.elaborate design ~top:"top" in
  let sim = Simulator.create flat in
  let vcd = Vcd.create flat in
  for _ = 1 to 3 do
    Simulator.step sim;
    Vcd.sample vcd sim
  done;
  let text = Vcd.contents vcd in
  check_bool "has header" true (contains text "$enddefinitions");
  check_bool "has samples" true (contains text "#3")

let test_sha_width () =
  (* 64-bit datapath sanity, as used by the SHA512 design *)
  let sim =
    sim_of
      {|
module top (input clk, input [63:0] w, output reg [63:0] acc);
  always @(posedge clk) acc <= acc + ({w[31:0], w[63:32]} ^ (w >> 7));
endmodule
|}
      "top"
  in
  Simulator.set_input sim "w" (Bits.of_hex_string ~width:64 "0123456789abcdef");
  Simulator.step sim;
  let rotated = Bits.of_hex_string ~width:64 "89abcdef01234567" in
  let shifted =
    Bits.shift_right (Bits.of_hex_string ~width:64 "0123456789abcdef") 7
  in
  let expect = Bits.logxor rotated shifted in
  Alcotest.(check string)
    "64-bit xor/rotate" (Bits.to_hex_string expect)
    (Bits.to_hex_string (Simulator.read sim "acc"))

(* Determinism property: two simulators over the same design and random
   stimulus produce identical output traces. *)
let prop_deterministic =
  QCheck2.Test.make ~count:50 ~name:"simulation is deterministic"
    QCheck2.Gen.(list_size (return 20) (int_bound 255))
    (fun inputs ->
      let src =
        {|
module top (input clk, input [7:0] d, output reg [7:0] acc);
  always @(posedge clk) acc <= acc + (d ^ {d[3:0], d[7:4]});
endmodule
|}
      in
      let run () =
        let sim = sim_of src "top" in
        List.map
          (fun v ->
            Simulator.set_input sim "d" (b 8 v);
            Simulator.step sim;
            Simulator.read_int sim "acc")
          inputs
      in
      run () = run ())

let suite =
  [
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "nonblocking swap" `Quick test_nonblocking_swap;
    Alcotest.test_case "blocking in seq" `Quick test_blocking_in_seq;
    Alcotest.test_case "comb chain order" `Quick test_comb_chain;
    Alcotest.test_case "comb cycle detected" `Quick test_comb_cycle_detected;
    Alcotest.test_case "hierarchy" `Quick test_hierarchy;
    Alcotest.test_case "parameter override" `Quick test_parameter_override;
    Alcotest.test_case "memory overflow semantics" `Quick
      test_memory_overflow_semantics;
    Alcotest.test_case "display log" `Quick test_display_log;
    Alcotest.test_case "finish" `Quick test_finish;
    Alcotest.test_case "scfifo primitive" `Quick test_scfifo;
    Alcotest.test_case "altsyncram primitive" `Quick test_altsyncram;
    Alcotest.test_case "concat lvalue" `Quick test_concat_lvalue;
    Alcotest.test_case "testbench stuck detection" `Quick
      test_testbench_stuck_detection;
    Alcotest.test_case "vcd output" `Quick test_vcd;
    Alcotest.test_case "64-bit datapath" `Quick test_sha_width;
    QCheck_alcotest.to_alcotest prop_deterministic;
  ]

(* --- waveform capture and diffing --------------------------------------- *)

let waveform_counter ~buggy =
  Printf.sprintf
    {|
module top (input clk, input en, output reg [7:0] n, output reg tick);
  always @(posedge clk) begin
    if (en) n <= n + 8'd%d;
    tick <= ~tick;
  end
endmodule
|}
    (if buggy then 2 else 1)

let waveform_stimulus cycle = [ ("en", b 1 (if cycle >= 2 then 1 else 0)) ]

let test_waveform_capture () =
  let design = Parser.parse_design (waveform_counter ~buggy:false) in
  let w =
    Waveform.capture ~max_cycles:10 ~top:"top" ~signals:[ "n"; "tick"; "en" ]
      design waveform_stimulus
  in
  check_int "10 cycles captured" 10 w.Waveform.cycles;
  check_int "three traces" 3 (List.length w.Waveform.traces);
  let n = Option.get (Waveform.trace w "n") in
  check_int "final count" 8 (Bits.to_int n.Waveform.values.(9));
  let text = Waveform.render w in
  check_bool "render shows the 1-bit rail" true (contains text "~");
  check_bool "render names signals" true (contains text "tick")

let test_waveform_diff () =
  let cap ~buggy =
    Waveform.capture ~max_cycles:10 ~top:"top" ~signals:[ "n"; "tick" ]
      (Parser.parse_design (waveform_counter ~buggy))
      waveform_stimulus
  in
  let fixed = cap ~buggy:false and buggy = cap ~buggy:true in
  (match Waveform.first_divergence buggy fixed with
  | Some d ->
      check_int "diverges when en first rises" 2 d.Waveform.cycle;
      Alcotest.(check string) "on the counter" "n" d.Waveform.signal
  | None -> Alcotest.fail "expected divergence");
  check_bool "tick never diverges" true
    (List.for_all
       (fun (d : Waveform.divergence) -> d.Waveform.signal <> "tick")
       (Waveform.diff buggy fixed));
  (* identical runs do not diverge *)
  check_bool "self-diff empty" true (Waveform.diff fixed fixed = [])

let suite =
  suite
  @ [
      Alcotest.test_case "waveform capture" `Quick test_waveform_capture;
      Alcotest.test_case "waveform diff" `Quick test_waveform_diff;
    ]

(* --- checkpointing ------------------------------------------------------- *)

let test_checkpoint_replay () =
  (* replay property: restore + re-run equals the uninterrupted run *)
  let src =
    {|
module top (input clk, input [7:0] d, output reg [7:0] acc, output reg [3:0] n);
  reg [7:0] hist [0:7];
  always @(posedge clk) begin
    acc <= acc + d;
    hist[n] <= d;
    n <= n + 4'd1;
    if (acc > 8'd200) $display("acc high: %d", acc);
  end
endmodule
|}
  in
  let stim cycle = [ ("d", b 8 ((cycle * 37) land 0xFF)) ] in
  let drive sim from upto =
    for i = from to upto - 1 do
      List.iter (fun (n, v) -> Simulator.set_input sim n v) (stim i);
      Simulator.step sim
    done
  in
  let observe sim =
    ( Simulator.read_int sim "acc",
      Simulator.read_int sim "n",
      Array.map Bits.to_int (Simulator.read_memory sim "hist"),
      Simulator.log sim )
  in
  (* uninterrupted reference run *)
  let ref_sim = sim_of src "top" in
  drive ref_sim 0 30;
  let reference = observe ref_sim in
  (* checkpointed run: snapshot at 10, keep going, then rewind and replay *)
  let sim = sim_of src "top" in
  drive sim 0 10;
  let cp = Simulator.save_checkpoint sim in
  drive sim 10 23;
  Simulator.restore_checkpoint sim cp;
  check_int "cycle rewound" 10 (Simulator.cycle sim);
  drive sim 10 30;
  check_bool "replay equals uninterrupted run" true (observe sim = reference)

let test_checkpoint_fifo_state () =
  let src =
    {|
module top (input clk, input [7:0] din, input push, input pop,
            output [7:0] front, output is_empty);
  scfifo #(.lpm_width(8), .lpm_numwords(4)) q0 (
    .clock(clk), .data(din), .wrreq(push), .rdreq(pop),
    .q(front), .empty(is_empty));
endmodule
|}
  in
  let sim = sim_of src "top" in
  Simulator.set_input sim "push" (b 1 1);
  Simulator.set_input sim "din" (b 8 42);
  Simulator.step sim;
  Simulator.set_input sim "push" (b 1 0);
  Simulator.step sim;
  let cp = Simulator.save_checkpoint sim in
  (* drain the fifo, then rewind: the word must be back *)
  Simulator.set_input sim "pop" (b 1 1);
  Simulator.step sim;
  Simulator.step sim;
  check_int "drained" 1 (Simulator.read_int sim "is_empty");
  Simulator.restore_checkpoint sim cp;
  Simulator.set_input sim "pop" (b 1 0);
  Simulator.step sim;
  check_int "fifo content restored" 42 (Simulator.read_int sim "front");
  check_int "not empty after restore" 0 (Simulator.read_int sim "is_empty")

(* --- differential property: printed Verilog evaluates like the AST ------- *)

(* Random expressions over fixed 8-bit inputs: the value computed by the
   full pipeline (print -> parse -> elaborate -> simulate) equals direct
   evaluation of the AST over the same environment. *)
let prop_print_parse_simulate_eval =
  let gen_leaf =
    QCheck2.Gen.(
      oneof
        [
          map (fun n -> Ast.Ident (Printf.sprintf "s%d" (abs n mod 3))) int;
          map (fun n -> Ast.Const (Bits.of_int ~width:8 (abs n mod 256))) int;
        ])
  in
  let gen_expr =
    QCheck2.Gen.(
      sized_size (int_range 0 5)
      @@ fix (fun self n ->
             if n = 0 then gen_leaf
             else
               oneof
                 [
                   gen_leaf;
                   map2
                     (fun a b -> Ast.Binop (Ast.Add, a, b))
                     (self (n / 2)) (self (n / 2));
                   map2
                     (fun a b -> Ast.Binop (Ast.Sub, a, b))
                     (self (n / 2)) (self (n / 2));
                   map2
                     (fun a b -> Ast.Binop (Ast.Bxor, a, b))
                     (self (n / 2)) (self (n / 2));
                   map2
                     (fun a b -> Ast.Binop (Ast.Band, a, b))
                     (self (n / 2)) (self (n / 2));
                   map2
                     (fun a b -> Ast.Binop (Ast.Lt, a, b))
                     (self (n / 2)) (self (n / 2));
                   map3
                     (fun c a b -> Ast.Cond (c, a, b))
                     (self (n / 2)) (self (n / 2)) (self (n / 2));
                 ]))
  in
  QCheck2.Test.make ~count:150
    ~name:"print/parse/simulate equals direct evaluation"
    QCheck2.Gen.(pair gen_expr (triple (int_bound 255) (int_bound 255) (int_bound 255)))
    (fun (e, (v0, v1, v2)) ->
      let src =
        Printf.sprintf
          "module t (input [7:0] s0, input [7:0] s1, input [7:0] s2, output \
           [7:0] o);\nassign o = %s;\nendmodule"
          (Pp_verilog.expr_str e)
      in
      let sim = sim_of src "t" in
      Simulator.set_input sim "s0" (b 8 v0);
      Simulator.set_input sim "s1" (b 8 v1);
      Simulator.set_input sim "s2" (b 8 v2);
      Simulator.step sim;
      let via_sim = Simulator.read_int sim "o" in
      let env : Eval.env = Hashtbl.create 4 in
      Hashtbl.replace env "s0" (Eval.Vec (b 8 v0));
      Hashtbl.replace env "s1" (Eval.Vec (b 8 v1));
      Hashtbl.replace env "s2" (Eval.Vec (b 8 v2));
      let direct = Bits.to_int (Bits.resize (Eval.eval_ctx env ~ctx:8 e) 8) in
      via_sim = direct)

let suite =
  suite
  @ [
      Alcotest.test_case "checkpoint replay" `Quick test_checkpoint_replay;
      Alcotest.test_case "checkpoint fifo state" `Quick
        test_checkpoint_fifo_state;
      QCheck_alcotest.to_alcotest prop_print_parse_simulate_eval;
    ]

(* --- negedge semantics ---------------------------------------------------- *)

let test_negedge_half_cycle () =
  (* a negedge consumer observes the value the posedge producer wrote in
     the same cycle - the SPI-style half-cycle handoff *)
  let sim =
    sim_of
      {|
module top (input clk, input [7:0] d, output reg [7:0] early, output reg [7:0] late);
  reg [7:0] stage;
  always @(posedge clk) stage <= d;
  always @(negedge clk) late <= stage;
  always @(posedge clk) early <= stage;
endmodule
|}
      "top"
  in
  Simulator.set_input sim "d" (b 8 0x11);
  Simulator.step sim;
  (* cycle 0: posedge writes stage=0x11; early sampled old stage (0);
     negedge then sees the fresh 0x11 *)
  check_int "posedge consumer lags" 0 (Simulator.read_int sim "early");
  check_int "negedge consumer sees same-cycle value" 0x11
    (Simulator.read_int sim "late");
  Simulator.set_input sim "d" (b 8 0x22);
  Simulator.step sim;
  check_int "early one behind" 0x11 (Simulator.read_int sim "early");
  check_int "late up to date" 0x22 (Simulator.read_int sim "late")

let test_negedge_spi_shift () =
  (* drive on posedge, sample on negedge: a 4-bit SPI-style shifter
     assembles the value within four cycles *)
  let sim =
    sim_of
      {|
module top (input clk, input mosi_bit, output reg [3:0] shifted);
  reg mosi;
  always @(posedge clk) mosi <= mosi_bit;
  always @(negedge clk) shifted <= {shifted[2:0], mosi};
endmodule
|}
      "top"
  in
  List.iter
    (fun bit ->
      Simulator.set_input sim "mosi_bit" (b 1 bit);
      Simulator.step sim)
    [ 1; 0; 1; 1 ];
  check_int "bits assembled MSB-first" 0b1011 (Simulator.read_int sim "shifted")

let suite =
  suite
  @ [
      Alcotest.test_case "negedge half cycle" `Quick test_negedge_half_cycle;
      Alcotest.test_case "negedge spi shift" `Quick test_negedge_spi_shift;
    ]

(* --- lowered-dirty kernel vs brute-force reference ------------------------ *)

(* The dirty-set kernel must be observationally identical to the seed
   full-sweep settle: same signal values every cycle, same $display log,
   over real testbed designs (comb logic, FIFOs, RAMs, $finish). *)

let signal_state (flat : Elaborate.flat) sim =
  Hashtbl.fold
    (fun name (s : Elaborate.fsignal) acc ->
      let v =
        match s.Elaborate.fs_depth with
        | Some _ ->
            Simulator.read_memory sim name
            |> Array.map Bits.to_hex_string
            |> Array.to_list |> String.concat ","
        | None -> Bits.to_hex_string (Simulator.read sim name)
      in
      (name, v) :: acc)
    flat.Elaborate.f_signals []
  |> List.sort compare

let test_lowered_dirty_matches_brute_force () =
  List.iter
    (fun id ->
      let bug = Option.get (Fpga_testbed.Registry.find id) in
      let design = Fpga_testbed.Bug.design_of bug ~buggy:true in
      let flat = Elaborate.elaborate design ~top:bug.Fpga_testbed.Bug.top in
      let bf = Simulator.create ~kernel:Simulator.Brute_force flat in
      let ld = Simulator.create ~kernel:Simulator.Lowered_dirty flat in
      for i = 0 to 199 do
        let ins = bug.Fpga_testbed.Bug.stimulus i in
        List.iter (fun (n, v) -> Simulator.set_input bf n v) ins;
        List.iter (fun (n, v) -> Simulator.set_input ld n v) ins;
        Simulator.step bf;
        Simulator.step ld;
        if signal_state flat ld <> signal_state flat bf then
          Alcotest.failf
            "%s: lowered-dirty/brute signal state diverges at cycle %d" id i
      done;
      check_bool
        (Printf.sprintf "%s: finished flags agree" id)
        (Simulator.finished bf) (Simulator.finished ld);
      if Simulator.log ld <> Simulator.log bf then
        Alcotest.failf "%s: $display log diverges" id)
    [ "D2"; "D4"; "D8"; "C4" ]

(* Full-testbed differential through the harness: every bug, both
   design variants, identical reports — rows, log, flags, cycle counts,
   and the complete VCD waveform — under brute force, an explicit
   lowered-dirty, and the default selection. *)
let test_kernels_full_testbed () =
  List.iter
    (fun (bug : Fpga_testbed.Bug.t) ->
      List.iter
        (fun buggy ->
          let design = Fpga_testbed.Bug.design_of bug ~buggy in
          let run ?kernel () =
            Fpga_testbed.Bug.run_design ~vcd:true ?kernel bug design
          in
          let bf = run ~kernel:Simulator.Brute_force () in
          List.iter
            (fun (name, kernel) ->
              let r = run ?kernel () in
              let tag fmt =
                Printf.sprintf fmt bug.Fpga_testbed.Bug.id name
                  (if buggy then "buggy" else "fixed")
              in
              check_bool (tag "%s %s %s rows") true
                (r.Fpga_testbed.Bug.rows = bf.Fpga_testbed.Bug.rows);
              check_bool (tag "%s %s %s log") true
                (r.Fpga_testbed.Bug.log = bf.Fpga_testbed.Bug.log);
              check_bool (tag "%s %s %s vcd") true
                (r.Fpga_testbed.Bug.vcd = bf.Fpga_testbed.Bug.vcd);
              check_bool (tag "%s %s %s flags") true
                (r.Fpga_testbed.Bug.stuck = bf.Fpga_testbed.Bug.stuck
                && r.Fpga_testbed.Bug.finished = bf.Fpga_testbed.Bug.finished
                && r.Fpga_testbed.Bug.cycles = bf.Fpga_testbed.Bug.cycles))
            [ ("lowered-dirty", Some Simulator.Lowered_dirty); ("default", None) ])
        [ true; false ])
    Fpga_testbed.Registry.all

let test_comb_display_fires_every_cycle () =
  (* a combinational $display fires once per cycle in the seed sweep
     even when its inputs never change; the dirty lowered kernel forces
     display closures onto its worklist to match *)
  let run kernel =
    let sim =
      Testbench.of_source ~kernel ~top:"top"
        {|
module top (input clk, input [7:0] d, output [7:0] q);
  assign q = d;
  always @(*) begin
    $display("q is %d", q);
  end
endmodule
|}
    in
    Simulator.set_input sim "d" (b 8 7);
    Simulator.run sim 5;
    Simulator.log sim
  in
  let ld = run Simulator.Lowered_dirty and bf = run Simulator.Brute_force in
  check_int "one entry per cycle" 5 (List.length ld);
  check_bool "logs identical across kernels" true (ld = bf)

(* A design whose whole combinational plan fires every cycle while the
   input churns: w1..q all depend (directly or through the cascade) on
   both d and r, and r moves every cycle while d is nonzero. *)
let dense_src =
  {|
module top (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] r;
  wire [7:0] w1, w2, w3;
  assign w1 = d + r;
  assign w2 = w1 ^ r;
  assign w3 = w2 + d;
  assign q = w3;
  always @(posedge clk) r <= r + d;
endmodule
|}

let test_dirty_kernel_skips_on_idle_design () =
  (* the dirty lowered kernel's whole point: once an idle pipeline
     settles, its closures stop running — and the values still match
     the full sweep cycle for cycle *)
  let src =
    {|
module top (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] r1, r2, r3;
  wire [7:0] w1, w2;
  assign w1 = r3 + 8'd1;
  assign w2 = w1 ^ r2;
  assign q = w2;
  always @(posedge clk) begin
    r1 <= d;
    r2 <= r1;
    r3 <= r2;
  end
endmodule
|}
  in
  let ld = Testbench.of_source ~kernel:Simulator.Lowered_dirty ~top:"top" src in
  let bf = Testbench.of_source ~kernel:Simulator.Brute_force ~top:"top" src in
  Simulator.set_input ld "d" (b 8 0x2A);
  Simulator.set_input bf "d" (b 8 0x2A);
  for i = 0 to 99 do
    Simulator.step ld;
    Simulator.step bf;
    check_int
      (Printf.sprintf "q agrees at cycle %d" i)
      (Simulator.read_int bf "q") (Simulator.read_int ld "q")
  done;
  let rs = Option.get (Simulator.lowered_run_stats ld) in
  check_bool "idle settles skip closures" true
    (rs.Fpga_sim.Lowered.rs_closures_skipped > rs.Fpga_sim.Lowered.rs_closures_run)

let test_dirty_kernel_dense_roundtrip () =
  (* churn drives the dirty lowered kernel into its dense full-sweep
     mode, idling drops it back out, and the values track the sweep
     the whole way *)
  let ld = Testbench.of_source ~kernel:Simulator.Lowered_dirty ~top:"top" dense_src in
  let bf = Testbench.of_source ~kernel:Simulator.Brute_force ~top:"top" dense_src in
  let drive sim d =
    Simulator.set_input sim "d" (b 8 d);
    Simulator.step sim
  in
  check_bool "starts sparse" false (Simulator.dense_mode ld);
  for i = 0 to 29 do
    let d = ((i * 37) + 1) land 0xff in
    drive ld d;
    drive bf d;
    check_int
      (Printf.sprintf "q agrees at burst cycle %d" i)
      (Simulator.read_int bf "q") (Simulator.read_int ld "q")
  done;
  check_bool "burst engages dense mode" true (Simulator.dense_mode ld);
  for i = 0 to 29 do
    drive ld 0;
    drive bf 0;
    check_int
      (Printf.sprintf "q agrees during idle cycle %d" i)
      (Simulator.read_int bf "q") (Simulator.read_int ld "q")
  done;
  check_bool "idle drops back to sparse" false (Simulator.dense_mode ld);
  (* a fresh burst after the round trip still tracks the sweep *)
  for i = 0 to 9 do
    let d = ((i * 53) + 5) land 0xff in
    drive ld d;
    drive bf d;
    check_int
      (Printf.sprintf "q agrees after re-burst cycle %d" i)
      (Simulator.read_int bf "q") (Simulator.read_int ld "q")
  done;
  check_bool "brute force never reports dense mode" false
    (Simulator.dense_mode bf)

(* Plans far larger than any testbed design: the default kernel stays
   lowered-dirty at any size and must match the full sweep. [shape]
   picks the wiring of the [n] comb nodes: a single-reader assign chain
   (fuses into one closure) or a mesh where every wire feeds two later
   nodes (nothing fuses). A register closes the loop so every
   cycle brings fresh activity, and a $display pins the log. *)
let large_src ~shape n =
  let buf = Buffer.create (64 * n) in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "module top (input clk, input [7:0] a, output [7:0] q, output [7:0] q2);\n";
  add "  reg [7:0] r;\n";
  for k = 0 to n - 1 do
    add "  wire [7:0] w%d;\n" k
  done;
  add "  assign w0 = a + r;\n";
  add "  assign w1 = w0 ^ 8'd1;\n";
  for k = 2 to n - 1 do
    match shape with
    | `Chain -> add "  assign w%d = w%d + 8'd%d;\n" k (k - 1) (k land 0xff)
    | `Mesh -> add "  assign w%d = w%d + w%d;\n" k (k - 1) (k - 2)
  done;
  (match shape with
  | `Chain -> add "  assign q = w%d;\n" (n - 1)
  | `Mesh ->
      add "  assign q = w%d + w%d;\n" (n - 1) (n - 2);
      add "  assign q2 = ~w%d;\n" (n - 1));
  add "  always @(posedge clk) begin\n";
  add "    r <= q;\n";
  add "    $display(\"q=%%d r=%%d\", q, r);\n";
  add "  end\nendmodule\n";
  Buffer.contents buf

let test_large_plans_default_kernel () =
  List.iter
    (fun (shape, name) ->
      let flat =
        Elaborate.elaborate (Parser.parse_design (large_src ~shape 5000)) ~top:"top"
      in
      let ld = Simulator.create flat in
      let bf = Simulator.create ~kernel:Simulator.Brute_force flat in
      check_bool (name ^ ": default kernel is lowered-dirty") true
        (Simulator.kernel ld = Simulator.Lowered_dirty);
      let lw = Option.get (Simulator.lowering_stats ld) in
      check_bool (name ^ ": fusion matches the shape") true
        (match shape with
        | `Chain -> lw.Fpga_sim.Lowered.lw_nodes = 5001 && lw.Fpga_sim.Lowered.lw_closures = 1
        | `Mesh -> lw.Fpga_sim.Lowered.lw_nodes = 5002 && lw.Fpga_sim.Lowered.lw_fused = 0);
      for i = 0 to 49 do
        let a = b 8 (((i * 37) + 1) land 0xff) in
        Simulator.set_input ld "a" a;
        Simulator.set_input bf "a" a;
        Simulator.step ld;
        Simulator.step bf;
        check_int
          (Printf.sprintf "%s: q agrees at cycle %d" name i)
          (Simulator.read_int bf "q") (Simulator.read_int ld "q")
      done;
      check_bool (name ^ ": signal state agrees") true
        (signal_state flat ld = signal_state flat bf);
      check_bool (name ^ ": log agrees") true
        (Simulator.log ld = Simulator.log bf && List.length (Simulator.log bf) = 50))
    [ (`Chain, "chain"); (`Mesh, "mesh") ]

(* [Event_driven] survives only as a spelling of the default: it builds
   lowered-dirty, prints as lowered-dirty, and has no CLI name. *)
let test_event_driven_is_a_synonym () =
  let flat =
    Elaborate.elaborate
      (Parser.parse_design
         {|
module top (input clk, input [7:0] d, output [7:0] q);
  assign q = d + 8'd1;
endmodule
|})
      ~top:"top"
  in
  let kernel_of k = Simulator.kernel (Simulator.create ?kernel:k flat) in
  check_bool "default kernel is lowered-dirty" true
    (Simulator.default_kernel = Simulator.Lowered_dirty);
  check_bool "create with no kernel builds the default" true
    (kernel_of None = Simulator.default_kernel);
  check_bool "Event_driven builds lowered-dirty" true
    (kernel_of (Some Simulator.Event_driven) = Simulator.Lowered_dirty);
  check_bool "brute force is kept" true
    (kernel_of (Some Simulator.Brute_force) = Simulator.Brute_force);
  Alcotest.(check string) "Event_driven prints as lowered-dirty" "lowered-dirty"
    (Simulator.kernel_name Simulator.Event_driven);
  check_bool "\"event\" is not a kernel name" true
    (Simulator.kernel_of_string "event" = None)

(* [kernel_of_string] inverts [kernel_name] for both real kernels and
   knows the documented aliases; anything else, "auto" included (the
   CLI resolves that itself), is not a kernel. *)
let test_kernel_names_round_trip () =
  List.iter
    (fun k ->
      check_bool
        (Simulator.kernel_name k ^ " round-trips")
        true
        (Simulator.kernel_of_string (Simulator.kernel_name k) = Some k))
    [ Simulator.Brute_force; Simulator.Lowered_dirty ];
  Alcotest.(check string) "brute spelling" "brute"
    (Simulator.kernel_name Simulator.Brute_force);
  Alcotest.(check string) "lowered-dirty spelling" "lowered-dirty"
    (Simulator.kernel_name Simulator.Lowered_dirty);
  check_bool "brute-force alias" true
    (Simulator.kernel_of_string "brute-force" = Some Simulator.Brute_force);
  check_bool "lowered_dirty alias" true
    (Simulator.kernel_of_string "lowered_dirty" = Some Simulator.Lowered_dirty);
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S is not a kernel" s) true
        (Simulator.kernel_of_string s = None))
    [ ""; "auto"; "dirty"; "Brute" ]

(* Lowering and run counters exist only for the lowered kernel; brute
   force reports none and never enters dense mode. Both kernels still
   trace the same outputs. *)
let test_lowered_stats_per_kernel () =
  let flat =
    Elaborate.elaborate
      (Parser.parse_design
         {|
module top (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] r;
  assign q = r ^ d;
  always @(posedge clk) r <= r + 8'd1;
endmodule
|})
      ~top:"top"
  in
  let bf = Simulator.create ~kernel:Simulator.Brute_force flat in
  let ld = Simulator.create ~kernel:Simulator.Lowered_dirty flat in
  for i = 0 to 9 do
    Simulator.set_input bf "d" (b 8 (i * 3));
    Simulator.set_input ld "d" (b 8 (i * 3));
    Simulator.step bf;
    Simulator.step ld;
    check_int
      (Printf.sprintf "q agrees at cycle %d" i)
      (Simulator.read_int bf "q") (Simulator.read_int ld "q");
    check_bool "brute never dense" false (Simulator.dense_mode bf)
  done;
  check_bool "brute has no lowering stats" true
    (Simulator.lowering_stats bf = None);
  check_bool "brute has no run stats" true
    (Simulator.lowered_run_stats bf = None);
  let lw = Option.get (Simulator.lowering_stats ld) in
  check_int "one sequential block lowered" 1 lw.Lowered.lw_seq;
  check_bool "closures within nodes" true
    (lw.Lowered.lw_closures >= 1
    && lw.Lowered.lw_closures <= lw.Lowered.lw_nodes);
  let rs = Option.get (Simulator.lowered_run_stats ld) in
  check_int "one edge per cycle" 10 rs.Lowered.rs_edges;
  check_bool "settles counted" true (rs.Lowered.rs_settles >= 10)

let suite =
  suite
  @ [
      Alcotest.test_case "large plans stay lowered-dirty and match brute"
        `Quick test_large_plans_default_kernel;
      Alcotest.test_case "Event_driven is a synonym of lowered-dirty" `Quick
        test_event_driven_is_a_synonym;
      Alcotest.test_case
        "lowered-dirty == brute force (testbed, 200 cycles)" `Quick
        test_lowered_dirty_matches_brute_force;
      Alcotest.test_case "three kernels identical over the full testbed"
        `Slow test_kernels_full_testbed;
      Alcotest.test_case "comb $display fires every cycle" `Quick
        test_comb_display_fires_every_cycle;
      Alcotest.test_case "dirty lowered kernel skips on idle design" `Quick
        test_dirty_kernel_skips_on_idle_design;
      Alcotest.test_case "dirty lowered kernel dense round trip" `Quick
        test_dirty_kernel_dense_roundtrip;
      Alcotest.test_case "kernel names round trip" `Quick
        test_kernel_names_round_trip;
      Alcotest.test_case "lowered stats only under lowered-dirty" `Quick
        test_lowered_stats_per_kernel;
    ]

(* --- golden VCD and waveform output -------------------------------------- *)

(* Byte-exact VCD output: these pin the header layout, $var ordering
   (sorted by name, id codes from '!'), and change-only value lines that
   external viewers like GTKWave depend on. *)

let vcd_of src steps =
  let design = Parser.parse_design src in
  let flat = Elaborate.elaborate design ~top:"top" in
  let sim = Simulator.create flat in
  let vcd = Vcd.create flat in
  for _ = 1 to steps do
    Simulator.step sim;
    Vcd.sample vcd sim
  done;
  Vcd.contents vcd

let test_vcd_golden_1bit () =
  let text =
    vcd_of
      {|
module top (input clk, output reg t);
  always @(posedge clk) t <= ~t;
endmodule
|}
      3
  in
  Alcotest.(check string)
    "golden 1-bit VCD"
    "$date reproduction run $end\n\
     $version fpga-debug simulator $end\n\
     $timescale 1ns $end\n\
     $scope module top $end\n\
     $var wire 1 ! clk $end\n\
     $var wire 1 \" t $end\n\
     $upscope $end\n\
     $enddefinitions $end\n\
     #1\n0!\n1\"\n\
     #2\n0\"\n\
     #3\n1\"\n"
    text

let test_vcd_golden_multibit () =
  let text =
    vcd_of
      {|
module top (input clk, output reg [3:0] n);
  always @(posedge clk) n <= n + 4'd1;
endmodule
|}
      3
  in
  Alcotest.(check string)
    "golden multi-bit VCD"
    "$date reproduction run $end\n\
     $version fpga-debug simulator $end\n\
     $timescale 1ns $end\n\
     $scope module top $end\n\
     $var wire 1 ! clk $end\n\
     $var wire 4 \" n $end\n\
     $upscope $end\n\
     $enddefinitions $end\n\
     #1\n0!\nb0001 \"\n\
     #2\nb0010 \"\n\
     #3\nb0011 \"\n"
    text

let test_waveform_render_golden () =
  let design =
    Parser.parse_design
      {|
module top (input clk, output reg [3:0] n, output reg tick);
  always @(posedge clk) begin
    n <= n + 4'd1;
    tick <= ~tick;
  end
endmodule
|}
  in
  let w =
    Waveform.capture ~max_cycles:10 ~top:"top" ~signals:[ "n"; "tick" ] design
      (fun _ -> [])
  in
  Alcotest.(check string)
    "golden ASCII render"
    "          0    5    \n\
     n         |1|2|3|4|5|6|7|8|9|a\n\
     tick      ~_~_~_~_~_\n"
    (Waveform.render ~cycles:10 w);
  (* a later window re-anchors the hex change marks at its first cycle *)
  let tail = Waveform.render ~from_cycle:8 ~cycles:2 w in
  check_bool "window shows value at its first cycle" true (contains tail "|9");
  check_bool "window keeps the rail" true (contains tail "~_")

let suite =
  suite
  @ [
      Alcotest.test_case "golden VCD: 1-bit toggler" `Quick
        test_vcd_golden_1bit;
      Alcotest.test_case "golden VCD: multi-bit counter" `Quick
        test_vcd_golden_multibit;
      Alcotest.test_case "golden waveform render" `Quick
        test_waveform_render_golden;
    ]

(* --- lowered-kernel specialised forms vs brute force ---------------------- *)

module Telemetry = Fpga_telemetry.Telemetry

(* Run [src] under lowered-dirty and brute force over [stim] (one input
   list per cycle) and require identical signal values (memories
   included) after every cycle, identical VCDs and identical per-signal
   toggle counts. Telemetry is on while the simulators are built, which
   is what enables toggle counting. *)
let lowered_matches_brute ~name src stim =
  let flat = Elaborate.elaborate (Parser.parse_design src) ~top:"top" in
  let run kernel =
    Telemetry.reset ();
    Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        Telemetry.disable ();
        Telemetry.reset ())
      (fun () ->
        let sim = Simulator.create ~kernel flat in
        let vcd = Vcd.create flat in
        let states =
          List.map
            (fun ins ->
              List.iter (fun (n, v) -> Simulator.set_input sim n v) ins;
              Simulator.step sim;
              Vcd.sample vcd sim;
              signal_state flat sim)
            stim
        in
        (states, Vcd.contents vcd, Simulator.toggle_counts sim))
  in
  let ls, lv, lt = run Simulator.Lowered_dirty in
  let bs, bv, bt = run Simulator.Brute_force in
  List.iteri
    (fun i (l, b) ->
      if l <> b then Alcotest.failf "%s: signal values diverge at cycle %d" name i)
    (List.combine ls bs);
  check_bool (name ^ ": VCD agrees") true (lv = bv);
  check_bool (name ^ ": toggle counts agree") true (lt = bt);
  check_bool (name ^ ": toggles were counted") true
    (List.exists (fun (_, n) -> n > 0) bt)

let hex_const v = Printf.sprintf "%d'h%s" (Bits.width v) (Bits.to_hex_string v)

(* A [w]-bit value from three random ints (up to 186 random bits). *)
let bits_of_ints w (a, b, c) =
  let chunk = Bits.of_int ~width:62 in
  Bits.resize (Bits.concat [ chunk a; chunk b; chunk c ]) w

(* Concat parts: an input signal of the given width, or a constant. *)
type cpart = Psig of int | Pconst of Bits.t

let gen_part_width =
  QCheck2.Gen.(
    oneof
      [
        int_range 1 130;
        (* widths that put part edges on the 31/32, 63/64 and 95/96 limb
           and immediate boundaries *)
        oneofl [ 1; 31; 32; 33; 62; 63; 64; 65; 95; 96; 97; 129; 130 ];
      ])

let gen_cpart =
  QCheck2.Gen.(
    gen_part_width >>= fun w ->
    oneof
      [
        return (Psig w);
        map (fun r -> Pconst (bits_of_ints w r)) (triple int int int);
      ])

(* Every concat holds at least one 63-bit part: a signal (driven with
   random patterns, so bit 62 is often set) or a constant with bit 62
   set, i.e. a negative raw immediate pattern. *)
let gen_concat =
  QCheck2.Gen.(
    list_size (int_range 1 9) gen_cpart >>= fun parts ->
    int_bound (List.length parts) >>= fun at ->
    oneof
      [
        return (Psig 63);
        map
          (fun r ->
            Pconst
              (Bits.logor (bits_of_ints 63 r) (Bits.shift_left (Bits.one 63) 62)))
          (triple int int int);
      ]
    >>= fun p63 ->
    return
      (List.filteri (fun i _ -> i < at) parts
      @ (p63 :: List.filteri (fun i _ -> i >= at) parts)))

(* Module with the concat as an NBA into a wide register, an NBA into a
   memory word and a blocking combinational assign. Each target is
   [total + delta] bits wide, so the concat is also zero-extended to a
   wider context or truncated. Returns the source and the input widths. *)
let concat_module parts (dr, dm, dc) =
  let total =
    List.fold_left
      (fun acc p -> acc + match p with Psig w -> w | Pconst c -> Bits.width c)
      0 parts
  in
  let tw d = max 1 (total + d) in
  let inputs =
    List.filter_map
      (fun (k, p) -> match p with Psig w -> Some (k, w) | Pconst _ -> None)
      (List.mapi (fun k p -> (k, p)) parts)
  in
  let cat =
    "{"
    ^ String.concat ", "
        (List.mapi
           (fun k p ->
             match p with
             | Psig _ -> Printf.sprintf "i%d" k
             | Pconst c -> hex_const c)
           parts)
    ^ "}"
  in
  let src =
    Printf.sprintf
      "module top (input clk, input [2:0] idx%s);\n\
      \  reg [%d:0] r;\n\
      \  reg [%d:0] m [0:3];\n\
      \  reg [%d:0] c;\n\
      \  always @(posedge clk) begin\n\
      \    r <= %s;\n\
      \    m[idx] <= %s;\n\
      \  end\n\
      \  always @(*) begin\n\
      \    c = %s;\n\
      \  end\n\
       endmodule\n"
      (String.concat ""
         (List.map
            (fun (k, w) -> Printf.sprintf ", input [%d:0] i%d" (w - 1) k)
            inputs))
      (tw dr - 1) (tw dm - 1) (tw dc - 1) cat cat cat
  in
  (src, inputs)

let prop_wide_concat_lowered =
  QCheck2.Test.make ~count:150
    ~name:"wide concats: lowered-dirty == brute (values, VCD, toggles)"
    ~print:(fun (parts, deltas, _) -> fst (concat_module parts deltas))
    QCheck2.Gen.(
      triple gen_concat
        (triple (int_range (-8) 40) (int_range (-8) 40) (int_range (-8) 40))
        (list_repeat 6 (pair (int_bound 7) (list_repeat 10 (triple int int int)))))
    (fun (parts, deltas, cycles) ->
      let src, inputs = concat_module parts deltas in
      let stim =
        List.map
          (fun (idx, rs) ->
            ("idx", b 3 idx)
            :: List.mapi
                 (fun j (k, w) ->
                   (Printf.sprintf "i%d" k, bits_of_ints w (List.nth rs j)))
                 inputs)
          cycles
      in
      lowered_matches_brute ~name:"wide concat" src stim;
      true)

(* Directed cases for the leaf-compare and width-1 logical forms, each
   next to a shape that must keep the general path. *)
let directed_leaf_cases =
  let h w s = Bits.of_hex_string ~width:w s in
  [
    ( "wide const vs narrow signal",
      "module top (input clk, input [3:0] s4, input [7:0] s8, output o0, output o1,\n\
      \            output o2, output o3, output o4, output o5);\n\
      \  assign o0 = s4 == 8'hf3;\n\
      \  assign o1 = s4 != 8'h13;\n\
      \  assign o2 = s4 < 8'h10;\n\
      \  assign o3 = 8'h03 > s4;\n\
      \  assign o4 = s4 >= s8;\n\
      \  assign o5 = 8'h13 <= s4;\n\
       endmodule\n",
      List.map (fun (a, c) -> [ ("s4", b 4 a); ("s8", b 8 c) ])
        [ (3, 3); (0xf, 0xf3); (2, 0x13); (3, 2); (0, 0); (0xf, 0x10) ] );
    ( "const over 63 bits falls back",
      "module top (input clk, input [7:0] s8, input [62:0] s63, output o0, output o1,\n\
      \            output o2, output o3);\n\
      \  assign o0 = s8 == 70'h3f_0000_0000_0000_0005;\n\
      \  assign o1 = s8 < 70'h20_0000_0000_0000_0000;\n\
      \  assign o2 = 70'h0_4000_0000_0000_0001 != s63;\n\
      \  assign o3 = s63 >= 70'h0_4000_0000_0000_0000;\n\
       endmodule\n",
      List.map (fun (a, c) -> [ ("s8", b 8 a); ("s63", h 63 c) ])
        [
          (5, "4000000000000001");
          (6, "3fffffffffffffff");
          (5, "4000000000000000");
          (0, "0");
        ] );
    ( "63-bit signal with bit 62 set",
      "module top (input clk, input [62:0] s63, input [7:0] s8, output o0, output o1,\n\
      \            output o2, output o3, output o4, output o5, output o6);\n\
      \  assign o0 = s63 == 63'h4000_0000_0000_0001;\n\
      \  assign o1 = s63 != 63'h7fff_ffff_ffff_ffff;\n\
      \  assign o2 = s63 > 63'h1;\n\
      \  assign o3 = s63 < 63'h4000_0000_0000_0002;\n\
      \  assign o4 = 63'h3fff_ffff_ffff_ffff <= s63;\n\
      \  assign o5 = s63 > s8;\n\
      \  assign o6 = s8 >= s63;\n\
       endmodule\n",
      List.map (fun (c, a) -> [ ("s63", h 63 c); ("s8", b 8 a) ])
        [
          ("4000000000000001", 1);
          ("7fffffffffffffff", 0xff);
          ("4000000000000002", 2);
          ("3fffffffffffffff", 0);
          ("0000000000000001", 1);
          ("0", 0);
        ] );
    ( "&&/|| with a wide operand fall back",
      "module top (input clk, input [69:0] w70, input b1, input c1, output o0,\n\
      \            output o1, output o2, output o3, output o4, output o5);\n\
      \  assign o0 = w70 && b1;\n\
      \  assign o1 = b1 || w70;\n\
      \  assign o2 = !w70 || c1;\n\
      \  assign o3 = c1 && (w70 == 70'h20_0000_0000_0000_0000);\n\
      \  assign o4 = b1 && c1;\n\
      \  assign o5 = (b1 == c1) || (w70 != 70'h0);\n\
       endmodule\n",
      List.map (fun (w, x, y) -> [ ("w70", h 70 w); ("b1", b 1 x); ("c1", b 1 y) ])
        [ ("200000000000000000", 1, 0); ("0", 1, 1); ("200000000000000000", 0, 1);
          ("1", 0, 0); ("0", 0, 1); ("100000000000000000", 1, 1) ] );
  ]

let suite =
  suite
  @ List.map
      (fun (name, src, stim) ->
        Alcotest.test_case ("lowered " ^ name) `Quick (fun () ->
            lowered_matches_brute ~name src stim))
      directed_leaf_cases
  @ [ QCheck_alcotest.to_alcotest prop_wide_concat_lowered ]

(* --- by-name accessors and their name cache -------------------------------- *)

(* Twelve counters stepping by 1..12, so more names are read every
   cycle than the simulator's name cache holds, plus a memory. *)
let many_counters =
  let regs = List.init 12 (fun k -> k + 1) in
  String.concat ""
    ([ "module top (input clk, input [7:0] din, output [7:0] sum);\n";
       "  reg [7:0] mem [0:3];\n";
       "  assign sum = din + c1;\n" ]
    @ List.map (fun k -> Printf.sprintf "  reg [7:0] c%d;\n" k) regs
    @ [ "  always @(posedge clk) begin\n"; "    mem[0] <= din;\n" ]
    @ List.map (fun k -> Printf.sprintf "    c%d <= c%d + 8'd%d;\n" k k k) regs
    @ [ "  end\nendmodule\n" ])

let counters_flat () =
  Elaborate.elaborate (Parser.parse_design many_counters) ~top:"top"

(* a fresh string equal to [s], never physically equal to it *)
let copy s = Bytes.to_string (Bytes.of_string s)

let kernels = [ Simulator.Lowered_dirty; Simulator.Brute_force ]

let test_name_cache_equal_names () =
  List.iter
    (fun kernel ->
      let sim = Simulator.create ~kernel (counters_flat ()) in
      let lit = "c3" and fresh = copy "c3" in
      check_bool "distinct strings" false (lit == fresh);
      Simulator.set_input_int sim "din" 5;
      Simulator.set_input sim (copy "din") (b 8 9);
      for _ = 1 to 4 do
        Simulator.step sim
      done;
      check_int "literal" 12 (Simulator.read_int sim lit);
      check_int "equal copy" 12 (Simulator.read_int sim fresh);
      check_int "another copy" 12 (Simulator.read_int sim (copy lit));
      check_int "input set through a copy" 9 (Simulator.read_int sim "din");
      check_int "comb output" (9 + 4) (Simulator.read_int sim "sum");
      check_int "memory through a copy" 9
        (Bits.to_int (Simulator.read_memory sim (copy "mem")).(0)))
    kernels

let test_name_cache_many_names () =
  List.iter
    (fun kernel ->
      let flat = counters_flat () in
      let sim = Simulator.create ~kernel flat in
      let names = List.init 12 (fun k -> (k + 1, Printf.sprintf "c%d" (k + 1))) in
      for cycle = 1 to 20 do
        Simulator.step sim;
        (* the same strings every cycle, in an order that evicts each
           cached name before it comes round again *)
        List.iter
          (fun (step, name) ->
            let want = cycle * step land 0xff in
            check_int name want (Simulator.read_int sim name);
            check_int (name ^ " copy") want (Simulator.read_int sim (copy name));
            let i = Hashtbl.find flat.Elaborate.f_signal_ids name in
            check_int (name ^ " by id") want
              (Bits.to_int (Simulator.read_id sim i)))
          (if cycle mod 2 = 0 then names else List.rev names)
      done)
    kernels

(* The messages the by-name accessors have always raised, whether the
   name was cached by an earlier call or not. *)
let test_name_errors () =
  List.iter
    (fun kernel ->
      let flat = counters_flat () in
      let sim = Simulator.create ~kernel flat in
      let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
      for _ = 1 to 2 do
        raises "Simulator.read: unknown nosuch" (fun () ->
            ignore (Simulator.read sim "nosuch"));
        raises "Simulator.read: unknown nosuch" (fun () ->
            ignore (Simulator.read_int sim (copy "nosuch")));
        raises "Simulator.set_input: unknown nosuch" (fun () ->
            Simulator.set_input sim "nosuch" (b 1 1));
        raises "Simulator.set_input_int: unknown nosuch" (fun () ->
            Simulator.set_input_int sim "nosuch" 1);
        raises "Simulator.read_memory: nosuch" (fun () ->
            ignore (Simulator.read_memory sim "nosuch"));
        ignore (Simulator.read_memory sim "mem");
        raises "Simulator.read: mem is a memory" (fun () ->
            ignore (Simulator.read sim "mem"));
        raises "Simulator.read: mem is a memory" (fun () ->
            ignore (Simulator.read_id sim (Hashtbl.find flat.f_signal_ids "mem")));
        raises "Simulator.set_input: memory" (fun () ->
            Simulator.set_input sim "mem" (b 8 1));
        raises "Simulator.set_input_int: unknown mem" (fun () ->
            Simulator.set_input_int sim "mem" 1);
        ignore (Simulator.read sim "c1");
        raises "Simulator.read_memory: c1" (fun () ->
            ignore (Simulator.read_memory sim "c1"))
      done;
      raises "index out of bounds" (fun () ->
          ignore (Simulator.read_id sim (Array.length flat.f_signal_order))))
    kernels

(* A name passed as the same string every cycle is found without
   hashing and without allocating: the brute-force kernel returns the
   stored vector, so reads allocate nothing at all. *)
let test_name_cache_hit_allocation () =
  let sim = Simulator.create ~kernel:Simulator.Brute_force (counters_flat ()) in
  Simulator.step sim;
  let n = 10_000 in
  ignore (Simulator.read sim "c5");
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Simulator.read sim "c5"))
  done;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "%.0f minor words over %d cached reads < 64" words n)
    true (words < 64.)

let suite =
  suite
  @ [
      Alcotest.test_case "name cache: equal names, one signal" `Quick
        test_name_cache_equal_names;
      Alcotest.test_case "name cache: more names than slots" `Quick
        test_name_cache_many_names;
      Alcotest.test_case "name cache: error messages unchanged" `Quick
        test_name_errors;
      Alcotest.test_case "name cache: cached reads do not allocate" `Quick
        test_name_cache_hit_allocation;
    ]
