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

(* Out-of-range accesses (bug study section 3.2.1): a power-of-two
   structure wraps the index, any other size drops the access — writes
   are ignored, reads return zero. [overflow_cases check] runs [check]
   under both kernels on an 8-entry (pow2) and a 6-entry design holding
   a memory [m] and a vector [v] of that size, every word distinct and
   nonzero, every bit set. *)
let overflow_cases check =
  let src size =
    Printf.sprintf
      {|
module top (input clk, input [7:0] idx, input [7:0] din, input bin,
            input we, input [7:0] ridx,
            output [7:0] dout, output bout, output [%d:0] vout);
  reg [7:0] m [0:%d];
  reg [%d:0] v;
  assign dout = m[ridx];
  assign bout = v[ridx];
  assign vout = v;
  always @(posedge clk) if (we) begin
    m[idx] <= din;
    v[idx] <= bin;
  end
endmodule
|}
      (size - 1) (size - 1) (size - 1)
  in
  List.iter
    (fun kernel ->
      List.iter
        (fun size ->
          let what s =
            Printf.sprintf "%s size %d: %s" (Simulator.kernel_name kernel) size
              s
          in
          let sim = Testbench.of_source ~kernel ~top:"top" (src size) in
          let write i d bit =
            Simulator.set_input sim "we" (b 1 1);
            Simulator.set_input sim "idx" (b 8 i);
            Simulator.set_input sim "din" (b 8 d);
            Simulator.set_input sim "bin" (b 1 bit);
            Simulator.step sim;
            Simulator.set_input sim "we" (b 1 0)
          in
          let read i =
            Simulator.set_input sim "ridx" (b 8 i);
            Simulator.step sim;
            (Simulator.read_int sim "dout", Simulator.read_int sim "bout")
          in
          for k = 0 to size - 1 do
            write k (0x10 + k) 1
          done;
          check ~what ~pow2:(size = 8) ~size ~write ~read sim)
        [ 8; 6 ])
    [ Simulator.Brute_force; Simulator.Lowered_dirty ]

let test_memory_overflow_semantics () =
  overflow_cases (fun ~what ~pow2 ~size ~write ~read _ ->
      check_int (what "word read at 9") (if pow2 then 0x11 else 0)
        (fst (read 9));
      write 9 0x5A 1;
      for k = 0 to size - 1 do
        let expect = if pow2 && k = 1 then 0x5A else 0x10 + k in
        check_int
          (what (Printf.sprintf "word %d after write at 9" k))
          expect
          (fst (read k))
      done)

let test_bit_select_overflow_semantics () =
  overflow_cases (fun ~what ~pow2 ~size ~write ~read sim ->
      let all_ones = (1 lsl size) - 1 in
      check_int (what "filled") all_ones (Simulator.read_int sim "vout");
      check_int (what "bit read at 9") (if pow2 then 1 else 0) (snd (read 9));
      write 9 0x5A 0;
      check_int (what "bit write at 9")
        (if pow2 then all_ones land lnot 2 else all_ones)
        (Simulator.read_int sim "vout"))

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
    Alcotest.test_case "bit-select overflow semantics" `Quick
      test_bit_select_overflow_semantics;
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
   full pipeline (print -> parse -> elaborate -> default kernel) equals
   the brute-force kernel's over the same expression built directly
   with [Builder], which involves neither printer nor parser. *)
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
      let direct =
        let open Builder in
        let m =
          module_ "t"
            ~ports:
              [ input ~width:8 "s0"; input ~width:8 "s1"; input ~width:8 "s2";
                output ~width:8 "o" ]
            ~assigns:[ (Ast.Lident "o", e) ]
        in
        let flat = Elaborate.elaborate { Ast.modules = [ m ] } ~top:"t" in
        let bf = Simulator.create ~kernel:Simulator.Brute_force flat in
        Simulator.set_input bf "s0" (b 8 v0);
        Simulator.set_input bf "s1" (b 8 v1);
        Simulator.set_input bf "s2" (b 8 v2);
        Simulator.step bf;
        Simulator.read_int bf "o"
      in
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
  (* churn keeps the whole plan busy, then idling lets it sleep, then a
     fresh burst wakes it: the values track the full sweep the whole
     way *)
  let ld = Testbench.of_source ~kernel:Simulator.Lowered_dirty ~top:"top" dense_src in
  let bf = Testbench.of_source ~kernel:Simulator.Brute_force ~top:"top" dense_src in
  let drive sim d =
    Simulator.set_input sim "d" (b 8 d);
    Simulator.step sim
  in
  for i = 0 to 29 do
    let d = ((i * 37) + 1) land 0xff in
    drive ld d;
    drive bf d;
    check_int
      (Printf.sprintf "q agrees at burst cycle %d" i)
      (Simulator.read_int bf "q") (Simulator.read_int ld "q")
  done;
  for i = 0 to 29 do
    drive ld 0;
    drive bf 0;
    check_int
      (Printf.sprintf "q agrees during idle cycle %d" i)
      (Simulator.read_int bf "q") (Simulator.read_int ld "q")
  done;
  (* a fresh burst after the idle stretch still tracks the sweep *)
  for i = 0 to 9 do
    let d = ((i * 53) + 5) land 0xff in
    drive ld d;
    drive bf d;
    check_int
      (Printf.sprintf "q agrees after re-burst cycle %d" i)
      (Simulator.read_int bf "q") (Simulator.read_int ld "q")
  done

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
   lowered-dirty and prints as lowered-dirty. *)
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
  Alcotest.(check string) "brute spelling" "brute"
    (Simulator.kernel_name Simulator.Brute_force);
  Alcotest.(check string) "lowered-dirty spelling" "lowered-dirty"
    (Simulator.kernel_name Simulator.Lowered_dirty)

(* Lowering and run counters exist only for the lowered kernel; brute
   force reports none. Both kernels still trace the same outputs. *)
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
      (Simulator.read_int bf "q") (Simulator.read_int ld "q")
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

(* --- instance reuse: a reset instance runs exactly like a fresh one ------ *)

module Bug = Fpga_testbed.Bug

(* Everything one run shows of the instance it ran on. *)
type outcome = {
  o_rows : (int * (string * int) list) list;
  o_log : (int * string) list;
  o_cycles : int;
  o_finished : bool;
  o_vcd : string;
  o_checkpoints : string list;  (* serialized, every 7 cycles *)
  o_stats : Lowered.run_stats;
  o_toggles : (string * int) list;
  o_lowered : int list option;  (* the lowered kernel's run counters *)
}

(* The testbed harness on a given instance, one cycle per call of the
   returned [step] (false once the run is over), then [result]: the
   bug's stimulus (or [stim]) until its budget, [$finish] or
   [done_when], with a full VCD and a checkpoint every 7 cycles. [from]
   resumes from a checkpoint; [stop_at] abandons the run at that cycle. *)
let start_harness ?from ?stop_at ?stim (bug : Bug.t) sim =
  let stim = Option.value stim ~default:bug.Bug.stimulus in
  let start =
    match from with
    | None -> 0
    | Some ck ->
        Simulator.restore_checkpoint sim ck;
        ck.Checkpoint.ck_cycle
  in
  let limit = Option.value stop_at ~default:bug.Bug.max_cycles in
  let dump = Vcd.create (Simulator.flat sim) in
  let rows = ref [] and cks = ref [] and satisfied = ref false in
  let i = ref start in
  let step () =
    !i < limit && (not (Simulator.finished sim)) && (not !satisfied)
    && begin
      List.iter (fun (n, v) -> Simulator.set_input sim n v) (stim !i);
      Simulator.step sim;
      Vcd.sample dump sim;
      (match bug.Bug.sample sim with
      | Some row -> rows := (!i, row) :: !rows
      | None -> ());
      (match bug.Bug.done_when with
      | Some cond when cond sim -> satisfied := true
      | _ -> ());
      if (!i + 1) mod 7 = 0 then
        cks :=
          Checkpoint.to_string (Simulator.save_checkpoint ~tag:bug.Bug.id sim)
          :: !cks;
      incr i;
      true
    end
  in
  let result () =
    {
      o_rows = List.rev !rows;
      o_log = Simulator.log sim;
      o_cycles = Simulator.cycle sim;
      o_finished = Simulator.finished sim;
      o_vcd = Vcd.contents dump;
      o_checkpoints = List.rev !cks;
      o_stats = Simulator.stats sim;
      o_toggles = Simulator.toggle_counts sim;
      o_lowered =
        Option.map
          (fun (r : Lowered.run_stats) ->
            Lowered.
              [ r.rs_settles; r.rs_closures_run; r.rs_closures_skipped;
                r.rs_edges; r.rs_seq_run; r.rs_seq_skipped; r.rs_commit_imm;
                r.rs_commit_boxed ])
          (Simulator.lowered_run_stats sim);
    }
  in
  (step, result)

let harness ?from ?stop_at ?stim bug sim =
  let step, result = start_harness ?from ?stop_at ?stim bug sim in
  while step () do
    ()
  done;
  result ()

let with_telemetry on f =
  if not on then f ()
  else (
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable f)

(* Each kernel, with telemetry off and on. *)
let all_kinds =
  [
    (Simulator.Lowered_dirty, false); (Simulator.Brute_force, false);
    (Simulator.Lowered_dirty, true); (Simulator.Brute_force, true);
  ]

(* One instance runs, is reset, and runs again after each kind of
   previous run: a full one, one abandoned halfway, and one resumed
   from a checkpoint. Every rerun must equal a run on a fresh instance,
   and so must a resumed run on a reset instance. *)
let check_reuse ~tag (bug : Bug.t) ~buggy =
  let flat = Elaborate.elaborate (Bug.design_of bug ~buggy) ~top:bug.Bug.top in
  List.iter
    (fun (kernel, telemetry) ->
      with_telemetry telemetry @@ fun () ->
      let tag =
        Printf.sprintf "%s %s, %s, telemetry %s" tag
          (if buggy then "buggy" else "fixed")
          (Simulator.kernel_name kernel)
          (if telemetry then "on" else "off")
      in
      let fresh () = Simulator.create ~kernel flat in
      let reference = harness bug (fresh ()) in
      let same what o =
        if o <> reference then
          Alcotest.failf "%s: the run after %s differs from a fresh run" tag what
      in
      let sim = fresh () in
      ignore (harness bug sim);
      Simulator.reset sim;
      same "a full run" (harness bug sim);
      Simulator.reset sim;
      ignore (harness ~stop_at:(reference.o_cycles / 2) bug sim);
      Simulator.reset sim;
      same "an abandoned run" (harness bug sim);
      match reference.o_checkpoints with
      | [] -> ()
      | cks ->
          let mid = Checkpoint.of_string (List.nth cks (List.length cks / 2)) in
          check_bool (tag ^ ": signature is the design hash") true
            (mid.Checkpoint.ck_design = Checkpoint.design_hash flat);
          let resumed = harness ~from:mid bug (fresh ()) in
          Simulator.reset sim;
          if harness ~from:mid bug sim <> resumed then
            Alcotest.failf "%s: a resumed run on a reset instance differs" tag;
          Simulator.reset sim;
          same "a resumed run" (harness bug sim))
    all_kinds

let reuse_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " reset instance runs like a fresh one")
        `Quick (fun () ->
          check_reuse ~tag:bug.Bug.id bug ~buggy:true;
          check_reuse ~tag:bug.Bug.id bug ~buggy:false))
    Fpga_testbed.Registry.all

(* No Table 2 design stops on [$finish], so a small one does: a
   register with a declared initial value, a memory, a FIFO, a RAM and
   a [$display], ending on [$finish] at cycle 9. *)
let finishing_src =
  {|
module top (input clk, input [7:0] din, output [7:0] front, output is_empty,
            output [7:0] q, output [7:0] m);
  reg [7:0] n = 8'd2;
  reg push;
  reg [7:0] mem [0:7];
  assign m = mem[n[2:0]];
  scfifo #(.lpm_width(8), .lpm_numwords(4)) q0 (
    .clock(clk), .data(din ^ n), .wrreq(push), .rdreq(n[1]),
    .q(front), .empty(is_empty));
  altsyncram #(.width_a(8), .numwords_a(16)) ram (
    .clock0(clk), .address_a(n[3:0]), .data_a(din + n), .wren_a(push),
    .q_a(q));
  always @(posedge clk) begin
    n <= n + 8'd1;
    push <= ~push;
    mem[n[2:0]] <= din + m;
    if (n == 8'd6) $display("n=%d front=%d q=%d m=%d", n, front, q, m);
    if (n == 8'd11) $finish;
  end
endmodule
|}

let finishing_bug () =
  let base = List.hd Fpga_testbed.Registry.all in
  {
    base with
    Bug.id = "FIN";
    top = "top";
    buggy_src = finishing_src;
    fixed_src = finishing_src;
    max_cycles = 40;
    stimulus = (fun i -> [ ("din", b 8 ((i * 37) land 0xff)) ]);
    sample =
      (fun sim ->
        Some
          [ ("front", Simulator.read_int sim "front");
            ("q", Simulator.read_int sim "q");
            ("m", Simulator.read_int sim "m") ]);
    done_when = None;
    ext_monitor = None;
  }

let test_reuse_after_finish () =
  let bug = finishing_bug () in
  let flat = Elaborate.elaborate (Bug.design_of bug ~buggy:true) ~top:"top" in
  let reference = harness bug (Simulator.create flat) in
  check_bool "the run ends on $finish" true reference.o_finished;
  check_bool "before its budget" true (reference.o_cycles < bug.Bug.max_cycles);
  check_int "one display" 1 (List.length reference.o_log);
  check_reuse ~tag:"FIN" bug ~buggy:true

let test_reuse_after_done_when () =
  let bug =
    { (finishing_bug ()) with
      Bug.done_when = Some (fun sim -> Simulator.read_int sim "n" = 7) }
  in
  let flat = Elaborate.elaborate (Bug.design_of bug ~buggy:true) ~top:"top" in
  let reference = harness bug (Simulator.create flat) in
  check_bool "the run stops on done_when" true
    ((not reference.o_finished) && reference.o_cycles = 5);
  check_reuse ~tag:"FIN done_when" bug ~buggy:true

(* A reset instance ignores whatever the previous user left: a display
   hook, inputs driven after the last step. *)
let test_reset_drops_hook_and_inputs () =
  let bug = finishing_bug () in
  let flat = Elaborate.elaborate (Bug.design_of bug ~buggy:true) ~top:"top" in
  let reference = harness bug (Simulator.create flat) in
  let sim = Simulator.create flat in
  let hooked = ref 0 in
  Simulator.on_display sim (fun _ _ -> incr hooked);
  ignore (harness bug sim);
  check_int "the hook fired" 1 !hooked;
  Simulator.set_input sim "din" (b 8 0xAA);
  Simulator.reset sim;
  check_int "cycle 0" 0 (Simulator.cycle sim);
  check_int "declared initial value" 2 (Simulator.read_int sim "n");
  check_bool "the same run" true (harness bug sim = reference);
  check_int "the hook is gone" 1 !hooked

(* The one-slot elaboration memo: the same physical design and top come
   back as the same flat; anything in between, or an equal but distinct
   design, elaborates again; a failure is never remembered. *)
let test_elaborate_memo () =
  let src = {|
module top (input clk, input [3:0] d, output reg [3:0] q);
  always @(posedge clk) q <= d;
endmodule
|} in
  let d1 = Parser.parse_design src and d2 = Parser.parse_design src in
  let f1 = Elaborate.elaborate d1 ~top:"top" in
  check_bool "same design, same flat" true (Elaborate.elaborate d1 ~top:"top" == f1);
  let f2 = Elaborate.elaborate d2 ~top:"top" in
  check_bool "an equal copy elaborates anew" false (f2 == f1);
  check_bool "to an equal flat" true
    (f2.Elaborate.f_signal_order = f1.Elaborate.f_signal_order);
  check_bool "the slot now holds the copy" false
    (Elaborate.elaborate d1 ~top:"top" == f1);
  let raises () =
    match Elaborate.elaborate d1 ~top:"nope" with
    | exception Elaborate.Elaboration_error _ -> true
    | _ -> false
  in
  check_bool "unknown top raises" true (raises ());
  check_bool "and raises again" true (raises ())

(* --- the compiled-plan memo: instances of one flat share its plan ------- *)

(* Instances built back to back on one flat share its compiled plan;
   instances of a freshly parsed and elaborated copy compile their own.
   Whichever kernel and stats setting, a plan-sharing instance runs like
   a fresh-flat one, also after another instance of the plan ran, and
   two live instances stepped in turn (one on the bug's stimulus, one
   on all-zero inputs) each run like they do alone. *)
let check_shared_plan (bug : Bug.t) ~buggy =
  let src = if buggy then bug.Bug.buggy_src else bug.Bug.fixed_src in
  let fresh_flat () =
    Elaborate.elaborate (Parser.parse_design src) ~top:bug.Bug.top
  in
  let flat = Elaborate.elaborate (Bug.design_of bug ~buggy) ~top:bug.Bug.top in
  let zeros _ = [] in
  List.iter
    (fun (kernel, telemetry) ->
      with_telemetry telemetry @@ fun () ->
      let tag =
        Printf.sprintf "%s %s, %s, telemetry %s" bug.Bug.id
          (if buggy then "buggy" else "fixed")
          (Simulator.kernel_name kernel)
          (if telemetry then "on" else "off")
      in
      let reference = harness bug (Simulator.create ~kernel (fresh_flat ())) in
      let idle = harness ~stim:zeros bug (Simulator.create ~kernel (fresh_flat ())) in
      let a = Simulator.create ~kernel flat in
      let b = Simulator.create ~kernel flat in
      let same what o r =
        if o <> r then Alcotest.failf "%s: %s differs from a fresh flat's" tag what
      in
      same "the first instance of a plan" (harness bug a) reference;
      same "a second instance, after the first ran" (harness bug b) reference;
      let a = Simulator.create ~kernel flat in
      let b = Simulator.create ~kernel flat in
      let step_a, result_a = start_harness bug a in
      let step_b, result_b = start_harness ~stim:zeros bug b in
      let rec interleave () =
        let more_a = step_a () in
        let more_b = step_b () in
        if more_a || more_b then interleave ()
      in
      interleave ();
      same "an instance stepped in turn with another" (result_a ()) reference;
      same "the other instance" (result_b ()) idle)
    all_kinds

let plan_tests =
  List.map
    (fun (bug : Bug.t) ->
      Alcotest.test_case (bug.Bug.id ^ " shared plan runs like a fresh flat")
        `Quick (fun () ->
          check_shared_plan bug ~buggy:true;
          check_shared_plan bug ~buggy:false))
    Fpga_testbed.Registry.all

(* A failed compile is never remembered: a flat with a combinational
   cycle raises on every [create], under both kernels, whatever plan
   the domain built last. *)
let test_cycle_never_memoised () =
  let flat_of src = Elaborate.elaborate (Parser.parse_design src) ~top:"top" in
  let cyclic =
    flat_of
      {|
module top (input a, output x);
  wire y;
  assign x = y & a;
  assign y = x | a;
endmodule
|}
  in
  let good =
    flat_of
      {|
module top (input a, output x);
  assign x = ~a;
endmodule
|}
  in
  let raises kernel =
    match Simulator.create ~kernel cyclic with
    | exception Simulator.Combinational_cycle _ -> true
    | _ -> false
  in
  List.iter
    (fun kernel ->
      let k = Simulator.kernel_name kernel in
      check_bool (k ^ ": raises") true (raises kernel);
      check_bool (k ^ ": raises again") true (raises kernel);
      let sim = Simulator.create ~kernel good in
      Simulator.step sim;
      check_int (k ^ ": a good flat still builds") 1 (Simulator.read_int sim "x");
      check_bool (k ^ ": raises after a good build") true (raises kernel))
    [ Simulator.Lowered_dirty; Simulator.Brute_force ]

let suite =
  suite @ reuse_tests
  @ [
      Alcotest.test_case "reset after $finish, with FIFO, RAM and memory"
        `Quick test_reuse_after_finish;
      Alcotest.test_case "reset after a run stopped on done_when" `Quick
        test_reuse_after_done_when;
      Alcotest.test_case "reset drops the display hook and stale inputs"
        `Quick test_reset_drops_hook_and_inputs;
      Alcotest.test_case "elaborate remembers the last design per domain"
        `Quick test_elaborate_memo;
    ]
  @ plan_tests
  @ [
      Alcotest.test_case "a cyclic flat raises on every create" `Quick
        test_cycle_never_memoised;
    ]

(* --- sequential activity skipping ------------------------------------------ *)

(* Run [src] for [cycles] cycles under lowered-dirty and brute force,
   calling [drive sim c] before cycle [c] (inputs, pokes), and require
   identical values (memories included), logs and toggle counts after
   every cycle. Lowered-dirty must have skipped at least one statement
   group, so the case exercises the skip rule it names. Returns the
   lowered-dirty instance. *)
let seq_skip_matches_brute ~name ?(cycles = 48) src drive =
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
        let trace =
          List.init cycles (fun c ->
              drive sim c;
              Simulator.step sim;
              (signal_state flat sim, Simulator.log sim, Simulator.toggle_counts sim))
        in
        (sim, trace))
  in
  let ld, lt = run Simulator.Lowered_dirty in
  let _, bt = run Simulator.Brute_force in
  List.iteri
    (fun c ((lv, ll, lc), (bv, bl, bc)) ->
      if lv <> bv then Alcotest.failf "%s: values diverge at cycle %d" name c;
      if ll <> bl then Alcotest.failf "%s: logs diverge at cycle %d" name c;
      if lc <> bc then Alcotest.failf "%s: toggle counts diverge at cycle %d" name c)
    (List.combine lt bt);
  let rs = Option.get (Simulator.lowered_run_stats ld) in
  check_bool (name ^ ": some group was skipped") true (rs.Lowered.rs_seq_skipped > 0);
  ld

let set sim name w v = Simulator.set_input sim name (b w v)

(* S3's shape: two statements of one block write [out_last], with a
   statement of another group between them. The later write must win,
   also when only the earlier statement's input moves ([last2] follows
   [k] unless [w] holds it at [l]). *)
let test_skip_shared_target_in_block () =
  ignore
    (seq_skip_matches_brute ~name:"two writes of out_last"
       {|
module top (input clk, input v, input l, input k, input w, input [7:0] d,
            output reg out_last, output reg last2, output reg [7:0] cnt,
            output reg [7:0] held);
  always @(posedge clk) begin
    out_last <= 1'b0;
    cnt <= cnt + {7'd0, v};
    if (v) out_last <= l;
    last2 <= k;
    held <= d;
    if (w) last2 <= l;
  end
endmodule
|}
       (fun sim c ->
         set sim "v" 1 (if c mod 7 = 3 || c mod 7 = 4 then 1 else 0);
         set sim "l" 1 (if c mod 5 = 4 then 1 else 0);
         set sim "w" 1 (if c / 10 mod 2 = 1 then 1 else 0);
         set sim "k" 1 (if c mod 3 = 0 then 1 else 0);
         set sim "d" 8 (c / 16)))

(* Block 1 writes [x] only when [c]; block 2 writes it on every edge and
   wins. Block 2 reads nothing and its write never changes [x], so it
   would sleep if a group writing a target another block writes on the
   same edge could. *)
let test_skip_two_blocks_one_target () =
  ignore
    (seq_skip_matches_brute ~name:"two blocks write x"
       {|
module top (input clk, input c, input [7:0] d, output reg x, output reg [7:0] y);
  always @(posedge clk) if (c) x <= 1'b1;
  always @(posedge clk) x <= 1'b0;
  always @(posedge clk) y <= d;
endmodule
|}
       (fun sim c ->
         set sim "c" 1 (if c mod 9 = 5 then 1 else 0);
         set sim "d" 8 (c / 20)))

(* [set_input] pokes a register whose only group sleeps: the poke must
   wake it, so the next edge restores [r], and its comb reader follows. *)
let test_skip_poked_register () =
  ignore
    (seq_skip_matches_brute ~name:"poke a sleeping register"
       {|
module top (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] r;
  reg [7:0] s = 8'd3;
  assign q = r + s;
  always @(posedge clk) r <= d;
  always @(posedge clk) s <= 8'd0;
endmodule
|}
       (fun sim c ->
         set sim "d" 8 (if c < 20 then 5 else 9);
         if c mod 6 = 2 then set sim "r" 8 (40 + c);
         if c mod 11 = 7 then set sim "s" 8 c))

(* Two groups of one block write different words of one memory (they
   share the memory as a target, so they merge), two blocks write
   words of another (so both always run), and a third block reads a
   word back. *)
let test_skip_memory_words () =
  ignore
    (seq_skip_matches_brute ~name:"memory words"
       {|
module top (input clk, input a, input bb, input [7:0] x, input [7:0] y,
            input [1:0] sel, output reg [7:0] q, output reg [7:0] q2);
  reg [7:0] mem [0:3];
  reg [7:0] mem2 [0:3];
  always @(posedge clk) begin
    if (a) mem[0] <= x;
    if (bb) mem[1] <= y;
  end
  always @(posedge clk) if (a) mem2[2] <= x;
  always @(posedge clk) mem2[3] <= y;
  always @(posedge clk) begin
    q <= mem[sel];
    q2 <= mem2[sel];
  end
endmodule
|}
       (fun sim c ->
         set sim "a" 1 (if c mod 8 = 1 then 1 else 0);
         set sim "bb" 1 (if c mod 10 = 6 then 1 else 0);
         set sim "x" 8 (c / 3);
         set sim "y" 8 (c / 12);
         set sim "sel" 2 (c / 13)))

(* A $display in a sequential block whose inputs never change prints on
   every edge, in program order with the block's other displays: in the
   second block the statements printing A and C also write [x], and B
   must still print between them. *)
let test_skip_display_every_edge () =
  let ld =
    seq_skip_matches_brute ~name:"seq display"
      {|
module top (input clk, input [7:0] k, input a, input bb, output reg [7:0] r,
            output reg [7:0] s, output reg x);
  always @(posedge clk) begin
    $display("k=%d", k);
    r <= k;
    if (k == 8'd7) begin
      s <= k;
      $display("seven %d", s);
    end
  end
  always @(posedge clk) begin
    if (a) begin
      $display("A");
      x <= 1'b1;
    end
    $display("B");
    if (bb) begin
      x <= 1'b0;
      $display("C");
    end
  end
endmodule
|}
      (fun sim c ->
        set sim "k" 8 7;
        set sim "a" 1 (if c mod 4 = 1 then 1 else 0);
        set sim "bb" 1 (if c mod 6 < 3 then 1 else 0))
  in
  check_bool "k and seven on every cycle" true
    (List.length (List.filter (fun (_, l) -> l = "k=7") (Simulator.log ld)) = 48)

(* A block with a $finish is one group that runs on every edge: nothing
   after the $finish may run, so [x] keeps 1 and [y] its old value on
   the edge that finishes. *)
let test_skip_finish () =
  let ld =
    seq_skip_matches_brute ~name:"finish"
      {|
module top (input clk, input stop, input [7:0] d, output reg [7:0] x,
            output reg [7:0] y, output reg [7:0] z);
  always @(posedge clk) begin
    x <= 8'd1;
    if (stop) $finish;
    y <= d;
    x <= d + 8'd2;
  end
  always @(posedge clk) z <= 8'd4;
endmodule
|}
      (fun sim c ->
        set sim "stop" 1 (if c = 30 then 1 else 0);
        set sim "d" 8 (c / 4))
  in
  check_bool "finished" true (Simulator.finished ld);
  check_int "x from before the $finish" 1 (Simulator.read_int ld "x")

(* Blocking temporaries: such a block is one group, later statements
   read what earlier ones wrote, and a later block reads the temporary
   on the same edge. [t2] is read before it is written, so the group
   must wake on the change it makes itself; [t3] is written twice
   around a read. *)
let test_skip_blocking_temps () =
  ignore
    (seq_skip_matches_brute ~name:"blocking temps"
       {|
module top (input clk, input [7:0] a, input [7:0] bb, output reg [7:0] r,
            output reg [7:0] s, output reg [7:0] u, output reg [7:0] u2,
            output reg [7:0] x3, output reg [7:0] y3);
  reg [7:0] t, t2, t3;
  always @(posedge clk) begin
    t = a + bb;
    r <= t;
    if (t[0]) s <= s + 8'd1;
  end
  always @(posedge clk) u <= t;
  always @(posedge clk) if (a == 8'd0) r <= 8'd9;
  always @(posedge clk) begin
    u2 <= t2;
    t2 = a;
  end
  always @(posedge clk) begin
    t3 = a;
    x3 <= t3;
    t3 = bb;
    y3 <= t3;
  end
endmodule
|}
       (fun sim c ->
         set sim "a" 8 (c / 10);
         set sim "bb" 8 (if c mod 13 = 0 then c else 1)))

(* A comb plan that is busy on nearly every settle, beside sequential
   groups that sleep: one woken only by a comb output that changes now
   and then (a change made inside a settle), one by a register another
   group commits (a change made outside it). *)
let test_skip_beside_dense_plan () =
  let ld =
    seq_skip_matches_brute ~name:"dense comb plan" ~cycles:60
      {|
module top (input clk, input [7:0] d, input tick, output [7:0] q,
            output reg [7:0] snap, output reg [7:0] seen);
  reg [7:0] r;
  reg [7:0] cnt;
  wire [7:0] w1, w2, w3;
  wire slow;
  assign w1 = d + r;
  assign w2 = w1 ^ r;
  assign w3 = w2 + d;
  assign q = w3;
  assign slow = r[7:6] == 2'b11 && d != 8'd0;
  always @(posedge clk) r <= r + d;
  always @(posedge clk) snap <= {7'd0, slow};
  always @(posedge clk) if (tick) cnt <= cnt + 8'd1;
  always @(posedge clk) seen <= cnt;
endmodule
|}
      (fun sim c ->
        set sim "d" 8 (if c < 50 then ((c * 37) + 1) land 0xff else 0);
        set sim "tick" 1 (if c mod 7 = 3 then 1 else 0))
  in
  let rs = Option.get (Simulator.lowered_run_stats ld) in
  check_bool "groups slept" true (rs.Lowered.rs_seq_skipped > 60)

(* Eight counters that all count for a while, then all idle, then count
   again, beside a register that follows an input changing every cycle:
   the counters' groups run while they count, sleep while they idle,
   and wake again, and the register follows its input throughout. Four
   blocks read a blocking temporary before writing it, from inputs that
   change once in four cycles, each a cycle later than the last: each
   edge on which one of them writes a new temporary must wake it for
   the next. *)
let test_skip_sequential_dense_round_trip () =
  let counters = List.init 8 (fun k -> k + 1) and phases = List.init 4 Fun.id in
  let src =
    String.concat ""
      ([ "module top (input clk, input en, input [7:0] d, output reg [7:0] h,\n";
         "            input [7:0] e0, input [7:0] e1, input [7:0] e2, input [7:0] e3);\n" ]
      @ List.map (fun k -> Printf.sprintf "  reg [7:0] c%d;\n" k) counters
      @ List.map (fun j -> Printf.sprintf "  reg [7:0] t%d, u%d;\n" j j) phases
      @ List.map
          (fun j ->
            Printf.sprintf "  always @(posedge clk) begin\n    u%d <= t%d;\n    t%d = e%d;\n  end\n"
              j j j j)
          phases
      @ [ "  always @(posedge clk) begin\n"; "    h <= d;\n" ]
      @ List.map
          (fun k -> Printf.sprintf "    c%d <= c%d + {7'd0, en};\n" k k)
          counters
      @ [ "  end\nendmodule\n" ])
  in
  let skipped = ref [] in
  ignore
    (seq_skip_matches_brute ~name:"sequential dense round trip" ~cycles:90 src
       (fun sim c ->
         (match Simulator.lowered_run_stats sim with
         | Some r -> skipped := r.Lowered.rs_seq_skipped :: !skipped
         | None -> ());
         set sim "en" 1 (if c < 30 || c >= 60 then 1 else 0);
         set sim "d" 8 c;
         List.iter (fun j -> set sim (Printf.sprintf "e%d" j) 8 ((c + j) / 4)) phases));
  let at c = List.nth (List.rev !skipped) c in
  check_bool "idle counters sleep" true (at 60 > at 30)

(* [reset] and [restore_checkpoint] write values without notifying, so
   every group must be pending after them. A straight run saves a
   checkpoint after setting cycle 20's inputs; a second instance runs
   other inputs (its groups fall asleep on other values), restores that
   checkpoint and finishes the run: it must equal the straight run.
   After [reset] the same instance must equal a fresh one, though the
   group that resets [s] sleeps at the moment of the reset. *)
let test_skip_reset_and_restore () =
  let src =
    {|
module top (input clk, input [7:0] d, output reg [7:0] r, output [7:0] q);
  reg [7:0] s = 8'd3;
  assign q = r + s;
  always @(posedge clk) r <= d;
  always @(posedge clk) s <= 8'd0;
endmodule
|}
  in
  let flat = Elaborate.elaborate (Parser.parse_design src) ~top:"top" in
  let input c = if c < 20 then 5 else 9 in
  List.iter
    (fun kernel ->
      let tag = Simulator.kernel_name kernel in
      let straight = Simulator.create ~kernel flat in
      let ck = ref None and rows = ref [] in
      for c = 0 to 39 do
        set straight "d" 8 (input c);
        if c = 20 then ck := Some (Simulator.save_checkpoint straight);
        Simulator.step straight;
        if c >= 20 then rows := signal_state flat straight :: !rows
      done;
      let other = Simulator.create ~kernel flat in
      for _ = 0 to 9 do
        set other "d" 8 2;
        Simulator.step other
      done;
      Simulator.restore_checkpoint other (Option.get !ck);
      let resumed = ref [] in
      for c = 20 to 39 do
        set other "d" 8 (input c);
        Simulator.step other;
        resumed := signal_state flat other :: !resumed
      done;
      check_bool (tag ^ ": restored run equals the straight run") true (!resumed = !rows);
      Simulator.reset other;
      let fresh = Simulator.create ~kernel flat in
      for c = 0 to 5 do
        set other "d" 8 (input c);
        set fresh "d" 8 (input c);
        Simulator.step other;
        Simulator.step fresh;
        if signal_state flat other <> signal_state flat fresh then
          Alcotest.failf "%s: reset run diverges from a fresh one at cycle %d" tag c
      done)
    [ Simulator.Lowered_dirty; Simulator.Brute_force ]

(* The counters: one group per statement of the idle monitor block, so
   once [d] stops moving its group sleeps while the counter's runs. *)
let test_skip_counters () =
  let sim =
    Testbench.of_source ~top:"top"
      {|
module top (input clk, input [7:0] d, output reg [7:0] cnt, output reg [7:0] prev);
  always @(posedge clk) begin
    cnt <= cnt + 8'd1;
    prev <= d;
  end
endmodule
|}
  in
  set sim "d" 8 4;
  Simulator.run sim 10;
  let rs = Option.get (Simulator.lowered_run_stats sim) in
  check_int "one edge per cycle" 10 rs.Lowered.rs_edges;
  check_int "counter group runs every edge, prev twice" 12 rs.Lowered.rs_seq_run;
  check_int "prev group sleeps" 8 rs.Lowered.rs_seq_skipped

let suite =
  suite
  @ [
      Alcotest.test_case "skip: two writes of one target in a block" `Quick
        test_skip_shared_target_in_block;
      Alcotest.test_case "skip: two blocks write one target" `Quick
        test_skip_two_blocks_one_target;
      Alcotest.test_case "skip: a poke wakes a sleeping register" `Quick
        test_skip_poked_register;
      Alcotest.test_case "skip: memory words" `Quick test_skip_memory_words;
      Alcotest.test_case "skip: seq $display prints every edge" `Quick
        test_skip_display_every_edge;
      Alcotest.test_case "skip: $finish" `Quick test_skip_finish;
      Alcotest.test_case "skip: blocking temporaries" `Quick
        test_skip_blocking_temps;
      Alcotest.test_case "skip: beside a dense comb plan" `Quick
        test_skip_beside_dense_plan;
      Alcotest.test_case "skip: sequential dense round trip" `Quick
        test_skip_sequential_dense_round_trip;
      Alcotest.test_case "skip: reset and restore wake every group" `Quick
        test_skip_reset_and_restore;
      Alcotest.test_case "skip: run and skip counters" `Quick test_skip_counters;
    ]

(* --- memoised wide-concat runs ------------------------------------------- *)

(* A wide concat's immediate runs re-evaluate only after an id they read
   changes. [stage] and [q] mix a per-cycle counter with fields that move
   rarely: a register, an input, a comparison of the two, a memory word,
   a slice of a wide register and a constant. [stage]'s runs are
   {ra, b, ra != a}, {24'hc0ffee, m[k]} and {cyc}, with [wide] between
   them; [q]'s are {ra, b}, {wide[41:0], m[k]} and {cyc}. *)
let memo_src =
  {|
module top (input clk, input [7:0] a, input [15:0] b, input [1:0] k,
            output [170:0] o, output [117:0] q);
  reg [31:0] cyc = 32'd0;
  reg [7:0] ra = 8'd0;
  reg [69:0] wide = 70'd1;
  reg [19:0] m [0:3];
  reg [170:0] stage = 171'd0;
  assign q = {ra, b, wide[41:0], m[k], cyc};
  assign o = stage;
  always @(posedge clk) begin
    cyc <= cyc + 32'd1;
    ra <= a;
    if (a[0]) m[k] <= {a, b[11:0]};
    if (b[15]) wide <= {wide[68:0], wide[69]};
    stage <= {ra, b, (ra != a), wide, 24'hc0ffee, m[k], cyc};
  end
endmodule
|}

(* Both kernels take one path: pokes before every step (inputs, and at
   cycle 17 the register [ra]), a checkpoint taken at cycle 16 and
   restored into the same instance at cycle 40, then [Simulator.reset]
   and a second run. Every signal and memory must agree after every
   step. The restore writes values without notification: [ra] goes from
   0x87 back to 0x42 while the first steps after it poke [a] and [b]
   with the values they already hold, so only [mark_all] makes the
   runs reading them evaluate again. *)
let test_memo_concat_runs () =
  let flat = Elaborate.elaborate (Parser.parse_design memo_src) ~top:"top" in
  let drive sim c =
    set sim "a" 8 (if c < 12 then 0x11 else if c < 25 then 0x42 else 0x87);
    set sim "b" 16 (if c mod 9 < 4 then 0x8001 else 0x0300 + (c / 9));
    set sim "k" 2 (c / 7);
    if c = 17 then set sim "ra" 8 0x5a
  in
  let run kernel =
    let sim = Simulator.create ~kernel flat in
    let states = ref [] in
    let steps lo hi =
      for c = lo to hi do
        drive sim c;
        Simulator.step sim;
        states := signal_state flat sim :: !states
      done
    in
    steps 0 15;
    let ck = Simulator.save_checkpoint sim in
    steps 16 39;
    Simulator.restore_checkpoint sim ck;
    steps 16 39;
    Simulator.reset sim;
    steps 0 29;
    List.rev !states
  in
  let lt = run Simulator.Lowered_dirty and bt = run Simulator.Brute_force in
  check_int "steps" (16 + 24 + 24 + 30) (List.length lt);
  List.iteri
    (fun n (l, b) -> if l <> b then Alcotest.failf "memo: values diverge at step %d" n)
    (List.combine lt bt)

let suite =
  suite
  @ [
      Alcotest.test_case "memo: wide concat runs through poke, restore and reset"
        `Quick test_memo_concat_runs;
    ]

(* A cycle through an always-star block that writes a vector bit by
   index: the block reads the index and the right-hand side, not the
   vector it writes, and the cycle names every signal of the node the
   sort re-entered, in string order (not declaration order). Two blocks
   writing bits of one vector by index read each other's target only
   through the index, so they form no cycle. *)
let test_cycle_through_indexed_write () =
  let names =
    match
      sim_of
        {|
module top (input [1:0] sel, input en, output reg q);
  reg [3:0] bank;
  always @(*) begin
    bank[sel] = en & q;
  end
  always @(*) begin
    q = bank[2];
  end
endmodule
|}
        "top"
    with
    | _ -> []
    | exception Simulator.Combinational_cycle names -> names
  in
  Alcotest.(check (list string)) "cycle names" [ "bank"; "en"; "q"; "sel" ] names;
  let sim =
    sim_of
      {|
module top (input [1:0] i, input [1:0] j, input a, input b, output [3:0] o);
  reg [3:0] v;
  always @(*) begin
    v[i] = a;
  end
  always @(*) begin
    v[j] = b;
  end
  assign o = v;
endmodule
|}
      "top"
  in
  Simulator.set_input sim "i" (b 2 1);
  Simulator.set_input sim "j" (b 2 3);
  Simulator.set_input sim "a" (b 1 1);
  Simulator.set_input sim "b" (b 1 1);
  Simulator.step sim;
  check_int "both bits written" 0b1010 (Simulator.read_int sim "o")

let suite =
  suite
  @ [
      Alcotest.test_case "cycle through an indexed always-star write" `Quick
        test_cycle_through_indexed_write;
    ]

(* --- tabulated stimuli ------------------------------------------------- *)

let rows_of stim cycles = List.init cycles stim

let hex_row row = List.map (fun (n, v) -> (n, Bits.to_hex_string v)) row

let check_rows msg expected actual =
  Alcotest.(check (list (list (pair string string))))
    msg (List.map hex_row expected) (List.map hex_row actual)

let block = Testbench.table_block
let ceiling = Testbench.table_ceiling

let test_tabulate_duplicates () =
  let f = function
    | 0 -> [ ("a", b 4 1); ("b", b 4 2); ("a", b 4 3) ]
    | 1 -> [ ("b", b 4 2); ("a", b 4 5); ("a", b 4 3) ]
    | c when c < block + 2 ->
        [ ("a", b 4 1); ("a", b 4 3); ("b", b 4 7); ("b", b 4 2) ]
    | _ -> [ ("a", b 4 3); ("b", b 4 2); ("a", b 4 6); ("b", b 4 2) ]
  in
  let t = Testbench.tabulate f in
  check_rows "last binding wins, at its first position"
    [ [ ("a", b 4 3); ("b", b 4 2) ]; []; [] ]
    (rows_of t 3);
  check_rows "past the first block: changes, not full rows"
    [ []; []; [ ("a", b 4 6) ]; [] ]
    (List.init 4 (fun i -> t (block + i)))

let test_tabulate_late_name () =
  let f c =
    if c < 3 then [ ("a", b 1 1) ] else [ ("a", b 1 1); ("nope", b 1 0) ]
  in
  let t = Testbench.tabulate f in
  check_rows "a new name is a change at its first cycle"
    [ [ ("a", b 1 1) ]; []; []; [ ("nope", b 1 0) ]; []; [] ]
    (rows_of t 6);
  (* an input the design lacks raises at the same cycle as the closure *)
  let raised_at stim =
    let sim =
      sim_of "module top (input a, output o);\n  assign o = a;\nendmodule\n"
        "top"
    in
    match Testbench.run ~max_cycles:6 sim stim with
    | _ -> None
    | exception Invalid_argument _ -> Some (Simulator.cycle sim)
  in
  Alcotest.(check (option int)) "raises at cycle 3" (raised_at f) (raised_at t);
  Alcotest.(check (option int)) "closure raises" (Some 3) (raised_at f)

let test_tabulate_width () =
  let f = function
    | 0 -> [ ("a", b 1 1) ]
    | 1 -> [ ("a", b 8 1) ]
    | 2 -> [ ("a", b 8 1) ]
    | _ -> [ ("a", b 1 1) ]
  in
  let t = Testbench.tabulate f in
  check_rows "equal bits at a new width are a change"
    [ [ ("a", b 1 1) ]; [ ("a", b 8 1) ]; []; [ ("a", b 1 1) ] ]
    (rows_of t 4);
  let run stim =
    let sim =
      sim_of
        "module top (input [3:0] a, output [3:0] o);\n  assign o = a;\nendmodule\n"
        "top"
    in
    List.init 5 (fun c ->
        List.iter (fun (n, v) -> Simulator.set_input sim n v) (stim c);
        Simulator.step sim;
        Simulator.read_int sim "o")
  in
  Alcotest.(check (list int)) "same outputs" (run f) (run t)

(* A table starts with zero cycles built: a negative cycle returns the
   closure's row and builds nothing, and a read at or past 0 builds
   whole blocks, each row once. *)
let test_tabulate_bounds () =
  let calls = ref 0 in
  let f c =
    incr calls;
    [ ("a", b 8 (c land 0xff)) ]
  in
  let below = f (-1) in
  let t = Testbench.tabulate f in
  calls := 0;
  check_rows "negative cycle: the closure's row" [ below ] [ t (-1) ];
  check_int "a negative cycle builds nothing" 1 !calls;
  calls := 0;
  ignore (rows_of t 4);
  check_int "the first read builds one block" block !calls;
  calls := 0;
  ignore (rows_of t (block + 4));
  ignore (rows_of t (block + 4));
  ignore (t (2 * block - 1));
  check_int "each row is built once" block !calls;
  calls := 0;
  check_rows "a negative cycle after growth: still the closure's row" [ below ]
    [ t (-1) ];
  check_int "and still builds nothing" 1 !calls

let test_tabulate_domains () =
  let f c = [ ("a", b 8 (c / 3)); ("b", b 1 (c land 1)) ] in
  let t () = Testbench.tabulate f in
  let expected = rows_of (t ()) 200 in
  let shared = t () in
  let rows =
    List.map Domain.join
      (List.init 2 (fun _ -> Domain.spawn (fun () -> rows_of shared 200)))
  in
  List.iter (check_rows "racing domains read equal tables" expected) rows

(* A reference for the table: [f]'s rows cut to their changes by a
   plain fold from cycle 0. *)
let reference_changes f cycles =
  let held = Hashtbl.create 8 in
  List.init cycles (fun c ->
      List.filter
        (fun (n, v) ->
          match Hashtbl.find_opt held n with
          | Some old when Bits.equal old v -> false
          | _ ->
              Hashtbl.replace held n v;
              true)
        (f c))

(* names that change on different periods, so every block boundary
   falls inside some name's run of equal values *)
let periodic c =
  [
    ("a", b 8 (c / 7 land 0xff));
    ("b", b 1 (c / 100 land 1));
    ("c", b 4 (c / 300 land 0xf));
  ]

let test_tabulate_blocks () =
  let cycles = (3 * block) + 17 in
  let expected = reference_changes periodic cycles in
  let t = Testbench.tabulate periodic in
  check_rows "rows across three block boundaries: the closure's changes"
    expected (rows_of t cycles);
  (* read out of order: a far cycle first builds the blocks before it *)
  let u = Testbench.tabulate periodic in
  check_rows "a far cycle read first"
    [ List.nth expected (cycles - 1) ]
    [ u (cycles - 1) ];
  check_rows "then the earlier rows" expected (rows_of u cycles)

let test_tabulate_ceiling () =
  let t = Testbench.tabulate periodic in
  List.iter
    (fun c ->
      check_rows (Printf.sprintf "cycle %d: the full row" c) [ periodic c ] [ t c ])
    [ ceiling; ceiling + 1; ceiling + 1000; max_int ];
  check_rows "just below the ceiling: a change row"
    [ List.nth (reference_changes periodic ceiling) (ceiling - 1) ]
    [ t (ceiling - 1) ];
  let run stim =
    let sim =
      sim_of
        "module top (input [7:0] a, input b, input [3:0] c, output [7:0] o);\n\
        \  assign o = a ^ {3'b0, c, b};\nendmodule\n"
        "top"
    in
    List.init (ceiling + 20) (fun c ->
        List.iter (fun (n, v) -> Simulator.set_input sim n v) (stim c);
        Simulator.step sim;
        Simulator.read_int sim "o")
  in
  Alcotest.(check bool) "an in-order run across the ceiling: the closure's outputs"
    true
    (run periodic = run (Testbench.tabulate periodic))

let test_tabulate_race_blocks () =
  let cycles = (4 * block) + 3 in
  let expected = reference_changes periodic cycles in
  for _ = 1 to 4 do
    let shared = Testbench.tabulate periodic in
    let rows =
      List.map Domain.join
        (List.init 2 (fun _ -> Domain.spawn (fun () -> rows_of shared cycles)))
    in
    List.iter (check_rows "domains racing through block boundaries" expected) rows
  done

(* --- rows as text --------------------------------------------------- *)

(* The reader returns the rows the printer wrote: empty rows, repeated
   cycles and names, and any int value included. *)
let prop_rows_round_trip =
  let name =
    QCheck2.Gen.(
      map2
        (fun c rest -> String.make 1 c ^ rest)
        (char_range 'a' 'z')
        (string_size ~gen:(oneofl [ 'a'; 'z'; '_'; '0'; '9' ]) (int_bound 6)))
  in
  QCheck2.Test.make ~count:200 ~name:"rows: print then read is the identity"
    QCheck2.Gen.(
      list_size (int_bound 8)
        (pair (int_bound 20) (list_size (int_bound 4) (pair name int))))
    (fun rows ->
      Testbench.read_rows ~check:(fun _ -> None) (Testbench.print_rows rows)
      = rows)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_rows_round_trip;
      Alcotest.test_case "tabulate: duplicate names in one row" `Quick
        test_tabulate_duplicates;
      Alcotest.test_case "tabulate: a name first seen late" `Quick
        test_tabulate_late_name;
      Alcotest.test_case "tabulate: equal bits at another width" `Quick
        test_tabulate_width;
      Alcotest.test_case "tabulate: zero cycles and negative cycles" `Quick
        test_tabulate_bounds;
      Alcotest.test_case "tabulate: two domains share one table" `Quick
        test_tabulate_domains;
      Alcotest.test_case "tabulate: rows across block boundaries" `Quick
        test_tabulate_blocks;
      Alcotest.test_case "tabulate: full rows from the ceiling on" `Quick
        test_tabulate_ceiling;
      Alcotest.test_case "tabulate: domains race through block boundaries"
        `Quick test_tabulate_race_blocks;
    ]

(* --- $display formats ----------------------------------------------------- *)

(* Every case of a [%] the directive set does not cover: an unknown
   directive keeps its [0] prefix, a trailing [%] or [%0] stays as it
   is, and [%0%] is [%%]. *)
let test_display_verbatim () =
  List.iter
    (fun (fmt, expected) ->
      Alcotest.(check string) (Printf.sprintf "%S" fmt) expected
        (Display.render fmt [ b 8 65 ]))
    [
      ("%0q", "%0q");
      ("%q", "%q");
      ("x%0qy%d", "x%0qy65");
      ("%00d", "%00d");
      ("100%", "100%");
      ("%d%", "65%");
      ("%0", "%0");
      ("%d %0", "65 %0");
      ("%%", "%");
      ("%0%", "%");
      ("%0%d", "%d");
      ("%0d %0h %0b %0c", "65 <missing> <missing> <missing>");
    ]

(* [%d] prints every bit of its argument, also past an int's 62 value
   bits: a 63-bit value with its top bit set, 64 bits and wider. *)
let test_display_wide_dec () =
  List.iter
    (fun (arg, expected) ->
      Alcotest.(check string) (Bits.to_string arg) expected
        (Display.render "%d" [ arg ]))
    [
      (Bits.ones 64, "18446744073709551615");
      (Bits.shift_left (Bits.one 64) 62, "4611686018427387904");
      (Bits.ones 63, "9223372036854775807");
      (Bits.shift_left (Bits.one 63) 62, "4611686018427387904");
      (Bits.of_hex_string ~width:63 "6a09e667f3bcc908", "7640891576956012808");
      (Bits.of_hex_string ~width:100 "fedcba9876543210fedcba987",
       "1262016597560548382007796410759");
      (Bits.zero 100, "0");
    ]

(* The renderer before formats were compiled, copied as it was but for
   [%d]: the oracle for the compiled one. Its hex and binary strings
   come from [Bits], whose own property (test_bits) checks them against
   [Bits.Naive]; its decimal is built from [Bits.Naive] directly, the
   full unsigned value at every width. *)
let reference_render (fmt : string) (args : Bits.t list) : string =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let next_arg () =
    match !args with
    | [] -> None
    | a :: rest ->
        args := rest;
        Some a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c <> '%' || !i = n - 1 then (
      Buffer.add_char buf c;
      incr i)
    else (
      (* skip an optional 0 width prefix, as in %0d *)
      let j = if fmt.[!i + 1] = '0' && !i + 2 < n then !i + 2 else !i + 1 in
      let spec = fmt.[j] in
      (match spec with
      | '%' -> Buffer.add_char buf '%'
      | 'd' -> (
          match next_arg () with
          | Some a -> Buffer.add_string buf (Test_bits.naive_dec a)
          | None -> Buffer.add_string buf "<missing>")
      | 'h' | 'x' -> (
          match next_arg () with
          | Some a -> Buffer.add_string buf (Bits.to_hex_string a)
          | None -> Buffer.add_string buf "<missing>")
      | 'b' -> (
          match next_arg () with
          | Some a -> Buffer.add_string buf (Bits.to_binary_string a)
          | None -> Buffer.add_string buf "<missing>")
      | 'c' -> (
          match next_arg () with
          | Some a ->
              Buffer.add_char buf (Char.chr (Bits.to_int_trunc a land 0xFF))
          | None -> Buffer.add_string buf "<missing>")
      | other ->
          Buffer.add_char buf '%';
          Buffer.add_char buf other);
      i := j + 1)
  done;
  Buffer.contents buf

(* The oracle drops the [0] of [%0] before an unknown directive, which
   the compiled renderer keeps (pinned above). Dropping it from the
   format first, until none is left, takes that case out of the
   comparison and leaves every other format as drawn. *)
let rec without_dropped_zero fmt =
  let n = String.length fmt in
  let rec find i =
    if i + 2 >= n then None
    else if
      fmt.[i] = '%' && fmt.[i + 1] = '0' && not (String.contains "%dhxbc" fmt.[i + 2])
    then Some (i + 1)
    else find (i + 1)
  in
  match find 0 with
  | None -> fmt
  | Some z ->
      without_dropped_zero
        (String.sub fmt 0 z ^ String.sub fmt (z + 1) (n - z - 1))

let gen_display_case =
  QCheck2.Gen.(
    let token =
      oneofl [ "%"; "%"; "%"; "0"; "d"; "h"; "x"; "b"; "c"; "q"; "v="; " " ]
    in
    let width = oneof [ oneofl [ 1; 8; 31; 32; 33; 62; 63; 64; 65; 130 ]; int_range 1 130 ] in
    let arg =
      width >>= fun w ->
      list_size (return ((w + 3) / 4)) (int_bound 15) >|= fun digits ->
      Bits.of_hex_string ~width:w
        (String.concat "" (List.map (Printf.sprintf "%x") digits))
    in
    pair (list_size (int_bound 12) token >|= String.concat "")
      (list_size (int_bound 5) arg))

let prop_display_compiled =
  QCheck2.Test.make ~count:1000 ~name:"display: compiled render = reference"
    ~print:(fun (fmt, args) ->
      Printf.sprintf "%S [%s]" fmt (String.concat "; " (List.map Bits.to_string args)))
    gen_display_case
    (fun (fmt, args) ->
      let fmt = without_dropped_zero fmt in
      Display.render fmt args = reference_render fmt args)

let suite =
  suite
  @ [
      Alcotest.test_case "display: unknown directives verbatim" `Quick
        test_display_verbatim;
      Alcotest.test_case "display: %d at wide widths" `Quick
        test_display_wide_dec;
      QCheck_alcotest.to_alcotest prop_display_compiled;
    ]
