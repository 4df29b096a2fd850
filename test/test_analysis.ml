(* Unit tests for the static analyses: path constraints, dependency
   graphs, FSM detection heuristics, propagation relations, widths, and
   IP models. *)

open Fpga_hdl
open Fpga_analysis
module Losscheck = Fpga_debug.Losscheck
module Dep_monitor = Fpga_debug.Dep_monitor
module Bits = Fpga_bits.Bits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_strings = Alcotest.(check (list string))

let parse = Parser.parse_module

(* --- path constraints -------------------------------------------------- *)

let test_path_constraints () =
  let m =
    parse
      {|
module m (input clk, input a, input b, input [1:0] s, output reg [7:0] x);
  always @(posedge clk) begin
    if (a) begin
      x <= 8'd1;
      if (b) x <= 8'd2;
    end else begin
      case (s)
        2'd0: x <= 8'd3;
        2'd1, 2'd2: x <= 8'd4;
        default: x <= 8'd5;
      endcase
    end
  end
endmodule
|}
  in
  let a = List.hd m.Ast.always_blocks in
  let assigns = Path_constraint.assignments_of_always a in
  check_int "five assignments" 5 (List.length assigns);
  let cond_of v =
    List.filter_map
      (fun (_, rhs, cond) ->
        if rhs = Ast.Const (Bits.of_int ~width:8 v) then
          Some (Pp_verilog.expr_str cond)
        else None)
      assigns
    |> List.hd
  in
  Alcotest.(check string) "plain if" "a" (cond_of 1);
  Alcotest.(check string) "nested if" "(a && b)" (cond_of 2);
  check_bool "case arm mentions scrutinee" true
    (let c = cond_of 3 in
     String.length c > 0 && String.sub c 0 2 = "(!");
  check_bool "multi-label arm is a disjunction" true
    (let c = cond_of 4 in
     let contains s sub =
       let n = String.length sub and h = String.length s in
       let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains c "||");
  check_bool "default negates all labels" true
    (let c = cond_of 5 in
     String.length c > String.length (cond_of 3))

let test_display_constraints () =
  let m =
    parse
      {|
module m (input clk, input go);
  always @(posedge clk) begin
    if (go) $display("fired");
  end
endmodule
|}
  in
  match Path_constraint.displays_of_always (List.hd m.Ast.always_blocks) with
  | [ (fmt, [], cond) ] ->
      Alcotest.(check string) "format" "fired" fmt;
      Alcotest.(check string) "condition" "go" (Pp_verilog.expr_str cond)
  | _ -> Alcotest.fail "expected one display"

(* --- dependency graphs -------------------------------------------------- *)

let pipeline_src =
  {|
module pipe (input clk, input [7:0] d, input en, output [7:0] q);
  reg [7:0] s1, s2, s3;
  wire [7:0] w;
  assign w = s1 + 8'd1;
  assign q = s3;
  always @(posedge clk) begin
    if (en) s1 <= d;
    s2 <= w;
    s3 <= s2;
  end
endmodule
|}

let test_backward_closure () =
  let m = parse pipeline_src in
  let g = Deps.of_module m in
  let chain3 = Deps.backward_closure g ~target:"s3" ~cycles:3 in
  check_bool "s3 depends on d within 3 cycles" true (List.mem "d" chain3);
  check_bool "closure includes control source en" true (List.mem "en" chain3);
  let chain1 = Deps.backward_closure g ~target:"s3" ~cycles:1 in
  check_bool "1 cycle reaches s2" true (List.mem "s2" chain1);
  check_bool "1 cycle does not reach d" false (List.mem "d" chain1);
  let data_only = Deps.backward_closure ~data_only:true g ~target:"s3" ~cycles:3 in
  check_bool "data-only chain drops en" false (List.mem "en" data_only);
  check_bool "data-only chain keeps d" true (List.mem "d" data_only)

(* Forward reach through LossCheck's propagation relations: d's data
   reaches q through every pipeline register, and the wire w between s1
   and s2 is expanded to its storage source. *)
let test_forward_closure () =
  let m = parse pipeline_src in
  let spec =
    { Losscheck.source = "d"; valid = Ast.Ident "en"; sink = "q" }
  in
  let plan = Losscheck.analyze spec m in
  check_strings "d reaches q through" [ "s1"; "s2"; "s3" ]
    plan.Losscheck.scalar_checks;
  check_bool "w expands to s1" true
    (List.exists
       (fun (r : Losscheck.relation) -> r.Losscheck.src = "s1" && r.dst = "s2")
       plan.Losscheck.relations);
  check_bool "no relation names the wire" false
    (List.exists
       (fun (r : Losscheck.relation) -> r.Losscheck.src = "w" || r.dst = "w")
       plan.Losscheck.relations)

let test_control_cycles_absent () =
  let m = parse pipeline_src in
  let g = Deps.of_module m in
  check_int "no control cycles in a pipeline" 0
    (List.length (Deps.control_cycles g))

(* --- FSM detection ------------------------------------------------------ *)

let test_fsm_detect_positive () =
  let m =
    parse
      {|
module fsm (input clk, input go, input done_sig, output [1:0] so);
  localparam IDLE = 2'd0;
  localparam RUN = 2'd1;
  localparam FIN = 2'd2;
  reg [1:0] state;
  assign so = state;
  always @(posedge clk) begin
    case (state)
      IDLE: if (go) state <= RUN;
      RUN: if (done_sig) state <= FIN;
      FIN: state <= IDLE;
    endcase
  end
endmodule
|}
  in
  match Fsm_detect.detect m with
  | [ f ] ->
      Alcotest.(check string) "variable" "state" f.Fsm_detect.state_var;
      check_int "three named states" 3 (List.length f.Fsm_detect.state_names);
      Alcotest.(check string)
        "value 1 is RUN" "RUN"
        (Fsm_detect.state_name f (Bits.of_int ~width:2 1))
  | l -> Alcotest.failf "expected exactly one FSM, got %d" (List.length l)

let test_fsm_detect_rejects_counter () =
  let m =
    parse
      {|
module c (input clk, output [3:0] o);
  reg [3:0] count;
  assign o = count;
  always @(posedge clk) count <= count + 4'd1;
endmodule
|}
  in
  check_int "a counter is not an FSM" 0 (List.length (Fsm_detect.detect m))

let test_fsm_detect_rejects_datapath () =
  let m =
    parse
      {|
module d (input clk, input [7:0] din, output [7:0] o);
  reg [7:0] hold;
  assign o = hold;
  always @(posedge clk) hold <= din;
endmodule
|}
  in
  check_int "a data register is not an FSM" 0 (List.length (Fsm_detect.detect m))

let test_fsm_detect_rejects_bit_selected () =
  (* state-shaped register disqualified by bit selection elsewhere *)
  let m =
    parse
      {|
module b (input clk, input go, output o);
  reg [1:0] mode;
  assign o = mode[0];
  always @(posedge clk) begin
    case (mode)
      2'd0: if (go) mode <= 2'd1;
      2'd1: mode <= 2'd0;
    endcase
  end
endmodule
|}
  in
  check_int "bit-selected register rejected" 0 (List.length (Fsm_detect.detect m))

(* --- widths ------------------------------------------------------------- *)

let test_widths () =
  let m =
    parse
      {|
module w (input [7:0] a, input [15:0] b, input c, output [7:0] o);
  reg [7:0] mem [0:3];
  wire [23:0] cat;
  assign cat = {b, a};
  assign o = a;
endmodule
|}
  in
  let width e = Width.of_expr m e in
  check_int "ident" 8 (width (Ast.Ident "a"));
  check_int "binop max" 16 (width (Ast.Binop (Ast.Add, Ast.Ident "a", Ast.Ident "b")));
  check_int "compare is 1" 1 (width (Ast.Binop (Ast.Lt, Ast.Ident "a", Ast.Ident "b")));
  check_int "concat sums" 24 (width (Ast.Concat [ Ast.Ident "b"; Ast.Ident "a" ]));
  check_int "memory word" 8 (width (Ast.Index ("mem", Ast.Ident "c")));
  check_int "vector bit" 1 (width (Ast.Index ("a", Ast.Ident "c")));
  check_int "range" 4 (width (Ast.Range ("a", 5, 2)));
  check_int "cond max" 16
    (width (Ast.Cond (Ast.Ident "c", Ast.Ident "a", Ast.Ident "b")));
  check_int "repeat" 16 (width (Ast.Repeat (2, Ast.Ident "a")));
  check_int "clog2 1" 1 (Width.clog2 1);
  check_int "clog2 8" 3 (Width.clog2 8);
  check_int "clog2 9" 4 (Width.clog2 9);
  Alcotest.check_raises "unknown signal" (Width.Unknown_width "zz") (fun () ->
      ignore (width (Ast.Ident "zz")))

(* --- propagation relations ---------------------------------------------- *)

let test_propagation_table () =
  (* the running example of section 4.5.1 *)
  let m =
    parse
      {|
module ex (input clk, input cond_a, input cond_b, input in_valid,
           input [7:0] in, input [7:0] a, output reg [7:0] out);
  reg [7:0] b;
  always @(posedge clk) begin
    if (cond_a) out <= a;
    else if (cond_b) out <= b;
    if (in_valid) b <= in;
  end
endmodule
|}
  in
  let spec =
    { Losscheck.source = "in"; valid = Ast.Ident "in_valid"; sink = "out" }
  in
  let table = Losscheck.effective_relations m spec in
  let rel src dst =
    List.find_opt
      (fun (r : Losscheck.relation) -> r.Losscheck.src = src && r.dst = dst)
      table
  in
  check_bool "a ~> out" true (rel "a" "out" <> None);
  check_bool "b ~> out" true (rel "b" "out" <> None);
  check_bool "in ~> b" true (rel "in" "b" <> None);
  (match rel "b" "out" with
  | Some r ->
      Alcotest.(check string)
        "b's condition is !cond_a && cond_b" "(!(cond_a) && cond_b)"
        (Pp_verilog.expr_str r.Losscheck.cond)
  | None -> Alcotest.fail "missing relation");
  (match rel "in" "b" with
  | Some r ->
      Alcotest.(check string) "in's condition" "in_valid"
        (Pp_verilog.expr_str r.Losscheck.cond)
  | None -> Alcotest.fail "missing relation");
  let plan = Losscheck.analyze spec m in
  check_strings "propagation sequence" [ "b" ] plan.Losscheck.scalar_checks;
  check_strings "no memories" [] plan.Losscheck.memory_checks

(* --- IP models ----------------------------------------------------------- *)

let test_ip_models () =
  let m =
    parse
      {|
module f (input clk, input [7:0] din, input push, input pop,
          output [7:0] q_out, output fifo_full);
  scfifo #(.lpm_width(8), .lpm_numwords(4)) u0 (
    .clock(clk), .data(din), .wrreq(push), .rdreq(pop),
    .q(q_out), .full(fifo_full));
endmodule
|}
  in
  let i = List.hd m.Ast.instances in
  (match Ip_models.data_path i with
  | Some p ->
      Alcotest.(check string) "data actual" "din"
        (Pp_verilog.expr_str p.Ip_models.data);
      Alcotest.(check string) "write gates on full" "(push && !(fifo_full))"
        (Pp_verilog.expr_str p.Ip_models.write);
      Alcotest.(check string) "data output" "q_out" p.Ip_models.q
  | None -> Alcotest.fail "missing IP data path");
  check_bool "no model for unknown" true
    (Ip_models.data_path { i with Ast.target = "mystery_ip" } = None);
  check_bool "no model without a data output" true
    (Ip_models.data_path
       { i with Ast.conns = List.filter (fun c -> c.Ast.formal <> "q") i.Ast.conns }
     = None);
  let spec =
    { Losscheck.source = "din"; valid = Ast.Ident "push"; sink = "q_out" }
  in
  check_strings "losscheck relation through the fifo"
    [ "din ~>[(push && !(fifo_full))] q_out" ]
    (List.map
       (fun (r : Losscheck.relation) ->
         Printf.sprintf "%s ~>[%s] %s" r.Losscheck.src
           (Pp_verilog.expr_str r.cond) r.dst)
       (Losscheck.effective_relations m spec));
  let dep = Dep_monitor.analyze ~target:"q_out" ~cycles:1 m in
  check_strings "dependency chain through the fifo" [ "din"; "q_out" ]
    dep.Dep_monitor.chain

let suite =
  [
    Alcotest.test_case "path constraints" `Quick test_path_constraints;
    Alcotest.test_case "display constraints" `Quick test_display_constraints;
    Alcotest.test_case "backward closure" `Quick test_backward_closure;
    Alcotest.test_case "forward closure" `Quick test_forward_closure;
    Alcotest.test_case "no control cycles in pipeline" `Quick
      test_control_cycles_absent;
    Alcotest.test_case "fsm detect positive" `Quick test_fsm_detect_positive;
    Alcotest.test_case "fsm rejects counter" `Quick
      test_fsm_detect_rejects_counter;
    Alcotest.test_case "fsm rejects datapath" `Quick
      test_fsm_detect_rejects_datapath;
    Alcotest.test_case "fsm rejects bit-selected" `Quick
      test_fsm_detect_rejects_bit_selected;
    Alcotest.test_case "widths" `Quick test_widths;
    Alcotest.test_case "propagation table" `Quick test_propagation_table;
    Alcotest.test_case "ip models" `Quick test_ip_models;
  ]

(* --- lint ---------------------------------------------------------------- *)

let lint_findings src rule =
  let m = parse src in
  List.filter (fun (f : Lint.finding) -> f.Lint.rule = rule) (Lint.check m)

let test_lint_unused () =
  let fs =
    lint_findings
      {|
module m (input clk, output reg [7:0] o);
  reg [7:0] ghost;
  always @(posedge clk) o <= o + 8'd1;
endmodule
|}
      "unused"
  in
  check_int "one unused" 1 (List.length fs);
  Alcotest.(check string) "ghost flagged" "ghost" (List.hd fs).Lint.signal

let test_lint_undriven () =
  let fs =
    lint_findings
      {|
module m (input clk, output reg [7:0] o);
  reg [7:0] phantom;
  always @(posedge clk) o <= phantom;
endmodule
|}
      "undriven"
  in
  check_int "one undriven" 1 (List.length fs)

let test_lint_multiple_drivers () =
  let fs =
    lint_findings
      {|
module m (input clk, input a, output reg [7:0] o);
  always @(posedge clk) if (a) o <= 8'd1;
  always @(posedge clk) if (!a) o <= 8'd2;
endmodule
|}
      "multiple-drivers"
  in
  check_int "conflict found" 1 (List.length fs)

let test_lint_truncation () =
  (* the D5 bit-truncation shape is flagged *)
  let fs =
    lint_findings
      {|
module m (input clk, input [63:0] right, output reg [41:0] left);
  always @(posedge clk) left <= right >> 6;
endmodule
|}
      "truncation"
  in
  check_int "truncation flagged" 1 (List.length fs);
  (* counters incremented by literals are not flagged *)
  let clean =
    lint_findings
      {|
module m (input clk, output reg [3:0] n);
  always @(posedge clk) n <= n + 4'd1;
endmodule
|}
      "truncation"
  in
  check_int "counter not flagged" 0 (List.length clean)

let test_lint_overflow_prone () =
  (* the D1 buffer-overflow shape: 4-bit index into 12 entries *)
  let fs =
    lint_findings
      {|
module m (input clk, input [3:0] i, input [7:0] d, output [7:0] o);
  reg [7:0] buf12 [0:11];
  assign o = buf12[i];
  always @(posedge clk) buf12[i] <= d;
endmodule
|}
      "overflow-prone"
  in
  check_bool "flagged at least once" true (List.length fs >= 1);
  (* a power-of-two buffer wraps instead of dropping: not this rule *)
  let pow2 =
    lint_findings
      {|
module m (input clk, input [3:0] i, input [7:0] d, output [7:0] o);
  reg [7:0] buf16 [0:15];
  assign o = buf16[i];
  always @(posedge clk) buf16[i] <= d;
endmodule
|}
      "overflow-prone"
  in
  check_int "pow2 not flagged" 0 (List.length pow2)

let test_lint_incomplete_case () =
  let fs =
    lint_findings
      {|
module m (input clk, input [1:0] s, output reg [7:0] o);
  always @(posedge clk) begin
    case (s)
      2'd0: o <= 8'd1;
      2'd1: o <= 8'd2;
    endcase
  end
endmodule
|}
      "incomplete-case"
  in
  check_int "incomplete case flagged" 1 (List.length fs);
  let with_default =
    lint_findings
      {|
module m (input clk, input [1:0] s, output reg [7:0] o);
  always @(posedge clk) begin
    case (s)
      2'd0: o <= 8'd1;
      default: o <= 8'd0;
    endcase
  end
endmodule
|}
      "incomplete-case"
  in
  check_int "default silences" 0 (List.length with_default)

let test_lint_smoke_over_testbed () =
  (* the linter runs cleanly over every testbed design *)
  List.iter
    (fun (bug : Fpga_testbed.Bug.t) ->
      let design = Fpga_testbed.Bug.design_of bug ~buggy:true in
      let results = Lint.check_design design in
      check_bool (bug.Fpga_testbed.Bug.id ^ " linted") true
        (List.length results >= 1))
    Fpga_testbed.Registry.all

let suite =
  suite
  @ [
      Alcotest.test_case "lint unused" `Quick test_lint_unused;
      Alcotest.test_case "lint undriven" `Quick test_lint_undriven;
      Alcotest.test_case "lint multiple drivers" `Quick
        test_lint_multiple_drivers;
      Alcotest.test_case "lint truncation" `Quick test_lint_truncation;
      Alcotest.test_case "lint overflow-prone" `Quick test_lint_overflow_prone;
      Alcotest.test_case "lint incomplete case" `Quick
        test_lint_incomplete_case;
      Alcotest.test_case "lint smoke over testbed" `Quick
        test_lint_smoke_over_testbed;
    ]

(* --- slice-precise dependencies (section 4.3) ---------------------------- *)

let test_slice_precision () =
  (* the partial-assignment example: the halves of [packed] have
     independent drivers, and the slice-precise chain keeps them apart *)
  let m =
    parse
      {|
module m (input clk, input [7:0] a, input [7:0] b, output reg [7:0] lo_out,
          output reg [7:0] hi_out);
  reg [15:0] packed_word;
  always @(posedge clk) begin
    packed_word[7:0] <= a;
    packed_word[15:8] <= b;
    lo_out <= packed_word[7:0];
    hi_out <= packed_word[15:8];
  end
endmodule
|}
  in
  (* name-level analysis conflates the halves... *)
  let coarse = Deps.backward_closure (Deps.of_module m) ~target:"lo_out" ~cycles:4 in
  check_bool "coarse chain includes b" true (List.mem "b" coarse);
  (* ...the slice-precise analysis does not *)
  let fine = Deps.backward_closure_sliced m ~target:"lo_out" ~cycles:4 in
  check_bool "sliced chain includes a" true (List.mem "a" fine);
  check_bool "sliced chain excludes b" false (List.mem "b" fine);
  let fine_hi = Deps.backward_closure_sliced m ~target:"hi_out" ~cycles:4 in
  check_bool "hi chain includes b" true (List.mem "b" fine_hi);
  check_bool "hi chain excludes a" false (List.mem "a" fine_hi)

let test_slice_overlap_rules () =
  let s name hi lo = { Deps.s_name = name; s_hi = hi; s_lo = lo } in
  check_bool "disjoint" false (Deps.overlaps (s "x" 7 0) (s "x" 15 8));
  check_bool "adjacent overlap at edge" true (Deps.overlaps (s "x" 8 0) (s "x" 15 8));
  check_bool "containment" true (Deps.overlaps (s "x" 15 0) (s "x" 7 4));
  check_bool "different names" false (Deps.overlaps (s "x" 7 0) (s "y" 7 0))

let test_slice_variable_index_conservative () =
  (* a variable bit-select write covers the whole vector, so slice
     precision degrades gracefully to the name-level answer *)
  let m =
    parse
      {|
module m (input clk, input [7:0] a, input [2:0] i, output reg o);
  reg [7:0] v;
  always @(posedge clk) begin
    v[i] <= a[0];
    o <= v[7];
  end
endmodule
|}
  in
  let fine = Deps.backward_closure_sliced m ~target:"o" ~cycles:4 in
  check_bool "variable-index write reaches the read" true (List.mem "a" fine);
  check_bool "index is a control dependency" true (List.mem "i" fine)

let suite =
  suite
  @ [
      Alcotest.test_case "slice precision" `Quick test_slice_precision;
      Alcotest.test_case "slice overlap rules" `Quick test_slice_overlap_rules;
      Alcotest.test_case "slice variable index" `Quick
        test_slice_variable_index_conservative;
    ]
