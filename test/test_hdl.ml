(* Tests for the Verilog-subset lexer, parser, printer, and builder. *)

open Fpga_hdl
module Bits = Fpga_bits.Bits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let counter_src =
  {|
// simple counter with an enable
module counter (
  input clk,
  input reset,
  input enable,
  output reg [7:0] count
);
  always @(posedge clk) begin
    if (reset) count <= 8'd0;
    else if (enable) count <= count + 8'd1;
  end
endmodule
|}

let fsm_src =
  {|
module fsm (
  input clk,
  input request_valid,
  input work_done,
  output [1:0] state_out
);
  localparam IDLE = 2'd0;
  localparam WORK = 2'd1;
  localparam FINISH = 2'd2;
  reg [1:0] state;
  assign state_out = state;
  always @(posedge clk) begin
    case (state)
      IDLE: if (request_valid) state <= WORK;
      WORK: if (work_done) state <= FINISH;
      FINISH: state <= IDLE;
    endcase
  end
endmodule
|}

let test_lexer () =
  let toks = Lexer.tokenize "module m; endmodule // done" in
  check_int "token count" 5 (List.length toks);
  let toks = Lexer.tokenize "8'hFF 4'b1010 2'd3 42" in
  let values =
    List.filter_map
      (fun (t : Lexer.lexed) ->
        match t.tok with
        | Lexer.Tnumber { value; _ } -> Some (Bits.to_int value)
        | _ -> None)
      toks
  in
  Alcotest.(check (list int)) "literals" [ 255; 10; 3; 42 ] values;
  let toks = Lexer.tokenize "a <= b <<< 2" in
  check_int "lex <= and <<<" 6 (List.length toks);
  (match Lexer.tokenize "$display(\"x=%d\", x)" with
  | { tok = Lexer.Tsystem "display"; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected $display token");
  Alcotest.check_raises "bad char" (Lexer.Lex_error ("unexpected character '`'", 1))
    (fun () -> ignore (Lexer.tokenize "`"))

let test_parse_counter () =
  let m = Parser.parse_module counter_src in
  check_string "name" "counter" m.Ast.mod_name;
  check_int "ports" 4 (List.length m.Ast.ports);
  check_int "always blocks" 1 (List.length m.Ast.always_blocks);
  (* output reg creates a decl *)
  check_bool "count is reg" true
    (match Ast.find_decl m "count" with
    | Some { Ast.kind = Ast.Reg; width = 8; _ } -> true
    | _ -> false);
  match m.Ast.always_blocks with
  | [ { Ast.sens = Ast.Posedge "clk"; stmts = [ Ast.If (Ast.Ident "reset", _, _) ] } ]
    ->
      ()
  | _ -> Alcotest.fail "unexpected always structure"

let test_parse_fsm () =
  let m = Parser.parse_module fsm_src in
  check_int "localparams" 3 (List.length m.Ast.localparams);
  check_bool "IDLE value" true
    (Bits.equal
       (List.assoc "IDLE" m.Ast.localparams)
       (Bits.of_int ~width:2 0));
  check_int "assigns" 1 (List.length m.Ast.assigns);
  match m.Ast.always_blocks with
  | [ { Ast.stmts = [ Ast.Case (Ast.Ident "state", items, None) ]; _ } ] ->
      check_int "case items" 3 (List.length items)
  | _ -> Alcotest.fail "unexpected fsm structure"

let test_parse_expressions () =
  let m =
    Parser.parse_module
      {|
module exprs (input [7:0] a, input [7:0] b, output [7:0] o);
  wire [7:0] w1, w2;
  assign w1 = (a + b) * 8'd2 - (a >> 1);
  assign w2 = a < b ? {a[3:0], b[7:4]} : {2{a[5:2]}};
  assign o = w1 ^ w2 & ~a | (b == 8'd0 ? 8'hff : 8'h00);
endmodule
|}
  in
  check_int "three assigns" 3 (List.length m.Ast.assigns);
  (* Verilog precedence: & > ^ > |, so w1 ^ w2 & ~a | X parses as
     (w1 ^ (w2 & ~a)) | X. *)
  match List.nth m.Ast.assigns 2 with
  | _, Ast.Binop (Ast.Bor, Ast.Binop (Ast.Bxor, _, Ast.Binop (Ast.Band, _, _)), _)
    ->
      ()
  | _ -> Alcotest.fail "operator precedence wrong"

let test_parse_memory_and_instance () =
  let d =
    Parser.parse_design
      {|
module ram (input clk, input [3:0] waddr, input [7:0] wdata, input we,
            input [3:0] raddr, output reg [7:0] rdata);
  reg [7:0] mem [0:15];
  always @(posedge clk) begin
    if (we) mem[waddr] <= wdata;
    rdata <= mem[raddr];
  end
endmodule

module top (input clk, output [7:0] out);
  reg [3:0] addr;
  ram u_ram (.clk(clk), .waddr(addr), .wdata(8'd5), .we(1'b1),
             .raddr(addr), .rdata(out));
  always @(posedge clk) addr <= addr + 4'd1;
endmodule
|}
  in
  check_int "two modules" 2 (List.length d.Ast.modules);
  let ram = Option.get (Ast.find_module d "ram") in
  check_bool "memory decl" true
    (match Ast.find_decl ram "mem" with
    | Some { Ast.depth = Some 16; width = 8; _ } -> true
    | _ -> false);
  let top = Option.get (Ast.find_module d "top") in
  check_int "instances" 1 (List.length top.Ast.instances);
  let i = List.hd top.Ast.instances in
  check_string "instance target" "ram" i.Ast.target;
  check_int "connections" 6 (List.length i.Ast.conns)

let test_parse_display () =
  let m =
    Parser.parse_module
      {|
module dbg (input clk, input [7:0] v);
  always @(posedge clk) begin
    if (v > 8'd10) begin
      $display("big value %d at %h", v, v);
      $finish;
    end
  end
endmodule
|}
  in
  match m.Ast.always_blocks with
  | [ { Ast.stmts = [ Ast.If (_, [ Ast.Display (fmt, args); Ast.Finish ], []) ]; _ } ]
    ->
      check_string "format" "big value %d at %h" fmt;
      check_int "args" 2 (List.length args)
  | _ -> Alcotest.fail "display not parsed"

let test_parse_parameters () =
  let m =
    Parser.parse_module
      {|
module fifo #(parameter DEPTH = 4, parameter WIDTH = 8) (
  input clk,
  input [WIDTH-1:0] din,
  output [WIDTH-1:0] dout
);
  reg [WIDTH-1:0] buffer [0:DEPTH-1];
  reg [WIDTH-1:0] head;
  assign dout = head;
  always @(posedge clk) head <= din;
endmodule
|}
  in
  check_int "param DEPTH" 4 (List.assoc "DEPTH" m.Ast.params);
  check_bool "width folded" true
    (match Ast.find_decl m "buffer" with
    | Some { Ast.width = 8; depth = Some 4; _ } -> true
    | _ -> false);
  check_int "port width folded" 8
    (Option.get (Ast.find_port m "din")).Ast.port_width

let test_parse_errors () =
  let fails src =
    match Parser.parse_design src with
    | exception Parser.Parse_error _ -> true
    | _ -> false
  in
  check_bool "missing semicolon" true
    (fails "module m (input a); assign b = a endmodule");
  check_bool "bad range" true
    (fails "module m (input a); wire [3:1] w; endmodule");
  check_bool "non-constant range" true
    (fails "module m (input a); wire [a:0] w; endmodule");
  check_bool "unterminated module" true (fails "module m (input a);")

let test_roundtrip () =
  (* parse -> print -> parse yields a structurally equal module *)
  let check_rt src =
    let m1 = Parser.parse_module src in
    let printed = Pp_verilog.module_to_string m1 in
    let m2 = Parser.parse_module printed in
    Alcotest.(check bool)
      (Printf.sprintf "roundtrip %s" m1.Ast.mod_name)
      true (m1 = m2)
  in
  check_rt counter_src;
  check_rt fsm_src

let test_builder () =
  let open Builder in
  let m =
    module_ "inc"
      ~ports:[ input ~width:1 "clk"; input ~width:8 "a"; output ~width:8 "b" ]
      ~decls:[ reg ~width:8 "b" ]
      ~always_blocks:
        [ always_ff [ assign_nb "b" (ident "a" +: const ~width:8 1) ] ]
  in
  let printed = Pp_verilog.module_to_string m in
  let reparsed = Parser.parse_module printed in
  check_string "builder roundtrip name" "inc" reparsed.Ast.mod_name;
  check_int "builder loc" (Pp_verilog.module_loc m)
    (Pp_verilog.module_loc reparsed)

let test_loc_counting () =
  let m = Parser.parse_module counter_src in
  check_bool "module_loc positive" true (Pp_verilog.module_loc m > 5);
  let s = Ast.If (Ast.Ident "x", [ Ast.Finish ], [ Ast.Finish ]) in
  check_int "stmt_loc if/else" 5 (Pp_verilog.stmt_loc s)

let test_read_write_sets () =
  let m = Parser.parse_module counter_src in
  let a = List.hd m.Ast.always_blocks in
  let reads = Ast.dedup (List.concat_map Ast.stmt_reads a.Ast.stmts) in
  let writes = Ast.dedup (List.concat_map Ast.stmt_writes a.Ast.stmts) in
  Alcotest.(check (list string)) "reads" [ "count"; "enable"; "reset" ] reads;
  Alcotest.(check (list string)) "writes" [ "count" ] writes

(* Property: printing a random expression reparses to the same tree. *)

let gen_expr_leaf =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Ast.Ident (Printf.sprintf "s%d" (abs n mod 4))) int;
        map (fun n -> Builder.const ~width:8 (abs n mod 256)) int;
      ])

let gen_expr =
  QCheck2.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           if n = 0 then gen_expr_leaf
           else
             oneof
               [
                 gen_expr_leaf;
                 map2
                   (fun a b -> Ast.Binop (Ast.Add, a, b))
                   (self (n / 2)) (self (n / 2));
                 map2
                   (fun a b -> Ast.Binop (Ast.Bxor, a, b))
                   (self (n / 2)) (self (n / 2));
                 map3
                   (fun c a b -> Ast.Cond (c, a, b))
                   (self (n / 2)) (self (n / 2)) (self (n / 2));
               ]))

let prop_expr_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"expression print/parse roundtrip"
    gen_expr (fun e ->
      let src =
        Printf.sprintf
          "module t (input [7:0] s0, input [7:0] s1, input [7:0] s2, input \
           [7:0] s3, output [7:0] o);\n\
           assign o = %s;\n\
           endmodule"
          (Pp_verilog.expr_str e)
      in
      let m = Parser.parse_module src in
      match m.Ast.assigns with [ (_, e') ] -> e = e' | _ -> false)

let suite =
  [
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "parse counter" `Quick test_parse_counter;
    Alcotest.test_case "parse fsm" `Quick test_parse_fsm;
    Alcotest.test_case "parse expressions" `Quick test_parse_expressions;
    Alcotest.test_case "parse memory and instance" `Quick
      test_parse_memory_and_instance;
    Alcotest.test_case "parse display" `Quick test_parse_display;
    Alcotest.test_case "parse parameters" `Quick test_parse_parameters;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "builder" `Quick test_builder;
    Alcotest.test_case "loc counting" `Quick test_loc_counting;
    Alcotest.test_case "read/write sets" `Quick test_read_write_sets;
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
  ]

(* --- additional parser/lexer edge cases ---------------------------------- *)

let test_error_line_numbers () =
  (match Parser.parse_design "module m (input a);\n\nassign b = ;\nendmodule" with
  | exception Parser.Parse_error (_, line) -> check_int "error on line 3" 3 line
  | _ -> Alcotest.fail "expected a parse error");
  match Lexer.tokenize "module\n\n\n`" with
  | exception Lexer.Lex_error (_, line) -> check_int "lex error on line 4" 4 line
  | _ -> Alcotest.fail "expected a lex error"

let test_comments_and_whitespace () =
  let m =
    Parser.parse_module
      "module m (input a, /* inline */ output o);\n\
       // a line comment\n\
       /* a block\n\
          comment spanning lines */\n\
       assign o = a; // trailing\n\
       endmodule"
  in
  check_int "one assign survives the comments" 1 (List.length m.Ast.assigns)

let test_multi_decl_and_chained_assign () =
  let m =
    Parser.parse_module
      {|
module m (input [3:0] a, output [3:0] o);
  wire [3:0] w1, w2, w3;
  assign w1 = a, w2 = w1, w3 = w2;
  assign o = w3;
endmodule
|}
  in
  check_int "three wires" 3
    (List.length (List.filter (fun (d : Ast.decl) -> d.Ast.kind = Ast.Wire) m.Ast.decls));
  check_int "chained assigns split" 4 (List.length m.Ast.assigns)

let test_nested_concat_repeat () =
  let m =
    Parser.parse_module
      {|
module m (input [3:0] a, output [15:0] o);
  assign o = {{2{a[3]}}, a, {2{a[0]}}, a[2:0], a[3:3]};
endmodule
|}
  in
  match m.Ast.assigns with
  | [ (_, Ast.Concat parts) ] -> check_int "five concat parts" 5 (List.length parts)
  | _ -> Alcotest.fail "expected a concat"

let test_else_if_chain () =
  let m =
    Parser.parse_module
      {|
module m (input clk, input [1:0] s, output reg [3:0] o);
  always @(posedge clk) begin
    if (s == 2'd0) o <= 4'd1;
    else if (s == 2'd1) o <= 4'd2;
    else if (s == 2'd2) o <= 4'd3;
    else o <= 4'd4;
  end
endmodule
|}
  in
  (* four leaves under nested else-ifs *)
  let a = List.hd m.Ast.always_blocks in
  check_int "four assignments" 4
    (List.length (Fpga_analysis.Path_constraint.assignments_of_always a))

(* A generated module whose items interleave declarations (single and
   multi-name), assigns (single and chained), always blocks and
   instances, so any reordering inside one item class shows up. *)
let interleaved_src n =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "module sub (input [7:0] i, output [7:0] o);\n  assign o = ~i;\nendmodule\n";
  add "module top (input clk, input [7:0] a, output reg y, output reg z);\n";
  for k = 0 to n - 1 do
    let prev = if k = 0 then "a" else Printf.sprintf "r%d" (k - 1) in
    add "  reg [7:0] r%d;\n" k;
    add "  wire [7:0] w%d;\n" k;
    add "  assign w%d = %s + 8'd%d;\n" k prev k;
    add "  always @(posedge clk) r%d <= w%d;\n" k k;
    add "  wire [7:0] o%d, p%d;\n" k k;
    add "  sub u%d (.i(w%d), .o(o%d));\n" k k k;
    add "  assign p%d = o%d, q%d = w%d;\n" k k k k;
    add "  wire [7:0] q%d;\n" k
  done;
  add "endmodule\n";
  Buffer.contents b

let test_item_order_roundtrip () =
  let n = 40 in
  let names fmt = List.init n (Printf.sprintf fmt) in
  let per_k fmts =
    List.concat (List.init n (fun k -> List.map (fun f -> Printf.sprintf f k) fmts))
  in
  let check_order m =
    let lhs_name = function Ast.Lident x -> x | _ -> "?" in
    Alcotest.(check (list string))
      "decls in source order"
      ([ "y"; "z" ] @ per_k [ "r%d"; "w%d"; "o%d"; "p%d"; "q%d" ])
      (List.map (fun (d : Ast.decl) -> d.Ast.name) m.Ast.decls);
    Alcotest.(check (list string))
      "assigns in source order"
      (per_k [ "w%d"; "p%d"; "q%d" ])
      (List.map (fun (l, _) -> lhs_name l) m.Ast.assigns);
    Alcotest.(check (list string))
      "always blocks in source order" (names "r%d")
      (List.map
         (fun (a : Ast.always) ->
           match a.Ast.stmts with
           | [ Ast.Nonblocking (l, _) ] -> lhs_name l
           | _ -> "?")
         m.Ast.always_blocks);
    Alcotest.(check (list string))
      "instances in source order" (names "u%d")
      (List.map (fun (i : Ast.instance) -> i.Ast.inst_name) m.Ast.instances)
  in
  let d = Parser.parse_design (interleaved_src n) in
  let m1 = Option.get (Ast.find_module d "top") in
  check_order m1;
  let m2 = Parser.parse_module (Pp_verilog.module_to_string m1) in
  check_order m2;
  check_bool "pp -> parse round trip is structurally equal" true (m1 = m2)

let suite =
  suite
  @ [
      Alcotest.test_case "item order survives pp round trip" `Quick
        test_item_order_roundtrip;
      Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
      Alcotest.test_case "comments and whitespace" `Quick
        test_comments_and_whitespace;
      Alcotest.test_case "multi decl / chained assign" `Quick
        test_multi_decl_and_chained_assign;
      Alcotest.test_case "nested concat repeat" `Quick test_nested_concat_repeat;
      Alcotest.test_case "else-if chain" `Quick test_else_if_chain;
    ]

(* --- robustness: arbitrary input never escapes the typed errors ----------- *)

let prop_parser_total =
  QCheck2.Test.make ~count:300 ~name:"parser fails only with typed errors"
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 120))
    (fun junk ->
      match Parser.parse_design junk with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception _ -> false)

let prop_parser_total_verilogish =
  (* junk assembled from Verilog tokens is more likely to reach deep
     parser states *)
  let fragment =
    QCheck2.Gen.oneofl
      [ "module"; "endmodule"; "assign"; "always"; "@"; "("; ")"; "begin";
        "end"; "if"; "else"; "case"; "endcase"; "posedge"; "clk"; "x"; "=";
        "<="; ";"; "["; "]"; "7:0"; "8'hFF"; "{"; "}"; ","; "+"; "reg";
        "wire"; "input"; "output"; "$display"; "\"s\"" ]
  in
  QCheck2.Test.make ~count:300 ~name:"parser totality on token soup"
    QCheck2.Gen.(list_size (int_range 0 40) fragment)
    (fun toks ->
      let src = String.concat " " toks in
      match Parser.parse_design src with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception _ -> false)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_parser_total;
      QCheck_alcotest.to_alcotest prop_parser_total_verilogish;
    ]
