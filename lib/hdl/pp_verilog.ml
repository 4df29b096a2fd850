(* Verilog code generation from the AST. Used to emit instrumented designs
   and to account for the lines of analysis code the tools generate (the
   paper reports 72 LoC on average for the monitors and 522-19,462 LoC for
   LossCheck, section 6.3). *)

module Bits = Fpga_bits.Bits
open Ast

let unop_str = function
  | Bnot -> "~"
  | Lnot -> "!"
  | Neg -> "-"
  | Rand -> "&"
  | Ror -> "|"
  | Rxor -> "^"

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Land -> "&&"
  | Lor -> "||"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Shl -> "<<"
  | Shr -> ">>"
  | Ashr -> ">>>"

(* A Verilog string literal: printable ASCII as is, newline, tab,
   backslash and double quote as their backslash escapes, and every other
   byte as a three-digit octal escape, so any byte string re-lexes to
   itself. *)
let string_literal s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | ' ' .. '~' as c -> Buffer.add_char b c
      | c -> Printf.bprintf b "\\%03o" (Char.code c))
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let const_str b =
  let w = Bits.width b in
  if w <= 32 && Bits.width b <= 62 then
    Printf.sprintf "%d'd%d" w (Bits.to_int_trunc b)
  else Printf.sprintf "%d'h%s" w (Bits.to_hex_string b)

let rec expr_str e =
  match e with
  | Const b -> const_str b
  | Ident n -> n
  | Index (n, i) -> Printf.sprintf "%s[%s]" n (expr_str i)
  | Range (n, hi, lo) -> Printf.sprintf "%s[%d:%d]" n hi lo
  | Unop (op, a) -> Printf.sprintf "%s(%s)" (unop_str op) (expr_str a)
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_str a) (binop_str op) (expr_str b)
  | Cond (c, t, f) ->
      Printf.sprintf "(%s ? %s : %s)" (expr_str c) (expr_str t) (expr_str f)
  | Concat es -> Printf.sprintf "{%s}" (String.concat ", " (List.map expr_str es))
  | Repeat (n, a) -> Printf.sprintf "{%d{%s}}" n (expr_str a)

let rec lvalue_str = function
  | Lident n -> n
  | Lindex (n, i) -> Printf.sprintf "%s[%s]" n (expr_str i)
  | Lrange (n, hi, lo) -> Printf.sprintf "%s[%d:%d]" n hi lo
  | Lconcat ls ->
      Printf.sprintf "{%s}" (String.concat ", " (List.map lvalue_str ls))

let range_str w = if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1)

let rec stmt_lines indent s =
  let pad = String.make indent ' ' in
  match s with
  | Blocking (l, e) -> [ Printf.sprintf "%s%s = %s;" pad (lvalue_str l) (expr_str e) ]
  | Nonblocking (l, e) ->
      [ Printf.sprintf "%s%s <= %s;" pad (lvalue_str l) (expr_str e) ]
  | If (c, t, f) ->
      let head = Printf.sprintf "%sif (%s) begin" pad (expr_str c) in
      let tl = List.concat_map (stmt_lines (indent + 2)) t in
      let fl =
        match f with
        | [] -> []
        | _ ->
            (Printf.sprintf "%send else begin" pad)
            :: List.concat_map (stmt_lines (indent + 2)) f
      in
      (head :: tl) @ fl @ [ pad ^ "end" ]
  | Case (e, items, default) ->
      let head = Printf.sprintf "%scase (%s)" pad (expr_str e) in
      let item_lines it =
        let labels = String.concat ", " (List.map expr_str it.match_exprs) in
        (Printf.sprintf "%s  %s: begin" pad labels)
        :: List.concat_map (stmt_lines (indent + 4)) it.body
        @ [ pad ^ "  end" ]
      in
      let default_lines =
        match default with
        | None -> []
        | Some body ->
            (pad ^ "  default: begin")
            :: List.concat_map (stmt_lines (indent + 4)) body
            @ [ pad ^ "  end" ]
      in
      (head :: List.concat_map item_lines items)
      @ default_lines
      @ [ pad ^ "endcase" ]
  | Display (fmt, args) ->
      let args_str =
        match args with
        | [] -> ""
        | _ -> ", " ^ String.concat ", " (List.map expr_str args)
      in
      [ Printf.sprintf "%s$display(%s%s);" pad (string_literal fmt) args_str ]
  | Finish -> [ pad ^ "$finish;" ]

let decl_lines d =
  let kind = match d.kind with Reg -> "reg" | Wire -> "wire" in
  let mem = match d.depth with None -> "" | Some n -> Printf.sprintf " [0:%d]" (n - 1) in
  let init =
    match d.init with None -> "" | Some b -> Printf.sprintf " = %s" (const_str b)
  in
  [ Printf.sprintf "  %s %s%s%s%s;" kind (range_str d.width) d.name mem init ]

let port_str m p =
  let dir =
    match p.dir with Input -> "input" | Output -> "output" | Inout -> "inout"
  in
  let is_reg =
    match find_decl m p.port_name with
    | Some { kind = Reg; _ } -> " reg"
    | _ -> ""
  in
  Printf.sprintf "%s%s %s%s" dir is_reg (range_str p.port_width) p.port_name

let instance_lines (i : instance) =
  let params =
    match i.params with
    | [] -> ""
    | ps ->
        Printf.sprintf " #(%s)"
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf ".%s(%d)" k v) ps))
  in
  let conns =
    String.concat ", "
      (List.map
         (fun c -> Printf.sprintf ".%s(%s)" c.formal (expr_str c.actual))
         i.conns)
  in
  [ Printf.sprintf "  %s%s %s (%s);" i.target params i.inst_name conns ]

let always_lines a =
  let sens =
    match a.sens with
    | Posedge clk -> Printf.sprintf "posedge %s" clk
    | Negedge clk -> Printf.sprintf "negedge %s" clk
    | Star -> "*"
  in
  (Printf.sprintf "  always @(%s) begin" sens)
  :: List.concat_map (stmt_lines 4) a.stmts
  @ [ "  end" ]

let module_lines m =
  let ports = String.concat ",\n  " (List.map (port_str m) m.ports) in
  let header = Printf.sprintf "module %s (\n  %s\n);" m.mod_name ports in
  let param_lines =
    List.map (fun (n, v) -> Printf.sprintf "  parameter %s = %d;" n v) m.params
  in
  let localparam_lines =
    List.map
      (fun (n, v) -> Printf.sprintf "  localparam %s = %s;" n (const_str v))
      m.localparams
  in
  let decls =
    List.concat_map
      (fun d ->
        (* skip decls created implicitly for "output reg" ports *)
        match find_port m d.name with
        | Some _ -> []
        | None -> decl_lines d)
      m.decls
  in
  let assigns =
    List.map
      (fun (l, e) ->
        Printf.sprintf "  assign %s = %s;" (lvalue_str l) (expr_str e))
      m.assigns
  in
  [ header ] @ param_lines @ localparam_lines @ decls @ assigns
  @ List.concat_map instance_lines m.instances
  @ List.concat_map always_lines m.always_blocks
  @ [ "endmodule" ]

let module_to_string m = String.concat "\n" (module_lines m) ^ "\n"

let design_to_string d =
  String.concat "\n\n" (List.map module_to_string d.modules)

(* Lines-of-code accounting for generated instrumentation. *)
let stmt_loc s = List.length (stmt_lines 0 s)
let module_loc m = List.length (module_lines m)
