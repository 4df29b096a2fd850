(* Abstract syntax for the synthesizable Verilog subset handled by the
   tool suite. The subset covers the constructs exercised by the bug study
   (ASPLOS '22, section 3): single-clock sequential logic, continuous
   assignments, combinational always blocks, conditional and case
   statements, bit/part selects, concatenation, memories, module
   instances, and $display debugging statements. *)

module Bits = Fpga_bits.Bits

type unop =
  | Bnot  (* ~e  *)
  | Lnot  (* !e  *)
  | Neg   (* -e  *)
  | Rand  (* &e  reduction *)
  | Ror   (* |e  reduction *)
  | Rxor  (* ^e  reduction *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Band
  | Bor
  | Bxor
  | Land
  | Lor
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | Shl
  | Shr
  | Ashr

type expr =
  | Const of Bits.t
  | Ident of string
  | Index of string * expr  (* bit select or memory word select *)
  | Range of string * int * int  (* constant part select [hi:lo] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr
  | Concat of expr list  (* MSB first *)
  | Repeat of int * expr

type lvalue =
  | Lident of string
  | Lindex of string * expr
  | Lrange of string * int * int
  | Lconcat of lvalue list  (* MSB first *)

type stmt =
  | Blocking of lvalue * expr
  | Nonblocking of lvalue * expr
  | If of expr * stmt list * stmt list
  | Case of expr * case_item list * stmt list option
  | Display of string * expr list
  | Finish

and case_item = { match_exprs : expr list; body : stmt list }

type edge = Posedge of string | Negedge of string | Star

type always = { sens : edge; stmts : stmt list }

type net_kind = Reg | Wire

type decl = {
  name : string;
  kind : net_kind;
  width : int;
  depth : int option;  (* [Some n] for a memory with n words *)
  init : Bits.t option;
}

type port_dir = Input | Output | Inout
type port = { port_name : string; dir : port_dir; port_width : int }
type connection = { formal : string; actual : expr }

type instance = {
  inst_name : string;
  target : string;  (* user module or builtin IP (scfifo, dcfifo, altsyncram) *)
  params : (string * int) list;
  conns : connection list;
}

type module_def = {
  mod_name : string;
  ports : port list;
  params : (string * int) list;
  localparams : (string * Bits.t) list;
  decls : decl list;
  assigns : (lvalue * expr) list;
  always_blocks : always list;
  instances : instance list;
}

type design = { modules : module_def list }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Port roles of the builtin IPs (section 5's models), the one table the
   elaborator, the Dependency Monitor and LossCheck read: the output
   formals, and the data path a word takes through the IP. The word at
   [ip_data] is stored when [ip_write] holds and, for a FIFO, [ip_full]
   does not; it comes out at [ip_q]. *)
type ip_ports = {
  ip_outputs : string list;
  ip_data : string;
  ip_write : string;
  ip_full : string option;
  ip_q : string;
}

let builtin_ip_ports =
  let fifo ~outputs ~full =
    { ip_outputs = outputs; ip_data = "data"; ip_write = "wrreq";
      ip_full = Some full; ip_q = "q" }
  in
  [
    ("scfifo", fifo ~outputs:[ "q"; "empty"; "full"; "usedw" ] ~full:"full");
    ( "dcfifo",
      fifo ~outputs:[ "q"; "rdempty"; "wrfull"; "wrusedw"; "rdusedw" ]
        ~full:"wrfull" );
    ( "altsyncram",
      { ip_outputs = [ "q_a"; "q_b" ]; ip_data = "data_a"; ip_write = "wren_a";
        ip_full = None; ip_q = "q_a" } );
  ]

let ip_ports target = List.assoc_opt target builtin_ip_ports

let find_module design name =
  List.find_opt (fun m -> m.mod_name = name) design.modules

let find_decl m name = List.find_opt (fun d -> d.name = name) m.decls
let find_port m name = List.find_opt (fun p -> p.port_name = name) m.ports

(* The base identifier an lvalue writes to. *)
let lvalue_base = function
  | Lident n | Lindex (n, _) | Lrange (n, _, _) -> [ n ]
  | Lconcat _ -> []

let rec lvalue_bases = function
  | (Lident _ | Lindex _ | Lrange _) as l -> lvalue_base l
  | Lconcat ls -> List.concat_map lvalue_bases ls

(* All identifiers read by an expression (including index expressions). *)
let rec expr_reads e =
  match e with
  | Const _ -> []
  | Ident n -> [ n ]
  | Index (n, i) -> n :: expr_reads i
  | Range (n, _, _) -> [ n ]
  | Unop (_, a) -> expr_reads a
  | Binop (_, a, b) -> expr_reads a @ expr_reads b
  | Cond (c, a, b) -> expr_reads c @ expr_reads a @ expr_reads b
  | Concat es -> List.concat_map expr_reads es
  | Repeat (_, a) -> expr_reads a

(* Identifiers read by the lvalue itself (index expressions). *)
let rec lvalue_reads = function
  | Lident _ | Lrange _ -> []
  | Lindex (_, i) -> expr_reads i
  | Lconcat ls -> List.concat_map lvalue_reads ls

let rec stmt_reads s =
  match s with
  | Blocking (l, e) | Nonblocking (l, e) -> lvalue_reads l @ expr_reads e
  | If (c, t, f) ->
      expr_reads c @ List.concat_map stmt_reads t @ List.concat_map stmt_reads f
  | Case (e, items, default) ->
      expr_reads e
      @ List.concat_map
          (fun it ->
            List.concat_map expr_reads it.match_exprs
            @ List.concat_map stmt_reads it.body)
          items
      @ (match default with
        | None -> []
        | Some body -> List.concat_map stmt_reads body)
  | Display (_, args) -> List.concat_map expr_reads args
  | Finish -> []

let rec stmt_writes s =
  match s with
  | Blocking (l, _) | Nonblocking (l, _) -> lvalue_bases l
  | If (_, t, f) ->
      List.concat_map stmt_writes t @ List.concat_map stmt_writes f
  | Case (_, items, default) ->
      List.concat_map (fun it -> List.concat_map stmt_writes it.body) items
      @ (match default with
        | None -> []
        | Some body -> List.concat_map stmt_writes body)
  | Display _ | Finish -> []

let dedup names = List.sort_uniq String.compare names

(* Width of a declared signal inside a module, following ports too. *)
let signal_width m name =
  match find_decl m name with
  | Some d -> Some d.width
  | None -> (
      match find_port m name with
      | Some p -> Some p.port_width
      | None -> None)

let true_expr = Const (Bits.one 1)
let false_expr = Const (Bits.zero 1)

(* Smart boolean connectives used by instrumentation passes to keep the
   generated code readable. *)
let and_expr a b =
  match (a, b) with
  | Const c, x when Bits.equal c (Bits.one 1) -> x
  | x, Const c when Bits.equal c (Bits.one 1) -> x
  | Const c, _ when Bits.is_zero c -> false_expr
  | _, Const c when Bits.is_zero c -> false_expr
  | _ -> Binop (Land, a, b)

let or_expr a b =
  match (a, b) with
  | Const c, _ when Bits.equal c (Bits.one 1) -> true_expr
  | _, Const c when Bits.equal c (Bits.one 1) -> true_expr
  | Const c, x when Bits.is_zero c -> x
  | x, Const c when Bits.is_zero c -> x
  | _ -> Binop (Lor, a, b)

let not_expr = function
  | Unop (Lnot, e) -> e
  | Const c when Bits.is_zero c -> true_expr
  | Const c when Bits.equal c (Bits.one 1) -> false_expr
  | e -> Unop (Lnot, e)
