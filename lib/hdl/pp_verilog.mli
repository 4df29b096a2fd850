(** Verilog code generation from the AST.

    Used to emit instrumented designs and to account for the lines of
    analysis code the tools generate (the paper reports 72 lines on
    average for the monitors and 522–19,462 for LossCheck, §6.3).
    Printing then re-parsing a module yields a structurally equal AST;
    the test suite checks this round trip, including on random
    expressions and on [$display] formats of arbitrary bytes (printed
    with Verilog escapes: octal [\ddd] for every non-printable byte). *)

val expr_str : Ast.expr -> string
val lvalue_str : Ast.lvalue -> string
val const_str : Fpga_bits.Bits.t -> string

val stmt_lines : int -> Ast.stmt -> string list
(** Render one statement at the given indentation, one string per
    output line. *)

val decl_lines : Ast.decl -> string list
val module_lines : Ast.module_def -> string list
val module_to_string : Ast.module_def -> string
val design_to_string : Ast.design -> string

(** {1 Lines-of-code accounting} *)

val stmt_loc : Ast.stmt -> int
val module_loc : Ast.module_def -> int
