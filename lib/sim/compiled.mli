(** Interned-signal compiled evaluation.

    Compiles AST expressions/lvalues/statements once, at simulator
    construction, into a resolved form in which every signal reference
    is a dense integer id ({!Elaborate.flat}[.f_signal_ids]) and every
    width, memory depth, and assignment context width is pre-resolved.
    Evaluation then runs over an id-indexed [value array] — no string
    hashing or width lookups on the hot path.

    Semantics match {!Eval} exactly (width rules, out-of-range access
    semantics, error messages); name-resolution errors are raised as
    {!Eval.Eval_error} at compile time rather than mid-simulation. *)

type value = Eval.value = Vec of Fpga_bits.Bits.t | Mem of Fpga_bits.Bits.t array

type env = value array
(** Signal values indexed by dense signal id. *)

(** Per-id static signal facts, derived from the flat design. *)
type tab

val of_flat : Elaborate.flat -> tab
val name : tab -> int -> string
val id : tab -> string -> int
(** Raises {!Eval.Eval_error} ("unbound signal ...") when absent. *)

val width : tab -> int -> int
(** Vector width, or word width for a memory. *)

val depth : tab -> int -> int option
(** [Some n] for an [n]-word memory, [None] for a vector. *)

val n_signals : tab -> int

val fresh_env : Elaborate.flat -> env
(** Initial environment: declared initial values, zero otherwise. *)

val reset_env : Elaborate.flat -> env -> unit
(** Return an environment built from [flat] to {!fresh_env}'s values in
    place: vectors are replaced, memory arrays refilled. *)

(** {1 Compiled forms} *)

type cexpr =
  | Cconst of Fpga_bits.Bits.t
  | Cvar of int
  | Cbit of int * int * cexpr  (** vec id, vec width, index *)
  | Cword of int * int * int * cexpr  (** mem id, depth, word width, index *)
  | Crange of int * int * int  (** vec id, hi, lo *)
  | Cunop of Fpga_hdl.Ast.unop * cexpr
  | Cbinop of Fpga_hdl.Ast.binop * cexpr * cexpr
  | Ccond of cexpr * cexpr * cexpr
  | Cconcat of cexpr list
  | Crepeat of int * cexpr

type clvalue =
  | CLvar of int * int  (** id, width *)
  | CLbit of int * int * cexpr
  | CLword of int * int * int * cexpr
  | CLrange of int * int * int
  | CLconcat of (clvalue * int) list * int
      (** (part, width) MSB-first, total width *)

type cwrite =
  | CWfull of int * Fpga_bits.Bits.t
  | CWbit of int * int * bool
  | CWrange of int * int * int * Fpga_bits.Bits.t
  | CWmem of int * int * Fpga_bits.Bits.t
  | CWdropped

type cstmt =
  | CSblocking of clvalue * cexpr * int  (** pre-resolved context width *)
  | CSnonblocking of clvalue * cexpr * int
  | CSif of cexpr * cstmt list * cstmt list
  | CScase of cexpr * (cexpr list * cstmt list) list * cstmt list option
  | CSdisplay of string * cexpr list
  | CSfinish

(** {1 Compilation} — raises {!Eval.Eval_error} on unbound names,
    memory misuse, or out-of-width part selects. *)

val compile_expr : tab -> Fpga_hdl.Ast.expr -> cexpr
val compile_lvalue : tab -> Fpga_hdl.Ast.lvalue -> clvalue
val compile_stmt : tab -> Fpga_hdl.Ast.stmt -> cstmt
val clvalue_width : clvalue -> int

(** {1 Evaluation} *)

val vec : env -> int -> Fpga_bits.Bits.t
(** The vector at id [i]; ids are guaranteed well-kinded by compilation. *)

val mem : env -> int -> Fpga_bits.Bits.t array
(** The memory word array at id [i]. *)

val eval_ctx : env -> ctx:int -> cexpr -> Fpga_bits.Bits.t
(** [ctx] is the Verilog context width, as in {!Eval.eval_ctx}. *)

val eval : env -> cexpr -> Fpga_bits.Bits.t
(** Self-determined context ([ctx = 0]). *)

val resolve_write : env -> clvalue -> Fpga_bits.Bits.t -> cwrite list
(** Resolve indices against current values; linear in the number of
    concatenated targets. *)

val apply_write_notify : env -> notify:(int -> unit) -> cwrite -> unit
(** Apply a resolved write only if it changes the stored value, calling
    [notify id] when it does. *)

val write_notify : env -> notify:(int -> unit) -> clvalue -> Fpga_bits.Bits.t -> unit
