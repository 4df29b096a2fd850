(** Reference expression evaluation over a name-keyed environment.

    The simulator runs compiled ({!Compiled}) and lowered ({!Lowered})
    evaluators; this tree-walking one is kept as their independent
    oracle, together with the value type and index semantics they all
    share.

    Width rules follow the Verilog synthesizable subset: binary operands
    are zero-extended to the wider of the two widths, comparisons and
    logical operators yield one bit, shifts keep the left operand's
    width, and an assignment's target width flows into arithmetic
    operands (the context width), so the carry of [{c, s} <= a + b] is
    not lost.

    Out-of-range accesses implement the semantics documented in the bug
    study (section 3.2.1): power-of-two structures wrap (the high index
    bits are truncated), other sizes drop the access (writes ignored,
    reads return zero). *)

exception Eval_error of string

type value =
  | Vec of Fpga_bits.Bits.t  (** a register or net *)
  | Mem of Fpga_bits.Bits.t array  (** a memory *)

type env = (string, value) Hashtbl.t

val resolve_index : size:int -> int -> int option
(** [resolve_index ~size idx] applies the overflow semantics above:
    in-range indices are themselves, out-of-range indices wrap when
    [size] is a power of two and are dropped ([None]) otherwise. *)

val eval_ctx : env -> ctx:int -> Fpga_hdl.Ast.expr -> Fpga_bits.Bits.t
(** [eval_ctx env ~ctx e] evaluates [e] with a Verilog context width of
    [ctx] bits flowing into arithmetic and bitwise operands. Raises
    {!Eval_error} on unbound signals, a memory used without an index,
    or an out-of-range part select. *)
