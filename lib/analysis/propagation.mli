(** Propagation relations (section 4.5.1).

    [X ~>_sigma Y] means the data value stored in X propagates into Y
    on the next cycle when sigma holds; the table of relations drives
    LossCheck's shadow-variable instrumentation. *)

type relation = {
  src : string;
  dst : string;
  cond : Fpga_hdl.Ast.expr;  (** sigma *)
  line_hint : string;  (** human-readable origin, for reports *)
}

type table = relation list

val of_assignment :
  Fpga_hdl.Ast.lvalue * Fpga_hdl.Ast.expr * Fpga_hdl.Ast.expr -> relation list
(** Relations of one (target, rhs, path-constraint) assignment: every
    register read on the right-hand side propagates into every written
    base when the constraint holds. *)

val of_module :
  ?ip:(Fpga_hdl.Ast.instance -> relation list) ->
  Fpga_hdl.Ast.module_def ->
  table
(** The module's full relation table. [ip] supplies relations for IP
    instances; {!Ip_models.table_of_module} composes the builtin
    models. *)

val sequence_registers : table -> source:string -> sink:string -> string list
(** Registers on some propagation sequence from [source] to [sink]
    (reachable from the source and reaching the sink), sorted. *)

val incoming : table -> string -> relation list
val outgoing : table -> string -> relation list
