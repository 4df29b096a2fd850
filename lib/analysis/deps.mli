(** Register dependency analysis (Dependency Monitor, section 4.3).

    An edge [src -> dst] means the value of [src] can influence [dst].
    Sequential edges cross a clock cycle; combinational edges do not.
    Data edges come from the right-hand side of an assignment, control
    edges from its path constraint. *)

type edge_kind = Data | Control
type timing = Sequential | Combinational

type edge = {
  src : string;
  dst : string;
  kind : edge_kind;
  timing : timing;
  cond : Fpga_hdl.Ast.expr;  (** path constraint of the assignment *)
}

type graph = { edges : edge list; module_name : string }

val of_module : ?ip_edges:edge list -> Fpga_hdl.Ast.module_def -> graph
(** Dependency graph of a module's always blocks and continuous
    assigns; [ip_edges] supplies the edges induced by IP instances
    (the Dependency Monitor builds them from {!Ip_models.data_path}). *)

val incoming : graph -> string -> edge list
val outgoing : graph -> string -> edge list

val backward_closure :
  ?data_only:bool -> graph -> target:string -> cycles:int -> string list
(** Registers that may influence [target] within [cycles] clock cycles,
    following combinational edges freely; includes [target]. With
    [data_only], control dependencies are ignored (section 4.3's
    configuration switch). *)

val control_cycles : graph -> string list list
(** Circular control dependencies among conditionally-assigned
    registers — the shape of hardware deadlocks (section 3.3.1). Each
    cycle is returned once, rotated so its smallest member is first. *)

(** {1 Slice-precise dependencies (section 4.3)}

    Partial assignments are logically split: nodes are bit slices, so a
    chain through [packed[7:0]] does not drag in the drivers of
    [packed[15:8]]. *)

type slice = { s_name : string; s_hi : int; s_lo : int }

type slice_edge = {
  se_src : slice;
  se_dst : slice;
  se_kind : edge_kind;
  se_timing : timing;
}

val overlaps : slice -> slice -> bool
val full_slice : Fpga_hdl.Ast.module_def -> string -> slice
val slice_edges : Fpga_hdl.Ast.module_def -> slice_edge list

val backward_slice_closure :
  ?data_only:bool ->
  Fpga_hdl.Ast.module_def ->
  target:slice ->
  cycles:int ->
  slice list
(** Slices that may influence [target] within [cycles] clock cycles; an
    edge applies when its destination overlaps the queried slice. *)

val backward_closure_sliced :
  ?data_only:bool ->
  Fpga_hdl.Ast.module_def ->
  target:string ->
  cycles:int ->
  string list
(** The signal names appearing in the slice-precise chain of a whole
    signal - strictly no larger than {!backward_closure}'s answer. *)
