(** Elaboration: flattening a multi-module design into one namespace.

    Instance-local names are prefixed with the instance path using '/'
    (e.g. ["u_ram/mem"]). Ports whose actual is a plain identifier are
    unified with the parent net, so clocks keep their top-level name
    through arbitrary nesting. Parameters and localparams (with
    instance overrides) are substituted as constants.

    Restrictions of the subset: widths are folded at parse time, so a
    parameter override may not change widths; inout ports are not
    supported; IP outputs must connect to plain identifiers. *)

exception Elaboration_error of string

(** A flattened signal. *)
type fsignal = {
  fs_name : string;
  fs_width : int;
  fs_depth : int option;  (** [Some n] for an n-word memory *)
  fs_init : Fpga_bits.Bits.t option;
  fs_is_input : bool;  (** top-level input *)
  fs_is_output : bool;  (** top-level output *)
}

(** Builtin IP blocks with behavioural models (section 5 of the paper). *)
type prim_kind = Scfifo | Dcfifo | Altsyncram

(** An elaborated IP instance. *)
type fprim = {
  fp_name : string;  (** flat instance path *)
  fp_kind : prim_kind;
  fp_params : (string * int) list;
  fp_inputs : (string * Fpga_hdl.Ast.expr) list;  (** formal -> flat expr *)
  fp_outputs : (string * string) list;  (** formal -> flat signal name *)
}

(** Which edge of the (single, global) clock a block fires on. *)
type clock_edge = Pos | Neg

(** A flattened design, ready for simulation. *)
type flat = {
  f_top : string;
  f_signals : (string, fsignal) Hashtbl.t;
  f_assigns : (Fpga_hdl.Ast.lvalue * Fpga_hdl.Ast.expr) list;
  f_comb : Fpga_hdl.Ast.stmt list list;  (** always @* bodies *)
  f_seq : (clock_edge * string * Fpga_hdl.Ast.stmt list) list;
      (** edge, clock name, body *)
  f_prims : fprim list;
  f_inputs : (string * int) list;  (** top ports: name, width *)
  f_outputs : (string * int) list;
  f_signal_order : string array;
      (** dense signal id -> flat name, sorted by name (deterministic) *)
  f_signal_ids : (string, int) Hashtbl.t;  (** flat name -> dense id *)
}

val elaborate : Fpga_hdl.Ast.design -> top:string -> flat
(** [elaborate design ~top] flattens [design] rooted at module [top].
    Raises {!Elaboration_error} on unknown modules, port mismatches, or
    conflicting widths.

    Each domain remembers its last successful elaboration: a second
    call with the physically same [design] and an equal [top], with no
    other elaboration on that domain in between, returns the same
    [flat] without elaborating again. A flat is never modified after
    this returns, so callers may share it; they must not write it. *)

val signal : flat -> string -> fsignal
(** [signal flat name] looks a flat signal up; raises
    {!Elaboration_error} when absent. *)

val signal_width : flat -> string -> int
