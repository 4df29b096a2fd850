(** Dependency Monitor (section 4.3): provenance tracking.

    The static half computes the registers a target variable depends on
    within the previous k cycles (control and data, through IP models
    and one level of user-module instances); the dynamic half logs every
    update to a register in the chain, so an incorrect output can be
    backtraced to where the wrong value entered. *)

type plan = {
  module_name : string;
  target : string;
  cycles : int;
  chain : string list;  (** the dependency chain, including the target *)
  monitored : string list;  (** chain members instrumented for logging *)
}

type update = {
  cycle : int;
  signal : string;
  value : string;
      (** the new value in decimal, as [%d] logged it: every digit of
          it, at any width *)
}

val child_instance_edges :
  Fpga_hdl.Ast.design option -> Fpga_hdl.Ast.instance -> Fpga_analysis.Deps.edge list
(** Edges induced by a user-module instance, derived from the child
    module's own dependency graph (one level of hierarchy). *)

val analyze :
  ?design:Fpga_hdl.Ast.design ->
  ?data_only:bool ->
  ?slice_precise:bool ->
  target:string ->
  cycles:int ->
  Fpga_hdl.Ast.module_def ->
  plan
(** Compute the k-cycle backward closure of [target]. [design] lets the
    analysis see through user-module instances; [data_only] drops
    control dependencies; [slice_precise] splits partially-assigned
    variables so independent halves stay apart (both are section 4.3
    configuration switches). *)

val instrument : plan -> Fpga_hdl.Ast.module_def -> Fpga_hdl.Ast.module_def
(** One shadow register per monitored signal plus a $display whenever
    it changes. *)

val updates : plan -> (int * string) list -> update list
(** The update trace decoded from a unified log. *)

val backtrace : plan -> (int * string) list -> at_cycle:int -> update list
(** Updates to chain members in the [cycles] cycles leading up to
    [at_cycle], newest first — what a developer inspects to find where
    a wrong value entered the chain. *)

val update_to_string : update -> string
