(** Testbench driver: the push-button harness used to reproduce the
    testbed bugs and to run the tools' dynamic phases. *)

type stimulus = int -> (string * Fpga_bits.Bits.t) list
(** A stimulus maps the cycle number to the input bindings applied
    before that cycle's clock edge. Bindings persist until overwritten,
    so a stimulus only needs to mention the inputs it changes. *)

type outcome = {
  cycles_run : int;
  finished : bool;  (** the design executed [$finish] *)
  stuck : bool;  (** [until] was given but never satisfied *)
  log : (int * string) list;  (** $display output, oldest first *)
}

val const_stimulus : (string * Fpga_bits.Bits.t) list -> stimulus
(** The same bindings every cycle. *)

val run :
  ?max_cycles:int ->
  ?until:(Simulator.t -> bool) ->
  Simulator.t ->
  stimulus ->
  outcome
(** [run sim stimulus] drives [sim] for up to [max_cycles] (default
    10000), stopping early when [until] holds or the design finishes.
    An unmet [until] is reported as [stuck] — the "application stuck"
    symptom of the bug study. *)

val of_design :
  ?kernel:Simulator.kernel -> ?top:string -> Fpga_hdl.Ast.design -> Simulator.t
(** Elaborate (default top ["top"]) and build a simulator. [kernel]
    defaults to {!Simulator.Lowered_dirty} (see {!Simulator.create}). *)

val of_source : ?kernel:Simulator.kernel -> ?top:string -> string -> Simulator.t
(** Parse Verilog source, elaborate, and build a simulator. *)
