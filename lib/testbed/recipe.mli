(** The per-bug debugging recipe: use case 1 of section 6.2 (SignalCat
    plus all three monitors) applied to a testbed bug, with the
    resulting resource and timing measurements behind Figure 2,
    Figure 3, and section 6.4. *)

type instrumented = {
  baseline : Fpga_hdl.Ast.module_def;
  with_monitors : Fpga_hdl.Ast.module_def;
      (** monitors applied, $display statements still present *)
  on_fpga : Fpga_hdl.Ast.module_def;
      (** displays compiled into recording logic *)
  signalcat_plan : Fpga_debug.Signalcat.plan;
}

val apply : ?buffer_depth:int -> Bug.t -> instrumented
(** {!Session.instrument} of {!Session.recipe} on the buggy design, then
    SignalCat's on-FPGA recording logic at [buffer_depth] entries. *)

val loc : instrumented -> int * int
(** The Verilog lines the monitors inserted, and the gross lines of the
    generated recording logic (measured against the display-stripped
    [with_monitors]). Each call pretty-prints four modules, so it is
    computed on demand rather than by {!apply}. *)

val overhead : ?buffer_depth:int -> Bug.t -> Fpga_resources.Model.usage
(** One point of Figure 2: resource overhead of the recipe at a given
    recording depth. *)

val timing :
  ?buffer_depth:int ->
  Bug.t ->
  Fpga_resources.Model.timing * Fpga_resources.Model.timing
(** Baseline and instrumented timing closure (section 6.4). *)

val losscheck_overhead : Bug.t -> Fpga_resources.Model.usage option
(** Figure 3: LossCheck instrumentation overhead, for loss bugs. *)
