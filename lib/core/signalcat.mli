(** SignalCat (section 4.1): unified logging for simulation and
    on-FPGA execution.

    A design annotated with $display statements runs in two modes:

    - {!Simulation}: the statements execute directly in the simulator,
      which prints and logs them — the traditional flow.
    - {!On_fpga}: the static pass strips every $display and synthesizes
      recording logic in its place: one wide ring buffer (the model of
      a SignalTap/ILA recording IP) stores, per cycle in which at least
      one statement's path constraint holds, a cycle counter, one
      constraint bit per statement, and every statement's argument
      values. {!reconstruct} then reads the buffer back (the
      JTAG-readback analog) and rebuilds exactly the log the simulation
      mode would have printed, up to the buffer capacity.

    The equivalence of the two logs is the tool's headline property and
    is verified by the test suite, including under random stimulus.

    The recording logic is pipelined like vendor trace IPs (samples are
    staged for one cycle before committing), keeping the capture logic
    off the design's critical path; an entry still in the pipeline when
    the run ends is recovered by {!reconstruct}. *)

type mode = Simulation | On_fpga

(** One $display found in a sequential block. *)
type statement_info = {
  stmt_id : int;
  fmt : string;
  args : Fpga_hdl.Ast.expr list;
  arg_widths : int list;
  cond : Fpga_hdl.Ast.expr;  (** path constraint *)
}

(** An optional recording window (the start/stop events and pre/post
    capture intervals of section 4.1): recording arms when [start]
    first holds and freezes [post] recorded entries after [stop] holds,
    so the ring buffer retains the interval around the event. Without a
    trigger, the recorder runs from cycle 0. *)
type trigger = {
  start : Fpga_hdl.Ast.expr option;
  stop : Fpga_hdl.Ast.expr option;
  post : int;
}

val no_trigger : trigger

type layout
(** Where one statement sits in a buffer entry (its constraint bit and
    each argument's offset and width) and its compiled format: what
    {!reconstruct} decodes the entry with. *)

(** The static recording plan for a module. *)
type plan = {
  module_name : string;
  statements : statement_info list;
  buffer_depth : int;
  entry_width : int;  (** 32-bit cycle + constraint bits + argument bits *)
  trigger : trigger;
  layout : layout array;  (** per statement, built once by {!analyze} *)
}

val analyze :
  ?buffer_depth:int -> ?trigger:trigger -> Fpga_hdl.Ast.module_def -> plan
(** Collect the module's $display statements and size the recording
    buffer (default depth 8192, as in the paper's testbed; must be a
    power of two). *)

val instrument : plan -> Fpga_hdl.Ast.module_def -> Fpga_hdl.Ast.module_def
(** Strip the displays and splice in the recording logic. Identity when
    the plan has no statements. *)

val strip_displays_module : Fpga_hdl.Ast.module_def -> Fpga_hdl.Ast.module_def
(** The design with every $display removed (for accounting the gross
    size of the generated recording logic). *)

val apply :
  ?buffer_depth:int ->
  ?trigger:trigger ->
  mode ->
  Fpga_hdl.Ast.module_def ->
  Fpga_hdl.Ast.module_def * plan
(** The single entry point the other tools use: unchanged design in
    [Simulation] mode, instrumented design in [On_fpga] mode. *)

val reconstruct : plan -> Fpga_sim.Simulator.t -> (int * string) list
(** Rebuild the unified log from the recording buffer after an
    execution: (cycle, rendered text), oldest first; when the buffer
    overflowed, the most recent entries are kept (ring semantics). *)

val run_and_log :
  ?buffer_depth:int ->
  ?trigger:trigger ->
  ?max_cycles:int ->
  mode:mode ->
  top:string ->
  Fpga_hdl.Ast.design ->
  Fpga_sim.Testbench.stimulus ->
  (int * string) list
(** Run a design under a stimulus in either mode and return the unified
    log — "a single interface for tracing state in a hardware design". *)

val generated_loc : plan -> Fpga_hdl.Ast.module_def -> int
(** Lines of Verilog the instrumentation would insert. *)
