(** One debugging session: a bug's design instrumented with the tools a
    developer picks, run once through the bug's harness, and every
    tool's verdict decoded from that run as a value. The CLI's tool
    commands, {!Recipe}, the report and the walkthroughs all go through
    here. *)

type fsm = {
  extra : string list;  (** registers forced in (section 4.2 patching) *)
  exclude : string list;  (** detections filtered out *)
}

type stat = {
  events : (string * string) list;  (** event name, 1-bit signal *)
  log_changes : bool;  (** a $display each time a counter advances *)
}

type dep = {
  target : string;
  cycles : int;  (** backward cycle budget *)
  data_only : bool;  (** ignore control dependencies *)
  slices : bool;  (** split partially-assigned variables *)
}

type tools = {
  fsm : fsm option;
  stat : stat option;
  dep : dep option;
  loss : Fpga_debug.Losscheck.spec option;
}

val none : tools
(** No tool, to pick from: [{ none with fsm = Some ... }]. *)

val recipe : Bug.t -> tools
(** Use case 1 of section 6.2: the FSM Monitor, the Statistics Monitor
    on the bug's events logging every change (when it has events), and
    the Dependency Monitor on its target over 8 cycles (when it has
    one). *)

val top : Bug.t -> Fpga_hdl.Ast.design -> Fpga_hdl.Ast.module_def
(** The design's module [bug.top]. Raises
    {!Fpga_debug.Instrument.Instrument_error} when there is none. *)

type instrumented = {
  baseline : Fpga_hdl.Ast.module_def;  (** the top module as given *)
  with_monitors : Fpga_hdl.Ast.module_def;  (** displays intact *)
  design : Fpga_hdl.Ast.design;  (** [with_monitors] in place of the top *)
  fsm_plan : Fpga_debug.Fsm_monitor.t option;
  stat_plan : Fpga_debug.Stat_monitor.t option;
  dep_plan : Fpga_debug.Dep_monitor.plan option;
}

val instrument : tools -> Bug.t -> Fpga_hdl.Ast.design -> instrumented
(** Apply the chosen monitors to the top module in the order FSM, Stat,
    Dep, each planned on the module the previous one produced. Raises
    {!Fpga_debug.Instrument.Instrument_error} when a tool cannot apply
    (no top module, an unknown signal). *)

type verdicts = {
  session : instrumented;
  report : Bug.report;  (** the instrumented run's harness report *)
  transitions : Fpga_debug.Fsm_monitor.transition list;
  final_states : (string * string) list;
  counts : (string * int) list;  (** Stat counters at the end of the run *)
  updates : Fpga_debug.Dep_monitor.update list;
  loss : Fpga_debug.Losscheck.result option;
}

val run : tools -> Bug.t -> Fpga_hdl.Ast.design -> verdicts
(** {!instrument}, then one run through the bug's harness (its
    stimulus, budget and completion condition, as {!Bug.run_design}),
    with each chosen monitor's verdict decoded from it; a tool not
    chosen leaves its fields empty. LossCheck runs
    {!Fpga_debug.Losscheck.localize} on [design] with the bug's
    stimulus, budget and ground truth: its shadow logic and ground-truth
    runs are runs of their own. *)
