(** The reproducible-bug record (section 6.1, Table 2).

    Each bug carries the buggy Verilog source, the fixed source (the
    upstream patch reduced to our subset), a stimulus that triggers the
    symptom push-button, observation hooks, and metadata tying it to the
    study taxonomy and the tools that help localize it.

    Reproduction is differential: the same stimulus drives the buggy and
    the fixed design, and symptoms are derived from how the runs diverge
    (missing output rows = data loss, different rows = incorrect output,
    unmet completion = stuck, tripped shell monitor = external error). *)

type tool = SC | FSM | Stat | Dep | LC

val tool_name : tool -> string

type t = {
  id : string;  (** Table 2 identifier, e.g. "D1" *)
  subclass : Fpga_study.Taxonomy.subclass;
  application : string;
  platform : Fpga_resources.Platforms.kind;
  symptoms : Fpga_study.Taxonomy.symptom list;  (** expected, per Table 2 *)
  helpful_tools : tool list;
  description : string;
  top : string;
  buggy_src : string;
  fixed_src : string;
  stimulus : Fpga_sim.Testbench.stimulus;
  max_cycles : int;
  sample : Fpga_sim.Simulator.t -> (string * int) list option;
      (** a valid output row of the design, when present this cycle *)
  done_when : (Fpga_sim.Simulator.t -> bool) option;
      (** completion condition; unmet = the "stuck" symptom *)
  ext_monitor : (Fpga_sim.Simulator.t -> bool) option;
      (** FPGA-shell-style external monitor (protocol checker, address
          range checker); tripping it is the "Ext" symptom *)
  loss_spec : Fpga_debug.Losscheck.spec option;
  loss_root : string option;
      (** the register LossCheck is expected to localize *)
  ground_truth : (Fpga_sim.Testbench.stimulus * int) list;
      (** passing stimuli used for false-positive filtering *)
  manual_fsms : string list;
      (** manually identified FSM state variables (section 4.2 accuracy) *)
  stat_events : (string * string) list;  (** event name, 1-bit signal *)
  dep_target : string option;
  target_mhz : int;
}

type report = {
  stuck : bool;
  finished : bool;
  rows : (int * (string * int) list) list;
  ext_error : bool;
  log : (int * string) list;
  cycles : int;
      (** the cycle count the run ended at. For a straight run this is
          the number of cycles simulated; for a run resumed
          [?from_checkpoint] it is the absolute end cycle, so straight
          and replayed runs of the same window report the same value *)
  vcd : string option;  (** full VCD text when requested via [?vcd] *)
}

val design_of : t -> buggy:bool -> Fpga_hdl.Ast.design
(** The parsed buggy or fixed source. The result is a process-wide
    shared, immutable AST: calls with the same source string, from any
    domain, return physically equal designs, and a [{ bug with ... }]
    copy shares its parent's. Only the first call per source parses;
    lookups take no lock. A source that fails to parse raises its
    {!Fpga_hdl.Parser.Parse_error} (or {!Fpga_hdl.Lexer.Lex_error}) on
    every call and is never cached. Callers must not rely on getting a
    fresh design. *)

val shared : Fpga_hdl.Ast.design -> bool
(** Whether [design] is physically one that {!design_of} has returned.
    The registry bounds these designs, so a memo that admits only them
    stays bounded; a mutant or a caller's own parse is never shared. *)

val run_design :
  ?vcd:bool ->
  ?vcd_from:int ->
  ?kernel:Fpga_sim.Simulator.kernel ->
  ?max_cycles:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Fpga_sim.Checkpoint.t -> unit) ->
  ?from_checkpoint:Fpga_sim.Checkpoint.t ->
  t ->
  Fpga_hdl.Ast.design ->
  report
(** Drive an arbitrary design (e.g. an instrumented one) with the bug's
    stimulus and observation hooks. [vcd] (default false) captures a
    full waveform dump into the report; [vcd_from] (default 0) starts
    waveform sampling at that cycle index, producing the windowed
    reference a replayed run is diffed against; [kernel] picks the
    settle kernel (default {!Fpga_sim.Simulator.default_kernel}); [max_cycles] overrides the
    bug's budget.

    [checkpoint_every k] (with [on_checkpoint]) emits a serializable
    {!Fpga_sim.Checkpoint.t} every [k] completed cycles; the snapshot's
    metadata carries the harness state (rows observed so far, monitor
    flags), so a resumed run reports exactly what the uninterrupted run
    would. [from_checkpoint] restores such a snapshot — simulator and
    harness state both — and continues from its cycle; combined with
    [vcd] this re-simulates a window with a full waveform of {e all}
    signals, byte-identical to the straight run's [vcd_from] window
    (the replay-determinism property CI enforces).

    The simulator comes from {!with_simulator}: a design that
    {!design_of} shares is elaborated and compiled once per key and
    {!Fpga_sim.Simulator.reset} for each later run, which changes no
    result, trace or counter. *)

val with_simulator :
  ?kernel:Fpga_sim.Simulator.kernel ->
  t ->
  Fpga_hdl.Ast.design ->
  (Fpga_sim.Simulator.t -> 'a) ->
  'a
(** [with_simulator ?kernel bug design f] applies [f] to a simulator of
    [design] rooted at [bug.top], in the state
    {!Fpga_sim.Simulator.create} leaves. For a design {!design_of}
    returned, the simulator is taken from a process-wide free list,
    keyed on (physical design, top, the kernel [create] builds, whether
    {!Fpga_sim.Simulator.profiling} is on), and reset; it goes back
    when [f] returns normally, and is dropped when [f] raises. At most
    one idle simulator is kept per key, and none after the key's first
    run, so a design run once keeps no memory; a miss builds on the
    flat of an idle simulator of the same design and top. Any other
    design is elaborated and compiled afresh and never kept. Either
    way exactly one ["compile"] span is recorded, so traces do not
    show whether the list was warm. [f] must not keep the simulator
    after it returns. *)

(** Harness state carried in checkpoint metadata — the observations the
    loop in {!run_design} accumulates alongside the simulator. Exposed
    so {!Replay} can probe a checkpoint's metadata without
    deserializing or re-simulating anything. *)
type harness = {
  h_rows : (int * (string * int) list) list;  (** oldest first *)
  h_ext : bool;
  h_satisfied : bool;
}

val harness_of_meta : (string * string) list -> harness
(** Decode the harness section of a checkpoint's metadata. Raises
    {!Fpga_sim.Checkpoint.Checkpoint_error} when the metadata is
    malformed. *)

(** The harness observations of a run in progress, rows newest first. *)
type progress = {
  mutable p_rows : (int * (string * int) list) list;
  mutable p_ext : bool;
  mutable p_satisfied : bool;
}

val resume :
  Fpga_sim.Simulator.t -> Fpga_sim.Checkpoint.t option -> progress * int
(** [resume sim ck] restores [ck], when given, into [sim] and returns the
    harness observations it carries and the cycle to continue from;
    without a checkpoint, empty observations and cycle 0. *)

val observe : t -> Fpga_sim.Simulator.t -> progress -> int -> unit
(** [observe bug sim p cycle] records the bug's harness view of [cycle],
    which [sim] has just completed: its output row, the external
    monitor and the completion condition — the per-cycle step
    {!run_design} takes after each [Simulator.step]. *)

val run : t -> buggy:bool -> report

val diff_reports : report -> report -> string option
(** [None] when two runs agree on output rows, log, stuck, finished and
    external-monitor flags and cycle count; otherwise the first of these
    that differs, in that order, as a message. The VCD is not compared. *)

val symptoms_of :
  buggy:report -> fixed:report -> Fpga_study.Taxonomy.symptom list
(** Symptoms derived from an already-executed differential pair, so a
    caller holding both reports need not simulate again. *)

val observed_symptoms : t -> Fpga_study.Taxonomy.symptom list
(** Differential execution of the buggy vs. fixed design. *)

val reproduces_of : bug:t -> buggy:report -> fixed:report -> bool
(** All expected symptoms manifest in an already-executed buggy/fixed
    pair. *)

val changed_signals : t -> string list
(** Signals whose driving logic differs between the buggy and fixed
    sources — where a localization tool should lead the developer. *)

(** Stimulus-building helpers. *)

val b : width:int -> int -> Fpga_bits.Bits.t
val hi : Fpga_bits.Bits.t
val lo : Fpga_bits.Bits.t
