(** Cycle-accurate two-phase simulator over an elaborated design.

    Each {!step} performs one clock cycle:
    + settle combinational logic (continuous assigns and always-star
      blocks, in a topological order computed at construction),
    + execute sequential blocks against the settled pre-edge state,
      collecting non-blocking writes ($display statements fire here,
      with pre-edge values, as in event-driven simulators),
    + step the builtin IP primitives (FIFOs, RAMs),
    + commit the non-blocking writes and primitive outputs,
    + settle combinational logic again so outputs reflect the new state.

    The simulator assumes a single clock domain: every sequential block
    fires on every [step], which matches the single-clock subset the
    testbed uses (dcfifo instances have both clocks tied).

    Combinational settling is {e change-driven} under the default
    kernel, {!Lowered_dirty}: each combinational node is compiled once
    into a {!Lowered} closure, every write is change-detected, and each
    settle re-runs only the closures whose inputs actually changed, in
    topological order. This preserves the exact cycle-level semantics
    of the full sweep (including the once-per-final-settle firing of
    combinational [$display] statements) while skipping quiescent logic
    entirely. Sequential blocks skip the same way, by statement group.

    The only other kernel, {!Brute_force}, re-evaluates the whole plan
    on every settle. It shares no scheduling code with the default and
    is kept as the independent reference of the differential tests.
    Both kernels produce byte-identical traces. *)

exception Combinational_cycle of string list
(** Raised at construction when continuous assignments / combinational
    blocks form a dependency cycle; carries the signals involved. *)

type kernel =
  | Brute_force
      (** re-evaluate the full topological plan on every settle — the
          seed behavior, kept as the differential-testing reference *)
  | Lowered_dirty
      (** closure-array kernel ({!Lowered}): each comb node compiled
          once into a fused [unit -> unit] closure, narrow signals
          unboxed in a dense int bank, scheduled by per-closure and
          per-statement-group dirty bits, so idle logic is skipped *)
  | Event_driven
      (** synonym of {!Lowered_dirty}, kept only because the workload
          benchmark ([perfbench/]) still names it: {!create} builds
          [Lowered_dirty] for it, {!kernel} never returns it, and the
          CLI has no spelling for it. It is deleted together with that
          benchmark's mirror of the campaign and fuzz items. *)

val default_kernel : kernel
(** {!Lowered_dirty}: the kernel {!create} builds when none is given,
    and always the primary side of the fuzz and campaign differentials
    (with {!Brute_force} the reference side), so those test the kernel
    that runs. *)

val kernel_name : kernel -> string
(** ["brute"] or ["lowered-dirty"] — the CLI spelling. *)

type t

val create : ?kernel:kernel -> Elaborate.flat -> t
(** Build a simulator with all registers at their declared initial
    values (zero by default) and primitive outputs settled. [kernel]
    defaults to {!default_kernel}, whatever the plan size. Both kernels
    produce byte-identical traces.

    Construction has two halves. The {e plan} is what depends on the
    flat alone: the compiled combinational nodes in topological order,
    the compiled sequential blocks and primitive ports, which is all
    {!Brute_force} runs, and the {!Lowered.plan} that {!Lowered_dirty}
    schedules by, built from the same read sets the sort used. The
    {e run state} is the instance's own: values, the {!Lowered_dirty}
    closures and dirty flags, primitive contents and stats. A
    combinational node with an unbound name raises
    {!Compiled.Eval_error} before the sort can find a cycle through
    it. Each domain keeps the last plan it compiled,
    keyed on the physical flat, so building again on the same flat (as
    a fuzz mutant's gate and runs do) compiles nothing; instances never
    write into their plan, so they never disturb each other. A flat
    that fails to compile is not remembered: a combinational cycle
    raises {!Combinational_cycle} on every call. Every call opens the
    ["compile"] telemetry span, hit or miss. *)

val reset : t -> unit
(** Return [sim] to exactly the state {!create} left it in, without
    rebuilding anything: cycle-0 values re-derived from the design
    (declared initial values, zero otherwise), FIFO and RAM contents
    cleared and primitive outputs driven again, every {!Lowered_dirty}
    closure and statement group pending, deferred
    writes dropped, {!stats} and the toggle counts zeroed, cycle 0, no
    [$finish], an empty {!log} and no {!on_display} hook. Whatever
    [sim] ran before, a run after [reset sim] is indistinguishable from
    a run on a fresh [create ~kernel flat] of the same design: same
    values, log, VCD, checkpoints and stats. Whether toggles are
    counted stays as fixed at construction. Costs a pass over the
    signals and primitives, a fraction of {!create}'s compile. *)

val kernel : t -> kernel
(** The kernel this simulator was built with, after defaulting:
    {!Brute_force} or {!Lowered_dirty}, never the synonym. *)

val flat : t -> Elaborate.flat
(** The design this simulator was built from. *)

val step : t -> unit
(** Advance one clock cycle. No-op once the design executed [$finish]. *)

val run : t -> int -> unit
(** [run sim n] steps up to [n] cycles, stopping early on [$finish]. *)

(** {1 Access by name}

    The accessors below look a name up in the design's id table. Each
    simulator also remembers the last 8 name strings it was given, by
    physical identity: a caller that passes the same string every cycle
    (a literal, or a name bound once) skips hashing it. Equal but
    distinct strings resolve the same way, through the table. The
    cache never changes a result or an error. *)

val set_input : t -> string -> Fpga_bits.Bits.t -> unit
(** Drive a top-level input (resized to its declared width). Takes
    effect at the next [step]. *)

val set_input_int : t -> string -> int -> unit

val read : t -> string -> Fpga_bits.Bits.t
(** Read any signal by its flat name (post-settle value). *)

val read_id : t -> int -> Fpga_bits.Bits.t
(** [read_id sim i] is {!read} of the signal with dense id [i] (its
    index in [f_signal_order] of the design [sim] was built from),
    without the name lookup: {!read} is this after resolving the name.
    For callers that resolve their ids once, such as {!Vcd}. Raises
    [Invalid_argument] if [i] is out of range or names a memory. *)

val read_int : t -> string -> int
(** Low 62 bits of {!read}, as an int. *)

val read_memory : t -> string -> Fpga_bits.Bits.t array
(** Snapshot of a memory's words. *)

val memory_reader : t -> string -> int -> Fpga_bits.Bits.t
(** [memory_reader sim name] resolves the memory [name] once and
    returns a reader of its live words: [memory_reader sim name k] is
    [(read_memory sim name).(k)] at the time of the read, without
    copying the memory — the JTAG-readback analog used by SignalCat's
    log reconstruction. Raises [Invalid_argument] if [name] is not a
    memory (at once) or [k] is out of range (at the read). *)

val log : t -> (int * string) list
(** All $display output so far, oldest first, as (cycle, text). *)

val cycle : t -> int
(** Number of completed cycles. *)

val finished : t -> bool
(** The design executed [$finish]. *)

val on_display : t -> (int -> string -> unit) -> unit
(** Install a hook called for every $display as it fires. *)

(** {1 Telemetry}

    Kernel counters ({!stats}) are kept by both kernels on every
    instance, telemetry on or off: a few int stores per settle, edge and
    commit. Per-signal toggle counts cost a callback per write, so they
    are kept only by an instance created while {!profiling} holds, and
    only such an instance samples the ["sim.*"] trace counter series. *)

val stats : t -> Lowered.run_stats
(** A copy of the counters now, the same record whichever kernel runs:
    steps, settles, closures run and skipped per settle (under
    {!Brute_force} every node runs on every settle), the dirty set at
    settle entry, commits, displays. Counted since {!create} or the last
    {!reset}; {!restore_checkpoint} leaves them running. *)

val profiling : unit -> bool
(** Whether a simulator {!create}d now, on this domain, keeps toggle
    counts: the telemetry switch or structured tracing is on. *)

val lowering_stats : t -> Lowered.stats option
(** Closure/representation counts from the lowering pass; [None] unless
    the kernel is {!Lowered_dirty}. Always available (not
    telemetry-gated) — the numbers are static facts of the compiled
    plan. *)

val lowered_run_stats : t -> Lowered.run_stats option
(** The live {!stats} record under {!Lowered_dirty}, [None] under
    {!Brute_force}. Kept only because the workload benchmark
    ([perfbench/]) reads it, so its counts stay lowered-only; it is
    deleted together with that benchmark's mirror of the campaign and
    fuzz items, as {!Event_driven} is. *)

val kernel_efficiency : t -> float option
(** Closures run over closures considered ([rs_closures_run +
    rs_closures_skipped] of {!stats}): the fraction of full-sweep work
    the kernel actually performed (1.0 for {!Brute_force}; for
    {!Lowered_dirty} both counts are in fused closures). [None] before
    the first settle. *)

val toggle_counts : t -> (string * int) list
(** Per-signal change counts (every change-detected write that took
    effect), in dense-id order; empty unless {!profiling} held at
    {!create}. *)

val hottest_signals : ?k:int -> t -> (string * int) list
(** Top-[k] (default 10) most active signals by toggle count,
    descending, ties by name. *)

(** {1 Checkpointing}

    Deep snapshots of the architectural state (registers, memories,
    primitive contents, cycle count, log), in the spirit of the
    checkpoint-based FPGA debuggers the paper relates to (DESSERT,
    StateMover). A snapshot is name-keyed into the versioned,
    content-hashed {!Checkpoint} wire format and bound to the design by
    its structural hash. Restoring a checkpoint and stepping yields
    results bit-identical to a run that never stopped — the
    replay-determinism property the CI replay gate enforces. *)

val save_checkpoint :
  ?tag:string -> ?meta:(string * string) list -> t -> Checkpoint.t
(** Snapshot the complete state at the current cycle boundary. [tag]
    records free-form provenance (e.g. the bug id); [meta] is an
    open-ended key/value section for harness replay state (observed
    rows, monitor flags, stimulus seeds). The design signature
    ({!Checkpoint.design_hash}) is computed once per simulator, at its
    first save or restore, and survives {!reset}. *)

val restore_checkpoint : t -> Checkpoint.t -> unit
(** Restore a snapshot into a simulator built from the same design.
    Raises {!Checkpoint.Checkpoint_error} when the checkpoint's design
    signature, a signal's width/shape, or a primitive's geometry does
    not match — a checkpoint can never be silently restored into a
    different design. {!Lowered_dirty} restarts with every closure and
    statement group dirty (a conservative superset that re-derives the
    schedule without affecting results). *)
