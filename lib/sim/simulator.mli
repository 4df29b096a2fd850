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
    entirely. On designs where nearly every closure fires every cycle,
    the kernel falls back to a full sweep ({e dense mode}) while
    activity stays high; see {!dense_mode}.

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
          unboxed in a dense int bank, scheduled by per-closure dirty
          bits with adaptive sparse/dense hysteresis, so idle plans
          skip and fully-active plans pay no flag traffic *)
  | Event_driven
      (** synonym of {!Lowered_dirty}, kept only because the workload
          benchmark ([perfbench/]) still names it: {!create} builds
          [Lowered_dirty] for it, {!kernel} never returns it, and
          {!kernel_of_string} has no spelling for it. It is deleted
          together with that benchmark's mirror of the campaign and
          fuzz items (ROADMAP item 1, step 2). *)

val default_kernel : kernel
(** {!Lowered_dirty}: the kernel {!create} builds when none is given,
    and the primary kernel of the fuzz and campaign differentials, so
    those test the kernel that runs. *)

val kernel_name : kernel -> string
(** ["brute"] or ["lowered-dirty"] — the CLI spelling. *)

val kernel_of_string : string -> kernel option
(** Inverse of {!kernel_name} (also accepts ["brute-force"] and
    ["lowered_dirty"]). *)

type t

val create : ?kernel:kernel -> Elaborate.flat -> t
(** Build a simulator with all registers at their declared initial
    values (zero by default) and primitive outputs settled. [kernel]
    defaults to {!default_kernel}, whatever the plan size. Both kernels
    produce byte-identical traces. *)

val kernel : t -> kernel
(** The kernel this simulator was built with, after defaulting:
    {!Brute_force} or {!Lowered_dirty}, never the synonym. *)

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
(** Snapshot of a memory's words — the JTAG-readback analog used by
    SignalCat's log reconstruction. *)

val log : t -> (int * string) list
(** All $display output so far, oldest first, as (cycle, text). *)

val cycle : t -> int
(** Number of completed cycles. *)

val finished : t -> bool
(** The design executed [$finish]. *)

val on_display : t -> (int -> string -> unit) -> unit
(** Install a hook called for every $display as it fires. *)

(** {1 Telemetry}

    Kernel-profiling counters, recorded only when the global
    {!Fpga_telemetry.Telemetry} switch was on at {!create} time —
    otherwise every accessor below reports nothing and the hot paths
    carry no instrumentation at all. *)

type stats = {
  st_steps : int;  (** completed clock cycles *)
  st_settles : int;  (** combinational settle passes *)
  st_node_rounds : int;  (** settles × plan size: work a full sweep does *)
  st_nodes_evaluated : int;  (** nodes actually re-evaluated *)
  st_nodes_skipped : int;  (** [st_node_rounds - st_nodes_evaluated] *)
  st_dirty_total : int;  (** sum of dirty-set sizes at settle entry *)
  st_dirty_peak : int;  (** largest dirty set seen *)
  st_nba_commits : int;  (** non-blocking writes committed *)
  st_prim_steps : int;  (** primitive (FIFO/RAM) step invocations *)
  st_displays : int;  (** $display statements fired *)
  st_settle_hist : Fpga_telemetry.Telemetry.Histogram.snapshot;
      (** distribution of nodes evaluated per settle *)
}

val stats : t -> stats option
(** [None] when telemetry was disabled at construction. *)

val dense_mode : t -> bool
(** True while the {!Lowered_dirty} kernel is in its dense full-sweep
    fallback (always false for {!Brute_force}, which sweeps every
    settle). Exposed for tests and profiling; mode switches never
    change simulation results. *)

val lowering_stats : t -> Lowered.stats option
(** Closure/representation counts from the lowering pass; [None] unless
    the kernel is {!Lowered_dirty}. Always available (not
    telemetry-gated) — the numbers are static facts of the compiled
    plan. *)

val lowered_run_stats : t -> Lowered.run_stats option
(** Runtime counters of the lowered kernel (closures run/skipped,
    commit-buffer occupancy); [None] unless the kernel is
    {!Lowered_dirty}. Always maintained (a few int stores per settle, never per
    node), so available even without telemetry. *)

val kernel_efficiency : t -> float option
(** [st_nodes_evaluated / st_node_rounds] — the fraction of full-sweep
    work the kernel actually performed (1.0 for {!Brute_force}; for
    {!Lowered_dirty} both counts are in fused closures). [None] when
    telemetry is off or nothing ran. *)

val toggle_counts : t -> (string * int) list
(** Per-signal change counts (every change-detected write that took
    effect), in dense-id order; empty when telemetry is off. *)

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
    rows, monitor flags, stimulus seeds). *)

val restore_checkpoint : t -> Checkpoint.t -> unit
(** Restore a snapshot into a simulator built from the same design.
    Raises {!Checkpoint.Checkpoint_error} when the checkpoint's design
    signature, a signal's width/shape, or a primitive's geometry does
    not match — a checkpoint can never be silently restored into a
    different design. {!Lowered_dirty} restarts in sparse mode with
    every closure dirty (a conservative superset that re-derives the
    schedule without affecting results). *)
