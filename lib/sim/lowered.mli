(** Lowered closure-array settle kernel.

    Lowers the id-resolved compiled plan ({!Compiled}) one level
    further at simulator construction: each combinational node becomes
    a fused [unit -> unit] closure with all dispatch (width class,
    representation, index power-of-two-ness) decided at compile time,
    and every vector signal of width [<= 63] lives unboxed in a dense
    [int array] bank ({!Fpga_bits.Bits.Imm}), masked on write. Wide
    vectors and memories stay in limb form in the shared
    {!Compiled.env}. Sequential always-blocks are lowered the same way,
    with non-blocking writes deferred into a flat int-triple commit
    buffer (boxed/memory targets overflow into a side list).

    Closures are scheduled by a per-closure dirty worklist fed from a
    closure-level sensitivity index (change-driven skipping composed
    with closure-array dispatch), with an adaptive sparse/dense
    hysteresis so fully-active plans pay no flag traffic. Sequential
    blocks run by statement group, and a group nothing of which changed
    since it last ran is skipped ({!run_edge}).

    Semantics are bit-identical to the reference executor: same width
    rules, same out-of-range index handling, same non-blocking commit
    ordering (dropped writes included, so commit statistics match),
    same display gating and change-detection points (toggle counts
    match the other kernels). Managed by {!Simulator}; not a public
    entry point. *)

type stats = {
  lw_nodes : int;  (** combinational nodes lowered *)
  lw_closures : int;  (** plan closures after fusion *)
  lw_fused : int;  (** nodes folded into a predecessor closure *)
  lw_imm : int;  (** signals held in the immediate int bank *)
  lw_boxed : int;  (** signals kept in limb form (wide vecs + mems) *)
  lw_seq : int;  (** sequential always-blocks lowered to closures *)
}

(** Runtime counters, maintained unconditionally (a handful of int
    stores per settle/commit, never per node). *)
type run_stats = {
  mutable rs_settles : int;  (** settle passes *)
  mutable rs_closures_run : int;  (** closures evaluated *)
  mutable rs_closures_skipped : int;  (** skipped by dirty scheduling *)
  mutable rs_edges : int;
      (** sequential block invocations: blocks firing per edge, whether
          or not their groups ran *)
  mutable rs_seq_run : int;  (** sequential statement groups run *)
  mutable rs_seq_skipped : int;
      (** sequential statement groups skipped as clean *)
  mutable rs_commit_imm : int;  (** flat-buffer (unboxed) NBA commits *)
  mutable rs_commit_boxed : int;  (** boxed NBA commits, drops included *)
}

type t

type seq_group = {
  g_stmts : Compiled.cstmt list;  (** program order *)
  g_flag : int;
      (** index of the group's dirty flag, or [-1]: the group runs on
          every edge *)
}
(** A statement group of one sequential block, as [Simulator] splits
    it. A group is the unit {!run_edge} skips. *)

type seq_edge
(** The groups firing on one clock edge, laid out for {!create}. *)

val seq_edge :
  (Elaborate.clock_edge * seq_group list) list -> Elaborate.clock_edge -> seq_edge
(** [seq_edge blocks edge]: the groups of the blocks firing on [edge],
    block by block in the order given. [blocks] lists each sequential
    block with its groups. *)

(** Combinational node in compiled form, as built by [Simulator]. *)
type node =
  | Lassign of Compiled.clvalue * Compiled.cexpr * int  (** ctx width *)
  | Lblock of Compiled.cstmt list

val create :
  tab:Compiled.tab ->
  env:Compiled.env ->
  finished:bool ref ->
  nodes:node array ->
  fuse:bool array ->
  sens:int list array ->
  display_ranks:int list ->
  seq_pos:seq_edge ->
  seq_neg:seq_edge ->
  seq_sens:int list array ->
  t
(** [fuse.(r)] marks a node to be folded into its predecessor's closure
    (legal only for single-reader assign chains — the caller proves
    it); [finished] is shared with the simulator's $finish flag and
    checked before every lowered statement. Immediate-bank values are
    seeded from [env]. [sens] maps signal id to the ranks of reading
    nodes and [display_ranks] lists ranks of comb blocks containing
    [$display]; both are lifted to the closure level. [seq_pos] and
    [seq_neg] hold the statement groups of each edge; [seq_sens] maps
    signal id to the flags of the groups that read or write it. Flags
    are numbered from 0 with no gap across both edges; [seq_pos],
    [seq_neg] and [seq_sens] are kept, never written. *)

(** {1 Execution} *)

val settle : t -> displays:bool -> int
(** One settle pass over the fused plan in topological order; returns
    the number of closures evaluated (the whole plan unless dirty-set
    scheduling skipped some). [displays] gates combinational
    [$display]s, as in the reference settle; display closures are
    forced onto the worklist for display-enabled settles so logs stay
    identical. *)

val run_edge : t -> Elaborate.clock_edge -> unit
(** Run the sequential blocks for one clock edge; non-blocking writes
    accumulate until {!commit}. Groups run block by block in source
    order. A group with a flag runs only when the flag is set, which
    a change to any signal it reads or writes does (every write path
    notifies: commits, blocking and comb writes, {!write_vec}). The
    flag is cleared just before the group runs, so what the group
    changes itself wakes it again. A skipped group's writes would all
    be no-ops. Once nearly every flagged group has run on 8 edges in a
    row, all groups run and no change marks a flag, until the commits
    go quiet for 8 edges; then every flag is set and marking resumes.
    The mode changes only the work done, never a result. *)

val pending_count : t -> int
(** Deferred writes accumulated since the last {!commit} (dropped
    writes included, matching the reference's commit statistics). *)

val commit : t -> unit
(** Apply deferred non-blocking writes with change detection and
    notification: the flat immediate buffer in push order, then boxed
    writes in program order. Per-signal ordering is exact (a signal's
    writes always land in one buffer). *)

(** {1 Dirty-set scheduling} *)

val mark_all : t -> unit
(** Reset the dirty scheduler: back to the sparse worklist with every
    closure and every sequential group pending and the sequential side
    marking again, as {!create} leaves it (checkpoint restore, {!reset}):
    values written without notification must be re-read by everything. *)

val reset : t -> unit
(** Return the run state to what {!create} leaves, after the caller has
    put the shared [env] back to its initial values: the immediate bank
    is re-seeded from [env], deferred writes are dropped and
    {!run_stats} is zeroed. Follow with {!mark_all}. *)

val dirty_count : t -> int
(** Closures currently pending: the sparse worklist size, or the whole
    plan in dense mode. *)

val dense : t -> bool
(** Whether dirty scheduling is currently in the dense full-sweep
    mode. *)

val plan_size : t -> int
(** Number of closures in the fused settle plan. *)

(** {1 State access} *)

val read_vec : t -> int -> Fpga_bits.Bits.t
(** Materialize the current value of a vector signal. *)

val write_vec : t -> int -> Fpga_bits.Bits.t -> unit
(** Change-detected external write (inputs, primitive outputs),
    resized to the signal width; notifies on change. *)

val set_vec_raw : t -> int -> Fpga_bits.Bits.t -> unit
(** Checkpoint restore: store without change detection or
    notification. *)

val input_fn : t -> Compiled.cexpr -> unit -> Fpga_bits.Bits.t
(** Compile a primitive-input reader over the lowered banks
    (self-determined context). *)

val set_emit : t -> (string -> unit) -> unit
(** Wire the [$display] sink (the simulator's log/telemetry path). *)

val set_notify : t -> (int -> unit) -> unit
(** Wire the external change callback (toggle counting under
    telemetry); dirty marking is composed on top internally. *)

val stats : t -> stats
val run_stats : t -> run_stats
