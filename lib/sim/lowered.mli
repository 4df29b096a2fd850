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
    with closure-array dispatch). Sequential blocks run by statement
    group, and a group nothing of which changed since it last ran is
    skipped ({!run_edge}). One change callback, fixed at {!create},
    sets both kinds of flag.

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

(** A simulator's run counters, the one record both kernels fill
    ({!Simulator.stats}). They are maintained unconditionally, a handful
    of int stores per settle, edge and commit, never per node. Under
    [Brute_force] every compiled node counts as a closure, each settle
    runs them all, and every non-blocking write counts as boxed; the
    sequential-group and edge counters stay 0 there. *)
type run_stats = {
  mutable rs_steps : int;  (** clock cycles stepped *)
  mutable rs_settles : int;  (** settle passes *)
  mutable rs_closures_run : int;  (** closures evaluated *)
  mutable rs_closures_skipped : int;  (** skipped by dirty scheduling *)
  mutable rs_run_min : int;
      (** fewest closures one settle evaluated (0 before any settle) *)
  mutable rs_run_max : int;  (** most closures one settle evaluated *)
  mutable rs_dirty_total : int;
      (** closures pending at settle entry, summed over settles *)
  mutable rs_dirty_peak : int;  (** most closures pending at a settle entry *)
  mutable rs_edges : int;
      (** sequential block invocations: blocks firing per edge, whether
          or not their groups ran *)
  mutable rs_seq_run : int;  (** sequential statement groups run *)
  mutable rs_seq_skipped : int;
      (** sequential statement groups skipped as clean *)
  mutable rs_commit_imm : int;  (** flat-buffer (unboxed) NBA commits *)
  mutable rs_commit_boxed : int;
      (** boxed NBA commits, drops included. A skipped statement group
          queues no writes, so the lowered kernel counts at most what
          [Brute_force] does on the same run. *)
  mutable rs_displays : int;  (** [$display] statements fired *)
}

val new_run_stats : unit -> run_stats
(** All counters 0. *)

val clear_run_stats : run_stats -> unit
(** Set every counter back to 0. *)

val count_settle : run_stats -> dirty:int -> run:int -> size:int -> unit
(** Count one settle that found [dirty] closures pending at entry and
    evaluated [run] of the [size] in its plan. *)

type t

type plan
(** What the kernel derives from a compiled design alone, built once
    per {!Simulator} plan and shared by every instance built from it:
    the closure each node is lowered into (single-reader assign chains
    fuse), the closure-level sensitivity map, the closures holding a
    [$display], each sequential block's statement groups with their
    flags and the signal-to-group map, the bank layout and {!stats}.
    Instances never write into it. *)

val plan :
  Compiled.tab ->
  nodes:Compiled.cnode array ->
  reads:int list array ->
  seq:(Elaborate.clock_edge * Compiled.cstmt list) list ->
  plan
(** [plan tab ~nodes ~reads ~seq]: [nodes] are the combinational nodes
    in topological order, [reads.(r)] the ids node [r] reads (write
    targets left out, their index expressions kept), each once, and
    [seq] the sequential blocks in source order. *)

val create :
  plan ->
  env:Compiled.env ->
  finished:bool ref ->
  runs:run_stats ->
  notify:(int -> unit) ->
  t
(** An instance of [plan] over [env], whose immediate-bank values are
    seeded from it: its nodes and statement groups lowered into
    closures bound to the instance, every closure and group pending.
    [finished] is shared with the simulator's $finish flag and checked
    before every lowered statement. Settles, edges and commits count
    into [runs]. [notify] is the simulator's change callback (toggle
    counting under telemetry): every change the instance detects calls
    it with the signal id, then flags the closures and statement groups
    that read the signal. *)

(** {1 Execution} *)

val settle : t -> displays:bool -> unit
(** One settle pass over the fused plan in topological order, counted
    with {!count_settle}: the whole plan is evaluated unless dirty-set
    scheduling skips some. [displays] gates combinational
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
    be no-ops. *)

val commit : t -> unit
(** Apply deferred non-blocking writes with change detection and
    notification: the flat immediate buffer in push order, then boxed
    writes in program order. Per-signal ordering is exact (a signal's
    writes always land in one buffer). *)

(** {1 Dirty-set scheduling} *)

val mark_all : t -> unit
(** Set every closure and sequential group pending, as {!create} leaves
    them (checkpoint restore, {!reset}): values written without
    notification must be re-read by everything. *)

val reset : t -> unit
(** Return the run state to what {!create} leaves, after the caller has
    put the shared [env] back to its initial values: the immediate bank
    is re-seeded from [env] and deferred writes are dropped. Follow with
    {!mark_all}; the run counters are the caller's to clear. *)

val dirty_count : t -> int
(** Closures currently pending. *)

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

val stats : t -> stats
