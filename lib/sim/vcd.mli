(** Value Change Dump (VCD) writer — the waveform format consumed by
    GTKWave and most hardware debug tooling. Memories are omitted, as in
    common simulator defaults; hierarchical '/' separators are rendered
    as dots. *)

type t

val create : Elaborate.flat -> t
(** A dump covering every non-memory signal of the elaborated design,
    in sorted-name order. Each signal's dense id is resolved here, once,
    from [flat.f_signal_ids]. *)

val sample : t -> Simulator.t -> unit
(** Record the signals that changed since the previous sample, stamped
    with the simulator's cycle count. Call once per completed cycle.
    The cost is O(signals) per call: one {!Simulator.read_id} and one
    compare per signal, and the changed values are written straight
    into the buffer. The simulator must be built from the same [flat]
    as the dump, since the ids are that design's. *)

val contents : t -> string
(** The VCD text accumulated so far (header included). *)

val save : t -> string -> unit
(** Write {!contents} to a file. *)
