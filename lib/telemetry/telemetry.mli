(** Simulation telemetry: counters, histograms and timing spans — the
    software analog of the paper's always-on observability stack
    (Statistics Monitor counters). The recording IPs' fixed-depth trace
    buffers are modelled in hardware by SignalCat, not here.

    All state lives in a per-domain {e sink} held in domain-local
    storage, so independent simulations running on a pool of OCaml
    domains (lib/campaign) record concurrently without locks: each
    domain accumulates into its own sink and the pool {!merge}s the
    per-domain {!report}s at join time. A freshly spawned domain
    inherits the parent's enabled flags but starts with empty counters
    and spans.

    Everything is gated on the current sink's switch, off by default.
    Every recording entry point checks the switch with a single branch
    and returns immediately when disabled, so an uninstrumented run
    pays ~nothing. Producers therefore never need their own guards;
    they just call {!Counter.bump}, {!Histogram.observe} and {!span}
    unconditionally. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val quietly : (unit -> 'a) -> 'a
(** [quietly f] runs [f] with the current domain's telemetry and
    structured tracing both off, then restores both switches (also on
    an exception). Nothing [f] does is recorded: no counter, span or
    trace event, and the virtual trace clock does not advance.
    For work whose result is cached, so that computing it and reusing
    it leave the same record. *)

val set_clock : (unit -> float) -> unit
(** Clock used by {!span}, in seconds. Defaults to [Sys.time] (CPU
    seconds), keeping the library dependency-free; a harness that
    prefers wall time can install [Unix.gettimeofday]. Shared by all
    domains — install it from the main domain before spawning. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val make : string -> t
  (** A counter handle is identified by its name: the same name always
      denotes the same logical counter, and bumps land in the sink of
      whichever domain performs them. Producers may call [make] at
      module initialization (in any domain) and bump from any other. *)

  val bump : t -> int -> unit
  (** No-op while telemetry is disabled. *)

  val incr : t -> unit

  val value : t -> int
  (** Value accumulated in the {e current} domain's sink. *)

  val name : t -> string
end

(** {1 Histograms} — power-of-two buckets over non-negative ints. *)

module Histogram : sig
  type t

  type snapshot = {
    hs_name : string;
    hs_count : int;
    hs_sum : int;
    hs_min : int;  (** 0 when empty *)
    hs_max : int;
    hs_buckets : (int * int) list;
        (** (inclusive upper bound, count), non-empty buckets only;
            bounds are [2^k - 1] *)
  }

  val make : string -> t
  (** Histograms are plain values owned by their producer (a simulator
      instance keeps its own), not interned; they are domain-safe as
      long as their producer is. *)

  val observe : t -> int -> unit
  (** No-op while telemetry is disabled; negative values clamp to 0. *)

  val snapshot : t -> snapshot
  val clear : t -> unit
end

(** {1 Timing spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], accumulating its duration and call count
    under [name] in the current domain's sink when telemetry is
    enabled (exceptions still record). While structured tracing
    ({!Trace}) is on, the same call also opens/closes a tree span named
    [name] (category ["span"]) — one instrumentation point feeds both
    the flat aggregate and the timeline. When both layers are off it is
    a tail call to [f] behind a single branch. *)

(** {1 Structured tracing}

    The timeline-grade layer on top of the flat {!span} aggregates:
    spans form a proper tree (parent/child via a per-domain open-span
    stack, stable per-sink span ids), each domain records onto its own
    {e track}, and the result serializes to Chrome Trace Event Format
    via {!Trace_export}. Like everything else in this module the state
    is per-domain: a spawned worker inherits the switch, clock mode,
    and cap, but starts with an empty buffer, ids from 0, and track 0
    (the pool assigns worker tracks), so merge-at-join is collision
    free by construction. *)

module Trace : sig
  type clock =
    | Wall  (** the injectable wall clock ({!set_clock}), µs precision *)
    | Virtual
        (** deterministic per-domain tick clock: each timestamp read
            returns the previous value + 1µs. Same recording sequence ⇒
            same timestamps, on any machine — the mode the trace
            determinism tests and CI pin. *)

  type event = {
    te_ph : char;  (** 'B' | 'E' | 'i' | 'C' *)
    te_id : int;  (** span id ('B' only) *)
    te_parent : int;  (** parent span id, -1 at a tree root ('B' only) *)
    te_name : string;
    te_cat : string;
    te_track : int;
    te_ts : int;  (** microseconds *)
    te_value : int;  (** counter value ('C' only) *)
  }

  type segment = {
    sg_track : int;  (** track the slice was recorded on *)
    sg_start : int;  (** absolute µs of the slice origin *)
    sg_events : event list;
        (** timestamps rebased to [sg_start], span ids rebased to 0,
            parents opened before the slice mapped to -1 *)
  }

  val empty_segment : segment

  val enable : ?clock:clock -> ?cap:int -> unit -> unit
  (** Turn tracing on for the current domain (and, via sink
      inheritance, any domain it spawns afterwards). [clock] defaults
      to [Wall]; [cap] bounds the per-domain event buffer (default
      262144). The cap is soft: over it, new events are dropped and
      counted ({!dropped}) but every recorded span still closes, so
      captures stay balanced. *)

  val disable : unit -> unit
  val enabled : unit -> bool

  val set_clock : (unit -> float) -> unit
  (** Wall-time source in seconds, default [Sys.time]; a harness that
      wants real timelines installs [Unix.gettimeofday]. Distinct from
      the flat-span clock ({!Telemetry.set_clock}). Shared by all
      domains — install from the main domain before spawning. *)

  val set_track : int -> unit
  (** Track (Chrome-trace [tid]) new events record on. Track 0 is the
      main domain by convention; the campaign pool gives worker [w]
      track [w+1]. *)

  val track : unit -> int

  val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
  (** Open a tree span around [f] (closes on exception). No-op tail
      call while tracing is off. *)

  val instant : ?cat:string -> string -> unit
  (** A zero-duration 'i' event at the current time. *)

  val counter : string -> int -> unit
  (** Sample a counter series ('C' event) at the current time. *)

  val mark : unit -> int
  (** Current buffer position, to bracket a {!capture_since}. *)

  val capture_since : ?consume:bool -> int -> segment
  (** Rebase the events recorded since a {!mark} into a self-contained
      {!segment}: a pure value of what happened inside the slice,
      identical no matter which worker ran it (the virtual-clock
      determinism device). [consume] truncates the buffer back to the
      mark so long pools don't accumulate. *)

  val capture_all : ?consume:bool -> unit -> segment

  val dropped : unit -> int
  (** Events dropped over the cap in the current domain's sink. *)

  val length : unit -> int
  (** Events currently buffered. *)

  val depth : unit -> int
  (** Open spans on the current domain's stack. *)

  val reset : unit -> unit
  (** Clear buffer, stack, ids, virtual clock, and drop accounting.
      Keeps the switch, clock mode, cap, and track. *)
end

(** {1 Reporting} *)

type report = {
  r_counters : (string * int) list;  (** sorted by name *)
  r_spans : (string * int * float) list;
      (** (name, calls, total seconds), sorted by name *)
}

val report : unit -> report
(** Snapshot of the current domain's sink. *)

val empty_report : report

val merge : report -> report -> report
(** Combine two sinks' reports (e.g. two worker domains at pool join):
    counters and spans are summed by name. *)

val reset : unit -> unit
(** Zero the current domain's counters and spans and {!Trace.reset}
    its trace buffer. Does not change the enabled flags or the
    clocks. *)
