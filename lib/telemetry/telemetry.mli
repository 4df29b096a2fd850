(** Simulation telemetry: counters and one structured trace — the
    software analog of the paper's always-on observability stack
    (Statistics Monitor counters). The recording IPs' fixed-depth trace
    buffers are modelled in hardware by SignalCat, not here.

    Timing has a single record: a {!span} is a tree span of the trace
    ({!Trace}), and every view of the phases (the [--trace] export,
    [profile]'s phase table, perfbench's layer split) reads it from
    there.

    All state lives in a per-domain {e sink} held in domain-local
    storage, so independent simulations running on a pool of OCaml
    domains (lib/campaign) record concurrently without locks: each
    share of a pool batch runs in its own {!child} sink, which inherits
    the calling domain's enabled flags but starts with empty counters
    and trace buffer, and the pool {!merge}s the shares' {!report}s
    when the batch ends. A freshly spawned domain likewise starts from
    a child of its parent's sink.

    Counters (and the simulator's toggle counts) are gated on the
    telemetry switch, spans and other trace events on the tracing
    switch; both are off by default. Every recording entry point checks
    its switch with a single branch and returns immediately when it is
    off, so an uninstrumented run pays ~nothing. Producers therefore
    never need their own guards; they just call {!Counter.bump} and
    {!span} unconditionally. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val quietly : (unit -> 'a) -> 'a
(** [quietly f] runs [f] with the current domain's telemetry and
    structured tracing both off, then restores both switches (also on
    an exception). Nothing [f] does is recorded: no counter, span or
    other trace event, and the virtual trace clock does not advance.
    For work whose result is cached, so that computing it and reusing
    it leave the same record. *)

val child : unit -> (unit -> 'a) -> 'a
(** [child ()] copies the calling domain's switches (telemetry and
    tracing on/off, trace clock mode and cap) and returns a runner.
    [run f], on any domain, runs [f] in a fresh sink with those
    switches, empty counters and trace buffer, and track 0; then
    it puts that domain's own sink back (also on an exception), so
    nothing [f] records reaches it. Take {!report} inside [f] to keep
    what it recorded. The campaign pool gives each worker's share of a
    batch one such sink. *)

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

(** {1 Timing spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a tree span named [name], category
    ["span"], of the structured trace ({!Trace}); it closes on an
    exception too. While tracing is off it records nothing and is a
    tail call to [f] behind a single branch, whether telemetry is on
    or off. Phase timings and call counts are read back from the
    captured trace (see [Fpga_report.Profile]). *)

(** {1 Structured tracing}

    The timeline of the run: spans form a proper tree (parent/child via a per-domain open-span
    stack, stable per-sink span ids), each domain records onto its own
    {e track}, and the result serializes to Chrome Trace Event Format
    via {!Trace_export}. Like everything else in this module the state
    is per-sink: a {!child} sink (one per pool worker per batch, and
    one per spawned domain) inherits the switch, clock mode, and cap,
    but starts with an empty buffer, ids from 0, and track 0 (the pool
    assigns worker tracks), so merging a batch's shares is collision
    free by construction. *)

module Trace : sig
  type clock =
    | Wall
        (** the injectable wall clock ({!set_clock} below), µs
            precision *)
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
  (** Turn tracing on for the current domain (and, via {!child}
      sinks, every pool batch it starts afterwards). [clock] defaults
      to [Wall]; [cap] bounds the per-domain event buffer (default
      262144). The cap is soft: over it, new events are dropped and
      counted ({!dropped}) but every recorded span still closes, so
      captures stay balanced. *)

  val disable : unit -> unit
  val enabled : unit -> bool

  val set_clock : (unit -> float) -> unit
  (** Time source of the [Wall] clock in seconds, default [Sys.time]
      (CPU time); a harness that wants real timelines installs
      [Unix.gettimeofday]. Shared by all domains — install from the
      main domain while no pool batch runs. *)

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

type report = { r_counters : (string * int) list  (** sorted by name *) }

val report : unit -> report
(** Snapshot of the current domain's sink. *)

val empty_report : report

val merge : report -> report -> report
(** Combine two sinks' reports (e.g. two shares of a pool batch):
    counters are summed by name. *)

val reset : unit -> unit
(** Zero the current domain's counters. The trace buffer is left as it
    is ({!Trace.reset} clears it); neither switch changes. *)
