(** Chrome Trace Event Format serialization of {!Telemetry.Trace}
    segments, plus the reader-side validator.

    The emitted file is a [fpga-debug-trace/1] envelope around a
    [traceEvents] array loadable in Perfetto / [chrome://tracing]:
    'M' metadata rows name the process and one thread per track, 'B'/'E'
    pairs are tree spans (span id and parent in [args]), 'i' instants,
    'C' counter series. Timestamps are integer microseconds and every
    byte of the output is a deterministic function of the inputs. *)

val schema : string
(** ["fpga-debug-trace/1"]. *)

val escape : string -> string
(** Escape a string for a JSON string literal (without the quotes):
    quote, backslash and control characters. The campaign and fuzz
    reports use it too. *)

val to_json :
  ?process:string ->
  clock:Telemetry.Trace.clock ->
  main:Telemetry.Trace.segment ->
  jobs:(string * Telemetry.Trace.segment) list ->
  unit ->
  string
(** Serialize a run. [main] is the calling domain's segment (track 0);
    [jobs] the pool's per-job segments in submission order, labelled
    ["kind:..."] .

    [Wall] clock: physical layout — each job at its absolute time on
    the track of the domain that ran it (["domain-N"]), idle gaps
    visible. [Virtual] clock: canonical layout — jobs end-to-end in
    submission order on one track per job kind, making the output
    byte-identical across pool widths. *)

(** {1 Reader} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

val parse_json : string -> json
(** Minimal strict JSON parser (no dependency). Raises {!Bad_json}
    with a byte offset on malformed input. *)

type stats = {
  v_events : int;  (** all events, metadata included *)
  v_spans : int;  (** balanced B/E pairs *)
  v_counters : int;
  v_instants : int;
  v_tracks : int;  (** distinct (pid, tid) pairs *)
}

val validate : string -> (stats, string) result
(** Reader-side gate: the text must be valid JSON, carry the
    [fpga-debug-trace/1] schema, and every event must have a
    well-formed [ph]/[pid]/[tid] (plus integer [ts] and a name where
    the phase requires one), with B/E strictly balanced per track and
    no E preceding its B. Anything else is rejected with a located
    error — malformed input never produces stats. *)
