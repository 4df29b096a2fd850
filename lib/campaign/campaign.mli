(** Campaign engine: batch execution of independent simulation jobs on
    a pool of OCaml domains.

    The paper's evaluation (§6) repeatedly runs the whole 20-bug
    testbed end to end; this module turns that from a latency chain
    into a throughput workload. A single shared queue is drained by N
    workers, domains that persist across calls: each is spawned the
    first time a call asks for that many, and parked between batches
    (the pool never shrinks). The calling domain waits for the batch
    and runs no job itself. Each job's result is slotted into a results array at its
    submission index, and the mutex handoff with which each worker
    reports the end of its share makes the disjoint slot writes
    visible to the caller, so collected results are ordered by job id
    and byte-identical to a serial run regardless of scheduling (see
    the campaign determinism tests). One call owns the workers at a
    time: a call made while they are busy, from inside a job or from
    another domain, runs its batch inline on its own domain.

    Jobs must be self-contained: they share no mutable state, and any
    telemetry they record lands in per-worker sinks, fresh for every
    batch ({!Fpga_telemetry.Telemetry.child}), that the pool merges
    when the batch ends. *)

(** {1 Generic pool} *)

type 'a job = { label : string; work : unit -> 'a }

type 'a job_result = {
  jr_id : int;  (** submission index; result arrays are ordered by it *)
  jr_label : string;
  jr_wall : float;  (** seconds spent in the job body *)
  jr_domain : int;  (** 0-based worker that ran it *)
  jr_value : ('a, string) result;
      (** [Error] carries the exception text of a raising job *)
  jr_trace : Fpga_telemetry.Telemetry.Trace.segment;
      (** the job's slice of its worker's trace buffer (empty while
          tracing is off). Each job body runs inside a tree span named
          after its label (category ["job"]) on its worker's track
          (worker [w] records on track [w+1]); the captured segment is
          rebased, so it is identical at any pool width. *)
}

type pool_stats = {
  ps_domains : int;
  ps_jobs : int;
  ps_wall : float;  (** submission to the last worker's finish *)
  ps_busy : float array;  (** per-worker seconds inside job bodies *)
  ps_utilization : float;  (** total busy / (domains × wall) *)
  ps_telemetry : Fpga_telemetry.Telemetry.report;
      (** merged across the batch's worker sinks; on the inline path,
          the caller's own sink *)
}

val run_pool :
  ?domains:int -> 'a job array -> 'a job_result array * pool_stats
(** Execute every job; results are ordered by submission index.
    [domains] defaults to [Domain.recommended_domain_count ()] and is
    clamped to the job count. [domains] parked workers run the batch
    while the calling domain waits, each share in a fresh child of the
    caller's telemetry sink; the caller's own sink is left as it was.
    A value [<= 1] (or a single job) runs inline on
    the calling domain, recording into its sink, and so does a call
    made while another call's batch holds the workers (a nested call
    from inside a job, or a call from a second domain). A raising job
    becomes an [Error] result and never takes down the pool; an
    exception escaping the pool's own code in a worker is re-raised
    here once every worker has finished. *)

(**/**)

val share_hook : (int -> unit) ref
(** Called with the worker's index at the start of every share of a
    pooled batch, outside the per-job error isolation. For tests of the
    escape path; [ignore] otherwise. *)

(**/**)

(** {1 Testbed jobs} *)

type verdict = {
  v_bug : string;
  v_kind : string;  (** ["repro"], ["differential"], or ["sweep:<n>"] *)
  v_cycles : int;  (** simulated cycles, all runs of the job summed *)
  v_ok : bool;
  v_detail : string;
  v_symptoms : string list;  (** observed symptom names (repro jobs) *)
  v_log : (int * string) list;  (** buggy-run $display log *)
  v_vcd : string option;  (** buggy-run waveform (repro jobs) *)
}

val repro_job : Fpga_testbed.Bug.t -> verdict job
(** Differential buggy-vs-fixed reproduction with a VCD captured on
    the buggy side; ok when every Table 2 symptom manifests. *)

val differential_job : Fpga_testbed.Bug.t -> verdict job
(** {!Fpga_sim.Simulator.default_kernel} vs the brute-force reference
    over the buggy design; ok when the two reports are observationally
    identical. *)

val sweep_job : cycles:int -> Fpga_testbed.Bug.t -> verdict job
(** Buggy run under a non-default cycle budget. *)

val replay_job : every:int -> Fpga_testbed.Bug.t -> verdict job
(** Checkpoint/replay determinism: record a stream with a checkpoint
    every [every] cycles, round-trip the middle snapshot through the
    serialized wire format, replay it, and demand the window be
    byte-identical to the straight run (rows, log, flags, and the full
    waveform). Vacuously ok when the run is too short to produce a
    checkpoint. *)

(** {1 Campaign} *)

type t = {
  c_results : verdict job_result array;  (** ordered by job id *)
  c_stats : pool_stats;
  c_cycles : int;  (** simulated cycles across all jobs *)
}

val jobs_of :
  ?differential:bool ->
  ?sweeps:int list ->
  ?replay_every:int ->
  Fpga_testbed.Bug.t list ->
  verdict job array
(** Repro jobs for every bug, plus kernel-differential pairs when
    [differential], plus one sweep job per (bug, cycle budget) in
    [sweeps], plus one replay-determinism job per bug when
    [replay_every] is set to a positive checkpoint interval. *)

val run :
  ?domains:int ->
  ?differential:bool ->
  ?sweeps:int list ->
  ?replay_every:int ->
  Fpga_testbed.Bug.t list ->
  t

val ok : t -> bool
(** Every job completed with [v_ok]. *)

val trace_segments :
  t -> (string * Fpga_telemetry.Telemetry.Trace.segment) list
(** (label, segment) per job, in submission order — the [~jobs]
    argument of {!Fpga_telemetry.Trace_export.to_json}. *)

val to_json : t -> string
(** Schema [fpga-debug-campaign/1]: per-job wall time, worker, verdict
    (waveforms summarized as length + MD5), plus aggregate throughput,
    per-worker busy time, pool utilization, and merged telemetry. *)

val print : t -> unit

(** {1 Fuzz campaigns}

    The differential fuzzing job kind: each job is one mutant of
    {!Fpga_fuzz.Fuzz.run_one}, generated inside the job from
    [(seed, index)] alone, so the pool's slot-by-submission-index
    ordering makes any [--jobs] width produce the same results. *)

val fuzz_job : seed:int -> index:int -> unit -> Fpga_fuzz.Fuzz.result job

type fuzz_campaign = {
  f_seed : int;
  f_results : Fpga_fuzz.Fuzz.result job_result array;
      (** ordered by mutant index *)
  f_stats : pool_stats;
}

val run_fuzz : ?domains:int -> seed:int -> mutants:int -> unit -> fuzz_campaign

val fuzz_ok : fuzz_campaign -> bool
(** No kernel-mismatch classifications and no pool-level job errors —
    the fuzz-smoke CI gate. *)

val fuzz_findings : fuzz_campaign -> Fpga_fuzz.Fuzz.result list
(** The kernel mismatches, in mutant-index order. *)

val fuzz_trace_segments :
  fuzz_campaign -> (string * Fpga_telemetry.Telemetry.Trace.segment) list
(** (label, segment) per mutant job, in mutant-index order. *)

val fuzz_to_json : fuzz_campaign -> string
(** Schema [fpga-debug-fuzz/2] (v2 adds the ["kernel"] field, the
    primary kernel {!Fpga_sim.Simulator.default_kernel}). Contains
    only deterministic fields (no wall times, worker ids, domain
    counts, or telemetry): the same seed yields byte-identical JSON
    across runs and [--jobs] widths. Reproducer
    sources are summarized as (bytes, MD5). *)

val print_fuzz : fuzz_campaign -> unit
