(** Checkpoint streams and time-travel replay over the testbed — the
    paper's "run long, then reconstruct the interesting window in
    simulation" workflow.

    {!record} runs a bug's buggy design while emitting a periodic
    checkpoint stream. {!replay} restores any snapshot from such a
    stream and re-simulates a window with a full waveform of all
    signals; the result is bit-identical to the uninterrupted run over
    the same window. {!bisect} combines the two into first-failure
    localization: it binary-searches the checkpoint stream for the
    first snapshot whose harness state has already diverged from the
    fixed design's reference run, then re-simulates forward from the
    last good snapshot one cycle at a time to pin the exact first
    failing cycle — the cost profile (log-many metadata probes plus at
    most one inter-checkpoint window of re-simulation) that makes the
    technique viable on multi-hour FPGA traces. *)

type recording = {
  rec_checkpoints : Fpga_sim.Checkpoint.t list;  (** by ascending cycle *)
  rec_report : Bug.report;  (** the straight run's outcome *)
}

val record :
  ?kernel:Fpga_sim.Simulator.kernel -> ?every:int -> Bug.t -> recording
(** Run the buggy design for the bug's own cycle budget, capturing a
    checkpoint every [every] cycles (default 50). A run shorter than
    [every] produces an empty stream. *)

val replay :
  ?kernel:Fpga_sim.Simulator.kernel ->
  ?window:int ->
  from:Fpga_sim.Checkpoint.t ->
  Bug.t ->
  Bug.report
(** Restore [from] and re-simulate, capturing the full waveform of the
    window. [window] bounds the number of cycles replayed past the
    snapshot; by default the run continues to the bug's own cycle
    budget, stopping early on [$finish] or the completion condition
    exactly as the straight run does. *)

(** Outcome of a checkpoint-stream bisection. *)
type bisect_result = {
  bi_first_failing : int option;
      (** smallest completed-cycle count at which the buggy run's
          observable state has diverged from the fixed reference;
          [None] when the two runs never diverge *)
  bi_checkpoints : int;  (** checkpoints in the recorded stream *)
  bi_probes : int;  (** metadata-only predicate evaluations *)
  bi_replayed_cycles : int;  (** cycles re-simulated during the scan *)
  bi_detail : string;  (** human-readable account of the search *)
}

val bisect :
  ?kernel:Fpga_sim.Simulator.kernel -> ?every:int -> Bug.t -> bisect_result
(** Locate the first failing cycle of the buggy run. Failure at cycle
    [C] means: the external monitor has tripped, the observed output
    rows within the first [min C fixed_end] cycles differ from the
    fixed run's, or the fixed run completed by [C] while the buggy run
    had not. All three clauses are monotone over a recorded stream, so
    binary search over checkpoint metadata is sound. *)
