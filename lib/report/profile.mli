(** Kernel profiling of a testbed bug: run the buggy design with
    telemetry on and summarize where the simulator spent its work.

    This is the front end of the telemetry layer — the software analog
    of reading the paper's Statistics-Monitor counters and recording-IP
    occupancy back from the FPGA after a run. *)

(** Lowered-kernel profile: static lowering shape plus runtime
    skip/commit counters; present only when the run used
    {!Fpga_sim.Simulator.Lowered_dirty}. *)
type lowered_profile = {
  lp_stats : Fpga_sim.Lowered.stats;
  lp_runs : Fpga_sim.Lowered.run_stats;
}

type t = {
  p_bug_id : string;
  p_top : string;
  p_kernel : string;
      (** ["brute"] or ["lowered-dirty"] *)
  p_cycles_requested : int;
  p_cycles_run : int;
  p_finished : bool;
  p_stats : Fpga_sim.Simulator.stats;
  p_efficiency : float;
      (** evaluated / rounds — 1.0 means nothing was skipped (for
          the lowered kernel both counts are in fused closures) *)
  p_lowered : lowered_profile option;
  p_hottest : (string * int) list;  (** top-K signals by toggle count *)
  p_spans : (string * int * float) list;  (** (phase, calls, seconds) *)
  p_counters : (string * int) list;
  p_bus_depth : int;
  p_bus_published : int;
  p_bus_dropped : int;
  p_bus_retained : int;
}

val run :
  ?kernel:Fpga_sim.Simulator.kernel ->
  ?cycles:int ->
  ?buffer:int ->
  ?top_k:int ->
  Fpga_testbed.Bug.t ->
  t
(** Profile [cycles] (default 200) cycles of the bug's buggy design
    under its own stimulus, with the global event bus resized to
    [buffer] (default 8192) entries. Telemetry is enabled and reset for
    the run; the previous enabled/disabled state is restored on exit
    (the bus keeps the run's contents so callers can inspect it).
    Omitting [kernel] keeps {!Fpga_sim.Simulator.create}'s default
    kernel; [p_kernel] records the kernel actually used. *)

val to_json : t -> string
(** Schema ["fpga-debug-profile/3"], stable for CI consumption. The
    ["lowered"] object (closure skip rates, commit-buffer occupancy) is
    present when the run used the lowered kernel. *)

val print : t -> unit
(** Human-readable tables on stdout. *)
