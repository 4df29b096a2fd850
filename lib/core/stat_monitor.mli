(** Statistics Monitor (section 4.4): counters for developer-specified
    single-bit events, read back after execution. Unexpected
    differences between related counters — valid inputs vs. valid
    outputs — indicate data loss without recording anything
    cycle-by-cycle. *)

type event = { event_name : string; trigger : Fpga_hdl.Ast.expr }

type t = { module_name : string; events : event list }

val counter_name : event -> string
(** The name of the 32-bit counter register backing an event. *)

val plan : Fpga_hdl.Ast.module_def -> event list -> t
(** Validate the events against the module's signals. *)

val instrument :
  ?log_changes:bool -> t -> Fpga_hdl.Ast.module_def -> Fpga_hdl.Ast.module_def
(** Add one 32-bit counter per event; with [log_changes], also emit a
    $display (hence a SignalCat record) each time a counter advances. *)

val counts : t -> Fpga_sim.Simulator.t -> (string * int) list
(** Counter read-back after an execution. *)

type anomaly = {
  producer : string;
  consumer : string;
  produced : int;
  consumed : int;
}

val check_balance :
  (string * int) list -> producer:string -> consumer:string -> anomaly option
(** The statistical data-loss check: producer events should equal
    consumer events. *)

val anomaly_to_string : anomaly -> string

(** {1 Per-component localization (section 4.4)}

    Per-stage counters localize a statistical anomaly to a small region
    of the circuit: walk the pipeline's counters in order and report the
    first boundary where events disappear. *)

type stage_anomaly = {
  upstream : string;
  downstream : string;
  upstream_count : int;
  downstream_count : int;
}

val localize_stage :
  (string * int) list -> stages:string list -> stage_anomaly option

val valid_signal_events : Fpga_hdl.Ast.module_def -> event list
(** One event per valid-like 1-bit signal (ports first, then registers,
    in declaration order) — instant per-stage counters for a handshaked
    pipeline. *)
