(** Testbench driver: the push-button harness used to reproduce the
    testbed bugs and to run the tools' dynamic phases. *)

type stimulus = int -> (string * Fpga_bits.Bits.t) list
(** A stimulus maps the cycle number to the input bindings applied
    before that cycle's clock edge. Bindings persist until overwritten,
    so a stimulus only needs to mention the inputs it changes.

    A harness applies the rows in order: cycle 0, 1, 2, ... on a fresh
    simulator, or from cycle [k] on a simulator restored from a
    checkpoint taken after cycle [k-1] (which carries the inputs the
    earlier rows set). Every harness in this repository does, and
    {!tabulate} relies on it: a row may then leave out a binding that
    sets an input to the value it already holds. *)

type outcome = {
  cycles_run : int;
  finished : bool;  (** the design executed [$finish] *)
  stuck : bool;  (** [until] was given but never satisfied *)
  log : (int * string) list;  (** $display output, oldest first *)
}

val const_stimulus : (string * Fpga_bits.Bits.t) list -> stimulus
(** The same bindings every cycle. *)

val tabulate : stimulus -> stimulus
(** [tabulate f] is a stimulus that, applied in order, drives a design
    exactly as [f] does, for a pure [f] that is total on cycles [>= 0].
    Its rows come from a table of [f]'s changes, shared by every caller
    and domain:
    - row [c] holds only the bindings whose value differs (by
      {!Fpga_bits.Bits.equal}, so a new width is a change) from the
      value the name holds after rows [0 .. c-1]; row 0 holds every
      binding;
    - within a row the last binding of a name wins, at the position of
      its first;
    - a name [f] first binds at cycle [k] is a change at [k], so an
      input the design lacks raises at the same cycle as with [f].

    The table grows on demand, {!table_block} rows at a time: the first
    call that reaches a cycle past the rows built so far appends the
    blocks up to it, each continuing from the values the earlier blocks
    left. So [f] runs once per row in a process (twice where two
    domains race to build one block), and a row once built is never
    rebuilt. A cycle below 0 or at or past {!table_ceiling} returns
    [f]'s full row, so a run of any length keeps the table bounded.

    Re-setting an input to its value changes nothing in the simulator
    (writes are change-detected), so the results, logs and waveforms of
    an in-order run are those of [f], and so are its counters unless a
    row of [f] binds one name twice; only [f]'s per-cycle allocation is
    gone. *)

val table_block : int
(** The rows {!tabulate} builds at a time (64). *)

val table_ceiling : int
(** The cycles a {!tabulate}d table covers (65536, a whole number of
    blocks). *)

val run :
  ?max_cycles:int ->
  ?until:(Simulator.t -> bool) ->
  Simulator.t ->
  stimulus ->
  outcome
(** [run sim stimulus] is the one stepping loop of every
    stimulus-driven run. While [c = Simulator.cycle sim] is below
    [max_cycles] (default 10000), the design has not finished and
    [until] has not held, it applies [stimulus c], steps, and calls
    [until], which thus also serves as a per-cycle observer. A simulator
    restored from a checkpoint continues from the checkpoint's cycle.
    [cycles_run] is the cycle the run ended at. An unmet [until] is
    reported as [stuck] — the "application stuck" symptom of the bug
    study. *)

(** {1 Rows as text}

    Stimulus files and checkpoints' harness rows share one text form: a
    row [@CYCLE name=value ...] a line (no bindings is an empty row);
    blank lines and lines starting with [#] are skipped. Cycles ([>= 0])
    and values are read by [int_of_string] ([0x], [0o], [0b], [_] and a
    sign are accepted). *)

type row = int * (string * int) list

exception Bad_row of int * string
(** [Bad_row (line, message)], [line] counted from 1. *)

val print_rows : row list -> string
(** One line per row; {!read_rows} reads the rows back when names are
    non-empty and hold no space, newline or [=]. *)

val read_rows : check:(string -> string option) -> string -> row list
(** The rows of a text, in order. Raises {!Bad_row} at the first line
    that is not a row, or that binds a name [check] rejects with
    [Some message]. *)

val of_rows : Elaborate.flat -> row list -> stimulus
(** Apply [rows], each value at its signal's width in [flat]. Rows of
    one cycle apply in order (a later binding of a name wins); a cycle's
    row is found in constant time. Raises [Invalid_argument] for a name
    that is not a signal of [flat]. *)

val of_design :
  ?kernel:Simulator.kernel -> ?top:string -> Fpga_hdl.Ast.design -> Simulator.t
(** Elaborate (default top ["top"]) and build a simulator. [kernel]
    defaults to {!Simulator.Lowered_dirty} (see {!Simulator.create}). *)

val of_source : ?kernel:Simulator.kernel -> ?top:string -> string -> Simulator.t
(** Parse Verilog source, elaborate, and build a simulator. *)
