(** In-memory waveform capture, differencing, and ASCII rendering.

    The manual baseline the paper argues against is "inspecting a
    massive waveform"; this module provides that baseline for the
    testbed, plus the one operation that makes it productive: diffing a
    buggy run against a fixed run to find the first cycle at which they
    diverge. *)

type trace = { signal : string; width : int; values : Fpga_bits.Bits.t array }
type t = { cycles : int; traces : trace list }

(** {1 Capture} *)

val capture :
  ?max_cycles:int ->
  top:string ->
  signals:string list ->
  Fpga_hdl.Ast.design ->
  Testbench.stimulus ->
  t
(** Run a design under a stimulus, sampling [signals] every cycle. *)

val trace : t -> string -> trace option

(** {1 Differencing} *)

type divergence = {
  cycle : int;
  signal : string;
  left : Fpga_bits.Bits.t;
  right : Fpga_bits.Bits.t;
}

val diff : t -> t -> divergence list
(** Every point where two captures disagree, in time order, over the
    signals present in both. *)

val first_divergence : t -> t -> divergence option
(** The earliest disagreement — where a buggy run first departs from
    the fixed run. *)

val divergence_to_string : divergence -> string

(** {1 Rendering} *)

val render : ?from_cycle:int -> ?cycles:int -> t -> string
(** ASCII art: 1-bit signals as [_]/[~] rails, wider signals as hex
    values marked at their change points. *)
