(** $display format-string rendering.

    Supports the directives hardware debugging actually uses: [%d],
    [%0d], [%h]/[%x], [%b], [%c], and [%%]; a [0] width prefix is
    accepted before any of them ([%0h], [%0%]). Anything else after a
    [%] — an unknown directive with its optional [0] prefix ([%q],
    [%0q]), or a [%] or [%0] that ends the string — is kept verbatim,
    so malformed format strings stay visible in the log.

    A format is parsed once by {!compile}; {!render_to} renders the
    compiled form as often as the statement fires. [%d] prints the low
    62 bits of its argument in decimal, [%c] the low 8 bits as a
    character, [%h]/[%x] one zero-padded hex digit per 4 bits of the
    argument's width, [%b] one digit per bit. *)

type directive =
  | Dec  (** [%d] *)
  | Hex  (** [%h], [%x] *)
  | Bin  (** [%b] *)
  | Chr  (** [%c] *)

type t
(** A compiled format: its literal runs and argument directives. *)

val compile : string -> t

val render_to :
  Buffer.t -> t -> nargs:int -> (Buffer.t -> directive -> int -> unit) -> unit
(** [render_to buf t ~nargs arg] appends the rendering of [t] to [buf].
    The [k]th directive calls [arg buf d k] when [k < nargs], which
    must append argument [k] under directive [d] (with {!add_int} or
    {!add_bits}); directives past [nargs] render as ["<missing>"], and
    arguments past the last directive are never asked for. *)

val add_int : Buffer.t -> directive -> width:int -> int -> unit
(** [add_int buf d ~width v] appends a [width]-bit argument held as
    its raw pattern [v] (masked to [width <= 63] bits, as
    {!Fpga_bits.Bits.Imm}), without allocating. *)

val add_bits : Buffer.t -> directive -> Fpga_bits.Bits.t -> unit
(** [add_bits buf d v] appends an argument of any width; the same text
    as {!add_int} when the width is at most 63. *)

val render_bits : t -> Fpga_bits.Bits.t list -> string
(** [render_bits t args] is {!render_to} into a fresh buffer, with
    [args] substituted positionally through {!add_bits}. *)

val render : string -> Fpga_bits.Bits.t list -> string
(** [render fmt args] is [render_bits (compile fmt) args]. *)
