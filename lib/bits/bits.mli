(** Arbitrary-width bit vectors with Verilog semantics.

    A value of type [t] is an unsigned bit vector of a fixed [width] (>= 1).
    All arithmetic is performed modulo [2^width], mirroring the behaviour of
    Verilog nets and registers: assigning a wider value truncates, a narrower
    value zero-extends.  Signed interpretations are available through the
    [signed_*] operations, which read the most significant bit as a sign. *)

type t

val width : t -> int

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the [w]-bit vector of all zeros. Raises [Invalid_argument]
    if [w < 1]. *)

val one : int -> t
(** [one w] is the [w]-bit vector holding 1. *)

val ones : int -> t
(** [ones w] is the [w]-bit vector of all ones. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] truncates the two's-complement representation of [n]
    to [width] bits. Negative [n] wraps, as in Verilog. *)

val of_bool : bool -> t
(** 1-bit vector: [true] is 1, [false] is 0. *)

val of_binary_string : string -> t
(** [of_binary_string "1010"] builds a vector whose width is the string
    length. Underscores are ignored. Raises [Invalid_argument] on other
    characters or empty strings. *)

val of_hex_string : width:int -> string -> t
(** [of_hex_string ~width s] parses hex digits (underscores ignored) and
    truncates/extends to [width]. *)

val of_decimal_string : width:int -> string -> t
(** Parses an unsigned decimal literal, truncated to [width] bits. *)

(** {1 Conversion} *)

val to_int : t -> int
(** Value as a non-negative OCaml int. Raises [Failure] if the value does
    not fit in 62 bits. *)

val to_int_trunc : t -> int
(** Low 62 bits of the value, always succeeds. *)

val field_int : t -> lo:int -> w:int -> int
(** [field_int v ~lo ~w] is bits [lo + w - 1 .. lo] as a non-negative
    int, read straight from the limbs without allocating: the value of
    [to_int (slice v ~hi:(lo + w - 1) ~lo)]. Raises [Invalid_argument]
    unless [1 <= w <= 62] and the field lies within the vector. *)

val to_binary_string : t -> string
(** [width] characters, most significant bit first. *)

val to_hex_string : t -> string
(** [(width + 3) / 4] lowercase digits, most significant first, zero
    padded. *)

val to_signed_int : t -> int
(** Two's-complement interpretation. Raises [Failure] if it does not fit. *)

(** {1 Structure} *)

val bit : t -> int -> bool
(** [bit v i] is bit [i] (0 = least significant). Raises [Invalid_argument]
    when [i] is out of range. *)

val slice : t -> hi:int -> lo:int -> t
(** [slice v ~hi ~lo] is bits [hi..lo] inclusive, width [hi - lo + 1]. *)

val concat : t list -> t
(** [concat [a; b; c]] places [a] in the most significant position,
    following Verilog [{a, b, c}]. *)

(** A field of a vector built by {!pack}: an immediate pattern (masked,
    at most 63 bits, see {!Imm}) or a vector, each produced by its
    thunk and placed with its least significant bit at the given bit
    offset. *)
type field = Fint of int * (unit -> int) | Fvec of int * (unit -> t)

val pack : int -> field array -> t
(** [pack w fields] is a fresh [w]-bit vector holding every field at
    its offset and zeros elsewhere: [concat] with the layout fixed in
    advance and no intermediate vector per immediate part. The thunks
    run once each, in array order. Fields must not overlap and must lie
    within [w] bits. *)

val repeat : int -> t -> t
(** [repeat n v] is Verilog [{n{v}}]. *)

val resize : t -> int -> t
(** Zero-extend or truncate to the given width. *)

val sign_extend : t -> int -> t
(** Sign-extend (or truncate) to the given width. *)

(** {1 Arithmetic (operands must share a width; result has that width)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Division by zero yields all-ones, as Verilator produces for x/0 in
    two-state simulation. *)

val rem : t -> t -> t
(** Remainder; [rem x zero] is [x]. *)

val neg : t -> t

(** {1 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
val arith_shift_right : t -> int -> t

(** {1 Reductions and predicates} *)

val reduce_and : t -> bool
val reduce_or : t -> bool
val reduce_xor : t -> bool
val is_zero : t -> bool

(** {1 Comparisons (unsigned unless stated)} *)

val equal : t -> t -> bool
(** Width-sensitive: vectors of different widths are never equal.
    Physically-equal values compare in O(1). *)

val equal_value : t -> t -> bool
(** Compares numeric values, ignoring width. *)

val compare : t -> t -> int
(** Unsigned numeric comparison (widths may differ). *)

val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool
val signed_lt : t -> t -> bool
val signed_le : t -> t -> bool

(** {1 Mutation-free update} *)

val set_bit : t -> int -> bool -> t
(** [set_bit v i b] returns [v] itself (physically equal, no
    allocation) when bit [i] already holds [b] — the change-detection
    fast path the change-driven simulator kernels rely on. *)

val set_slice : t -> hi:int -> lo:int -> t -> t
(** [set_slice v ~hi ~lo x] replaces bits [hi..lo] of [v] with [x]
    (resized to fit). Returns [v] physically unchanged when the slice
    already equals [x]. *)

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit
(** Prints as [<width>'h<hex>]. *)

val to_string : t -> string

(** {1 Reference implementations}

    Bit-at-a-time implementations of every operation that the main
    module computes limb-wise, retained as the oracle for randomized
    differential testing. Semantically identical to their word-level
    counterparts (including error behaviour) but O(width); never use
    them on a hot path. *)
module Naive : sig
  val shift_left : t -> int -> t
  val shift_right : t -> int -> t
  val arith_shift_right : t -> int -> t
  val slice : t -> hi:int -> lo:int -> t
  val concat : t list -> t
  val repeat : int -> t -> t
  val set_slice : t -> hi:int -> lo:int -> t -> t
  val sign_extend : t -> int -> t
  val mul : t -> t -> t
  val reduce_xor : t -> bool
end

(** {1 Immediate (single-int) representation}

    Signals of width [<= 63] fit a single native OCaml int, using all
    63 bits of the representation — a width-63 value with its top bit
    set is stored as a {e negative} int (the raw two's-complement
    pattern). The lowered simulator kernel keeps such signals in a
    dense [int array] and evaluates them with these operations, which
    are value-identical to the limb-wise operations above at equal
    width. Callers pass the width explicitly; operands must already be
    masked to their width ([v land mask w = v]). *)
module Imm : sig
  val max_width : int
  (** 63: the full bit width of a native int. *)

  val fits : int -> bool
  (** [fits w] is true when a [w]-bit value has an immediate form. *)

  val mask : int -> int
  (** [mask w] has the low [w] bits set ([-1] when [w >= 63]). *)

  val of_int : width:int -> int -> int
  (** Truncate an arbitrary int to a masked [width]-bit pattern. *)

  val of_bits : t -> int
  (** Raw pattern of a vector whose width is [<= 63]. *)

  val to_bits : width:int -> int -> t
  (** Rebuild the limb form; inverse of [of_bits] at equal width. *)

  val add : int -> int -> int -> int
  val sub : int -> int -> int -> int
  val neg : int -> int -> int
  val mul : int -> int -> int -> int

  val div : int -> int -> int -> int
  (** [div w a b]; division by zero yields all-ones, as {!val:div}. *)

  val rem : int -> int -> int -> int
  (** [rem w a b]; [rem w a 0] is [a], as {!val:rem}. *)

  val logand : int -> int -> int
  val logor : int -> int -> int
  val logxor : int -> int -> int
  val lognot : int -> int -> int
  val shift_left : int -> int -> int -> int
  val shift_right : int -> int -> int -> int
  val arith_shift_right : int -> int -> int -> int

  val bit : int -> int -> bool
  (** [bit a i] for [i <= 62]. *)

  val slice : int -> hi:int -> lo:int -> int
  val is_zero : int -> bool
  val equal : int -> int -> bool

  val ucompare : int -> int -> int -> int
  (** [ucompare w a b]: unsigned order on raw [w]-bit patterns. *)

  val lt : int -> int -> int -> bool
  val le : int -> int -> int -> bool
  val gt : int -> int -> int -> bool
  val ge : int -> int -> int -> bool
  val signed_lt : int -> int -> int -> bool
  val signed_le : int -> int -> int -> bool
  val reduce_and : int -> int -> bool
  val reduce_or : int -> bool
  val reduce_xor : int -> bool

  val resize : int -> int -> int
  (** [resize w a]: truncate to [w] bits (zero-extension is identity). *)

  val sign_extend : from:int -> int -> int -> int
  (** [sign_extend ~from w a]: reinterpret the [from]-bit pattern [a]
      as signed and extend (or truncate) to [w] bits. *)

  val to_int_trunc : int -> int
  (** Low 62 bits — same contract as the limb-level {!to_int_trunc}. *)
end
