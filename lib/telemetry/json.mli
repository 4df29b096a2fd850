(** The repository's one JSON module: the value type every report is
    built as, the one printer that lays it out, and the one strict
    reader (no dependency).

    Printed layout, fixed for every report (campaign, fuzz, profile,
    Chrome trace, bench):
    - a top-level object puts each member on its own line;
    - a top-level member whose value is an empty array or an array of
      objects puts each element on its own line;
    - every other value prints inline, with [", "] and [": "].

    Strings are written byte for byte: quote, backslash, newline and
    tab get their short escapes, other bytes below 0x20 a [\u00XX]
    escape, and every other byte (0x80 and above included) is copied.
    An [Int] prints without a fraction; a finite [Num] prints as the
    shortest decimal that reads back to the same float, with a
    fraction or an exponent ([1.0], [0.025], [1e-06]) so that it reads
    back as a [Num]; a non-finite [Num] prints as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val fixed : int -> float -> t
(** [fixed d x] is [x] rounded to [d] decimals as [Printf "%.*f"]
    rounds it, printed without trailing zeros ([fixed 4 0.025] prints
    [0.025], [fixed 4 1.0] prints [1.0]). *)

val rows : ('a -> (string * t) list) -> 'a list -> t
(** [rows row xs] is an array of one object per element: [row]'s. *)

val to_string : t -> string
(** The value in the layout above, ending with a newline. *)

exception Bad_json of string

val parse : string -> t
(** Strict RFC 8259 reader: numbers must follow the JSON grammar
    (no [+1], [01], [1.] or [.5]) and [\u] takes exactly four hex
    digits. A number without a fraction or an exponent that fits an
    [int] reads as an [Int], any other as a [Num]. A [\u] escape is
    decoded to UTF-8, a surrogate half to U+FFFD; bytes 0x80 and above
    are kept as they are, so [parse (to_string v) = v] for every [v]
    whose [Num]s are finite. Raises {!Bad_json} with a byte offset on
    malformed input. *)

val member : string -> t -> t option
(** [member key v] is the value of [v]'s first member named [key];
    [None] when [v] is not an object or has no such member. *)
