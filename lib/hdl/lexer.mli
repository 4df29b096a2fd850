(** Hand-written lexer for the Verilog subset. *)

type token =
  | Tident of string
  | Tnumber of { width : int option; value : Fpga_bits.Bits.t }
      (** sized ([8'hFF]) or bare decimal literals; bare literals carry
          [width = None] and default to 32 bits downstream *)
  | Tstring of string
  | Tsystem of string  (** system tasks: [$display], [$finish], ... *)
  | Tkeyword of string
  | Tpunct of string
  | Teof

type lexed = { tok : token; line : int }

exception Lex_error of string * int
(** Message and 1-based source line. *)

val keywords : string list

val tokenize : string -> lexed list
(** Tokenize a complete source text; handles [//] and [/* */] comments,
    string escapes ([\n], [\t], octal [\ddd], and a backslash before
    any other character standing for that character), and underscores
    in numeric literals. The result always ends with {!Teof}. Every
    malformed input raises {!Lex_error} with the line it was found on,
    including a raw newline inside a string literal, which Verilog
    forbids. *)

val token_to_string : token -> string
