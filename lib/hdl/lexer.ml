(* Hand-written lexer for the Verilog subset. Produces a token array with
   line numbers so the parser can report precise locations.

   The scanner dispatches on the current character and compares
   characters in place: comment openers, punctuation (longest match over
   at most three characters) and literal prefixes never allocate a
   substring. Punctuation tokens are shared string constants, keywords
   are looked up in a table built once, and literals whose digits fit in
   60 bits are built with one [Bits.of_int]; only identifiers, strings
   and long literals copy their text out of the source. *)

module Bits = Fpga_bits.Bits

type token =
  | Tident of string
  | Tnumber of { width : int option; value : Bits.t }
  | Tstring of string
  | Tsystem of string  (* $display, $finish, ... *)
  | Tkeyword of string
  | Tpunct of string
  | Teof

type lexed = { tok : token; line : int }

exception Lex_error of string * int

let keywords =
  [
    "module"; "endmodule"; "input"; "output"; "inout"; "reg"; "wire";
    "assign"; "always"; "posedge"; "negedge"; "begin"; "end"; "if"; "else";
    "case"; "endcase"; "default"; "parameter"; "localparam"; "integer";
    "initial"; "signed";
  ]

let keyword_table =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_octal_digit c = c >= '0' && c <= '7'

(* The punctuation token starting at [src.[i]], longest match first, or
   [""] when no punctuation starts there. *)
let punct_at src n i =
  let at k = if i + k < n then src.[i + k] else '\000' in
  match src.[i] with
  | '>' -> (
      match at 1 with '>' -> if at 2 = '>' then ">>>" else ">>" | '=' -> ">=" | _ -> ">")
  | '<' -> (
      match at 1 with '<' -> if at 2 = '<' then "<<<" else "<<" | '=' -> "<=" | _ -> "<")
  | '=' -> if at 1 = '=' then if at 2 = '=' then "===" else "==" else "="
  | '!' -> if at 1 = '=' then if at 2 = '=' then "!==" else "!=" else "!"
  | '&' -> if at 1 = '&' then "&&" else "&"
  | '|' -> if at 1 = '|' then "||" else "|"
  | '+' -> "+"
  | '-' -> "-"
  | '*' -> "*"
  | '/' -> "/"
  | '%' -> "%"
  | '^' -> "^"
  | '~' -> "~"
  | '?' -> "?"
  | ':' -> ":"
  | ',' -> ","
  | ';' -> ";"
  | '(' -> "("
  | ')' -> ")"
  | '[' -> "["
  | ']' -> "]"
  | '{' -> "{"
  | '}' -> "}"
  | '@' -> "@"
  | '.' -> "."
  | '#' -> "#"
  | _ -> ""

(* The value of the digits in [src.[a..b)] (underscores skipped) when
   there is at least one, each is a digit of [radix], and there are few
   enough to fit in 60 bits; -1 otherwise. *)
let small_value src a b ~radix =
  let max_digits = match radix with 2 -> 60 | 10 -> 18 | _ -> 15 in
  let rec go i acc k =
    if i = b then if k = 0 then -1 else acc
    else
      match src.[i] with
      | '_' -> go (i + 1) acc k
      | c ->
          let d =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
            | _ -> radix
          in
          if d >= radix || k = max_digits then -1
          else go (i + 1) ((acc * radix) + d) (k + 1)
  in
  go a 0 0

(* The [width]-bit value of the digits in [src.[a..b)]: one [Bits.of_int]
   when {!small_value} applies, otherwise [general] on the digit text,
   whose [Invalid_argument] becomes a located [Lex_error]. *)
let literal_value src a b ~radix ~width ~line general =
  let v = small_value src a b ~radix in
  if v >= 0 then Bits.of_int ~width v
  else
    try general (String.sub src a (b - a))
    with Invalid_argument msg -> raise (Lex_error (msg, line))

(* The size prefix [src.[a..b)] of a sized literal, in 1..4096. *)
let literal_size src a b ~line =
  let rec go i acc =
    if i = b then acc
    else
      match src.[i] with
      | '_' -> go (i + 1) acc
      | c -> go (i + 1) (min 4097 ((acc * 10) + Char.code c - Char.code '0'))
  in
  let w = go a 0 in
  if w >= 1 && w <= 4096 then w
  else raise (Lex_error ("bad literal size " ^ String.sub src a (b - a), line))

let tokenize (src : string) : lexed list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let pos = ref 0 in
  let emit tok = toks := { tok; line = !line } :: !toks in
  let scan_while p i =
    let j = ref i in
    while !j < n && p src.[!j] do
      incr j
    done;
    !j
  in
  while !pos < n do
    let i = !pos in
    match src.[i] with
    | '\n' ->
        incr line;
        pos := i + 1
    | ' ' | '\t' | '\r' -> pos := i + 1
    | '/' when i + 1 < n && src.[i + 1] = '/' ->
        pos := Option.value (String.index_from_opt src i '\n') ~default:n
    | '/' when i + 1 < n && src.[i + 1] = '*' ->
        let p = ref (i + 2) in
        let closed = ref false in
        while (not !closed) && !p < n do
          let d = src.[!p] in
          if d = '*' && !p + 1 < n && src.[!p + 1] = '/' then (
            closed := true;
            p := !p + 2)
          else (
            if d = '\n' then incr line;
            incr p)
        done;
        if not !closed then raise (Lex_error ("unterminated comment", !line));
        pos := !p
    | '"' ->
        (* Verilog forbids a raw newline inside a string literal *)
        let buf = Buffer.create 16 in
        let p = ref (i + 1) in
        let closed = ref false in
        while (not !closed) && !p < n do
          match src.[!p] with
          | '"' ->
              closed := true;
              incr p
          | '\n' -> raise (Lex_error ("newline in string", !line))
          | '\\' -> (
              if !p + 1 >= n then raise (Lex_error ("bad escape", !line));
              match src.[!p + 1] with
              | 'n' ->
                  Buffer.add_char buf '\n';
                  p := !p + 2
              | 't' ->
                  Buffer.add_char buf '\t';
                  p := !p + 2
              | '\n' -> raise (Lex_error ("newline in string", !line))
              | '0' .. '7' ->
                  (* octal \d, \dd or \ddd *)
                  let stop = min n (!p + 4) in
                  let q = ref (!p + 1) in
                  let code = ref 0 in
                  while !q < stop && is_octal_digit src.[!q] do
                    code := (!code * 8) + Char.code src.[!q] - Char.code '0';
                    incr q
                  done;
                  if !code > 255 then
                    raise (Lex_error ("bad octal escape", !line));
                  Buffer.add_char buf (Char.chr !code);
                  p := !q
              | other ->
                  Buffer.add_char buf other;
                  p := !p + 2)
          | d ->
              Buffer.add_char buf d;
              incr p
        done;
        if not !closed then raise (Lex_error ("unterminated string", !line));
        emit (Tstring (Buffer.contents buf));
        pos := !p
    | '$' ->
        let stop = scan_while is_ident_char (i + 1) in
        if stop = i + 1 then raise (Lex_error ("bad system task", !line));
        emit (Tsystem (String.sub src (i + 1) (stop - i - 1)));
        pos := stop
    | c when is_ident_start c ->
        let stop = scan_while is_ident_char i in
        let word = String.sub src i (stop - i) in
        emit (if Hashtbl.mem keyword_table word then Tkeyword word else Tident word);
        pos := stop
    | c when is_digit c || (c = '\'' && i + 1 < n && is_ident_char src.[i + 1]) ->
        (* Numeric literal: [size]'[base]digits or a bare decimal. *)
        let stop = scan_while (fun d -> is_digit d || d = '_') i in
        if stop < n && src.[stop] = '\'' then (
          let base_pos = stop + 1 in
          if base_pos >= n then raise (Lex_error ("bad literal", !line));
          let base = Char.lowercase_ascii src.[base_pos] in
          let dstart = base_pos + 1 in
          let dstop = scan_while (fun d -> is_hex_digit d || d = '_') dstart in
          if dstop = dstart then raise (Lex_error ("bad literal digits", !line));
          let width =
            if stop = i then None else Some (literal_size src i stop ~line:!line)
          in
          let w = Option.value width ~default:32 in
          let digits_value radix general =
            literal_value src dstart dstop ~radix ~width:w ~line:!line general
          in
          let value =
            match base with
            | 'h' -> digits_value 16 (Bits.of_hex_string ~width:w)
            | 'b' ->
                digits_value 2 (fun d -> Bits.resize (Bits.of_binary_string d) w)
            | 'd' -> digits_value 10 (Bits.of_decimal_string ~width:w)
            | _ -> raise (Lex_error (Printf.sprintf "bad base '%c'" base, !line))
          in
          emit (Tnumber { width; value });
          pos := dstop)
        else (
          emit
            (Tnumber
               {
                 width = None;
                 value =
                   literal_value src i stop ~radix:10 ~width:32 ~line:!line
                     (Bits.of_decimal_string ~width:32);
               });
          pos := stop)
    | c -> (
        match punct_at src n i with
        | "" ->
            raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
        | p ->
            emit (Tpunct p);
            pos := i + String.length p)
  done;
  List.rev ({ tok = Teof; line = !line } :: !toks)

let token_to_string = function
  | Tident s -> s
  | Tnumber { value; _ } -> Bits.to_string value
  | Tstring s -> Printf.sprintf "%S" s
  | Tsystem s -> "$" ^ s
  | Tkeyword s -> s
  | Tpunct s -> s
  | Teof -> "<eof>"
