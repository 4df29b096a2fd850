(* The one JSON value type, printer and reader: every report is built
   as a [t] and printed by [to_string], so layout and escaping are
   decided here once. See json.mli for the layout rule. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let fixed digits x = Num (float_of_string (Printf.sprintf "%.*f" digits x))
let rows row xs = Arr (List.map (fun x -> Obj (row x)) xs)

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The fewest significant digits that read back to the same float,
   kept apart from an [Int] by a fraction or an exponent. *)
let number f =
  if not (Float.is_finite f) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    let s = go 1 in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* [xs] between [o] and [c], each after [first] or [sep] *)
let add_seq buf (o, first, sep, c) add xs =
  Buffer.add_string buf o;
  List.iteri
    (fun i x ->
      Buffer.add_string buf (if i = 0 then first else sep);
      add x)
    xs;
  Buffer.add_string buf c

let rec add_inline buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f -> Buffer.add_string buf (number f)
  | Str s -> add_string buf s
  | Arr vs -> add_seq buf ("[", "", ", ", "]") (add_inline buf) vs
  | Obj kvs -> add_seq buf ("{", "", ", ", "}") (add_member buf add_inline) kvs

and add_member buf add_value (k, v) =
  add_string buf k;
  Buffer.add_string buf ": ";
  add_value buf v

(* A top-level member's value: an array of objects (or an empty one)
   goes one element per line, anything else inline. *)
let add_top_value buf = function
  | Arr vs when List.for_all (function Obj _ -> true | _ -> false) vs ->
      add_seq buf ("[", "\n    ", ",\n    ", "\n  ]") (add_inline buf) vs
  | v -> add_inline buf v

let to_string v =
  let buf = Buffer.create 4096 in
  (match v with
  | Obj kvs ->
      add_seq buf
        ("{", "\n  ", ",\n  ", "\n}")
        (add_member buf add_top_value)
        kvs
  | v -> add_inline buf v);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && String.contains " \t\n\r" s.[!pos] do advance () done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" word)
  in
  (* the four hex digits of a \u escape *)
  let hex4 () =
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if !pos + 4 > n || not (String.for_all is_hex (String.sub s !pos 4)) then
      fail "\\u needs four hex digits";
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 4) 4)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          let short c =
            Buffer.add_char buf c;
            advance ()
          in
          (match peek () with
          | None -> fail "unterminated escape"
          | Some (('"' | '\\' | '/') as c) -> short c
          | Some 'b' -> short '\b'
          | Some 'f' -> short '\012'
          | Some 'n' -> short '\n'
          | Some 'r' -> short '\r'
          | Some 't' -> short '\t'
          | Some 'u' ->
              advance ();
              let code = hex4 () in
              Buffer.add_utf_8_uchar buf
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
          | Some _ -> fail "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?;
     one without a fraction or exponent that fits an [int] is an [Int] *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let from = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = from then fail "expected a digit"
    in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then advance () else digits ();
    let integral = ref true in
    if peek () = Some '.' then (
      integral := false;
      advance ();
      digits ());
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt text else None with
    | Some i -> Int i
    | None -> Num (float_of_string text)
  in
  (* the items of an object or array, its opening bracket already read *)
  let items close item =
    skip_ws ();
    if peek () = Some close then (
      advance ();
      [])
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go (x :: acc)
        | Some c when c = close ->
            advance ();
            List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let key = parse_string () in
               skip_ws ();
               expect ':';
               (key, parse_value ())))
    | Some '[' ->
        advance ();
        Arr (items ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
