(* $display format-string rendering. Supports the directives used in
   hardware debugging practice: %d, %0d, %h/%x, %b, %c and %%. Unknown
   directives are kept verbatim so malformed format strings are visible
   in the log rather than silently dropped.

   A format is parsed once by [compile] into literal runs and argument
   directives; [render_to] walks that form, appending to the caller's
   buffer and asking the caller for each argument in turn, so the
   simulator kernels and SignalCat's readback share one parser and one
   renderer. *)

module Bits = Fpga_bits.Bits

type directive = Dec | Hex | Bin | Chr
type piece = Text of string | Arg of directive
type t = piece array

let missing = "<missing>"

let compile (fmt : string) : t =
  let pieces = ref [] in
  let text = Buffer.create (String.length fmt) in
  let flush () =
    if Buffer.length text > 0 then (
      pieces := Text (Buffer.contents text) :: !pieces;
      Buffer.clear text)
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c <> '%' || !i = n - 1 then (
      Buffer.add_char text c;
      incr i)
    else (
      (* skip an optional 0 width prefix, as in %0d *)
      let j = if fmt.[!i + 1] = '0' && !i + 2 < n then !i + 2 else !i + 1 in
      let arg d =
        flush ();
        pieces := Arg d :: !pieces
      in
      (match fmt.[j] with
      | '%' -> Buffer.add_char text '%'
      | 'd' -> arg Dec
      | 'h' | 'x' -> arg Hex
      | 'b' -> arg Bin
      | 'c' -> arg Chr
      | _ -> Buffer.add_string text (String.sub fmt !i (j + 1 - !i)));
      i := j + 1)
  done;
  flush ();
  Array.of_list (List.rev !pieces)

(* Decimal digits of a non-negative int, most significant first. *)
let rec add_dec buf v =
  if v >= 10 then add_dec buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (v mod 10)))

let low62 = (1 lsl 62) - 1

let add_int buf d ~width v =
  match d with
  | Dec -> add_dec buf (v land low62)
  | Chr -> Buffer.add_char buf (Char.unsafe_chr (v land 0xFF))
  | Hex ->
      for k = ((width + 3) / 4) - 1 downto 0 do
        Buffer.add_char buf
          (String.unsafe_get "0123456789abcdef" ((v lsr (4 * k)) land 15))
      done
  | Bin ->
      for k = width - 1 downto 0 do
        Buffer.add_char buf (if (v lsr k) land 1 = 1 then '1' else '0')
      done

let add_bits buf d v =
  let width = Bits.width v in
  if Bits.Imm.fits width then add_int buf d ~width (Bits.Imm.of_bits v)
  else
    match d with
    | Dec | Chr -> add_int buf d ~width:62 (Bits.to_int_trunc v)
    | Hex -> Buffer.add_string buf (Bits.to_hex_string v)
    | Bin -> Buffer.add_string buf (Bits.to_binary_string v)

let render_to buf (t : t) ~nargs arg =
  let k = ref 0 in
  for p = 0 to Array.length t - 1 do
    match Array.unsafe_get t p with
    | Text s -> Buffer.add_string buf s
    | Arg d ->
        if !k < nargs then arg buf d !k else Buffer.add_string buf missing;
        incr k
  done

let render_bits (t : t) (args : Bits.t list) : string =
  let buf = Buffer.create 64 in
  let args = Array.of_list args in
  render_to buf t ~nargs:(Array.length args) (fun buf d i ->
      add_bits buf d args.(i));
  Buffer.contents buf

let render (fmt : string) (args : Bits.t list) : string =
  render_bits (compile fmt) args
