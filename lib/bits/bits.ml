(* Arbitrary-width bit vectors stored as little-endian arrays of 32-bit
   limbs packed in OCaml ints. The top limb is always normalized (bits
   above [width] are zero), so structural equality of normalized values
   coincides with numeric equality at equal width.

   The hot operations (shifts, slice, concat, set_slice, sign extension,
   multiplication, xor reduction) work limb-at-a-time — O(width/32) with
   in-place limb writes on freshly allocated results — rather than
   bit-at-a-time. The original bit-at-a-time implementations are kept in
   the [Naive] submodule as a differential-testing reference. Two
   invariants every operation preserves:

   - normalization: bits above [width] in the top limb are zero, so
     [Array] structural equality is value equality at equal width;
   - phys-eq no-op returns: the functional updates ([set_bit],
     [set_slice]) return the argument physically unchanged when the
     update changes nothing, which is the O(1) change-detection fast
     path the change-driven simulator kernels rely on. *)

let limb_bits = 32
let limb_mask = 0xFFFFFFFF

type t = { width : int; limbs : int array }

let width t = t.width
let nlimbs w = (w + limb_bits - 1) / limb_bits

(* Mask that keeps only the valid bits of the top limb. *)
let top_mask w =
  let r = w mod limb_bits in
  if r = 0 then limb_mask else (1 lsl r) - 1

let normalize t =
  let n = Array.length t.limbs in
  t.limbs.(n - 1) <- t.limbs.(n - 1) land top_mask t.width;
  t

let check_width w =
  if w < 1 then invalid_arg (Printf.sprintf "Bits: width %d < 1" w)

let zero w =
  check_width w;
  { width = w; limbs = Array.make (nlimbs w) 0 }

let ones w =
  check_width w;
  normalize { width = w; limbs = Array.make (nlimbs w) limb_mask }

let of_int ~width:w n =
  check_width w;
  let t = zero w in
  let n = ref n and i = ref 0 in
  while !n <> 0 && !i < Array.length t.limbs do
    t.limbs.(!i) <- !n land limb_mask;
    (* asr keeps the sign so negative ints fill high limbs with ones *)
    n := !n asr limb_bits;
    incr i
  done;
  (* Negative values: extend the sign through the remaining limbs. *)
  if !n = -1 then
    for j = !i to Array.length t.limbs - 1 do
      t.limbs.(j) <- limb_mask
    done;
  normalize t

let one w = of_int ~width:w 1
let of_bool b = of_int ~width:1 (if b then 1 else 0)

let bit t i =
  if i < 0 || i >= t.width then
    invalid_arg (Printf.sprintf "Bits.bit: index %d out of [0,%d)" i t.width);
  t.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set_bit t i b =
  if i < 0 || i >= t.width then
    invalid_arg
      (Printf.sprintf "Bits.set_bit: index %d out of [0,%d)" i t.width);
  if bit t i = b then t
  else
  let limbs = Array.copy t.limbs in
  let j = i / limb_bits and k = i mod limb_bits in
  if b then limbs.(j) <- limbs.(j) lor (1 lsl k)
  else limbs.(j) <- limbs.(j) land lnot (1 lsl k);
  { t with limbs }

let is_zero t = Array.for_all (fun l -> l = 0) t.limbs

let to_int t =
  if t.width <= 62 then (
    let acc = ref 0 in
    for i = Array.length t.limbs - 1 downto 0 do
      acc := (!acc lsl limb_bits) lor t.limbs.(i)
    done;
    !acc)
  else (
    (* Wider vector: succeed only if the high bits are all zero. *)
    for i = t.width - 1 downto 62 do
      if bit t i then failwith "Bits.to_int: value exceeds 62 bits"
    done;
    let acc = ref 0 in
    let top = min (Array.length t.limbs - 1) 1 in
    for i = top downto 0 do
      acc := (!acc lsl limb_bits) lor t.limbs.(i)
    done;
    !acc land ((1 lsl 62) - 1))

let to_int_trunc t =
  let acc = ref 0 in
  let top = min (Array.length t.limbs - 1) 1 in
  for i = top downto 0 do
    acc := (!acc lsl limb_bits) lor t.limbs.(i)
  done;
  !acc land ((1 lsl 62) - 1)

(* Bits [lo .. lo + w - 1] span at most three limbs for [w <= 62]:
   the third only when [lo mod 32 > 2], which keeps its shift below
   62. *)
let field_int t ~lo ~w =
  if w < 1 || w > 62 || lo < 0 || lo + w > t.width then
    invalid_arg
      (Printf.sprintf "Bits.field_int: %d bits at %d out of range for width %d"
         w lo t.width);
  let l = t.limbs and j = lo / limb_bits and b = lo mod limb_bits in
  let acc = l.(j) lsr b in
  let acc =
    if w > limb_bits - b then acc lor (l.(j + 1) lsl (limb_bits - b)) else acc
  in
  let acc =
    if w > (2 * limb_bits) - b then
      acc lor (l.(j + 2) lsl ((2 * limb_bits) - b))
    else acc
  in
  acc land ((1 lsl w) - 1)

let to_signed_int t =
  if t.width = 1 then if bit t 0 then -1 else 0
  else if bit t (t.width - 1) then (
    (* negative: value - 2^width, computed on the complement *)
    let m = ref 0 in
    if t.width > 63 then (
      for i = t.width - 1 downto 62 do
        if not (bit t i) then failwith "Bits.to_signed_int: does not fit"
      done);
    let hi = min (t.width - 1) 61 in
    for i = hi downto 0 do
      m := (!m lsl 1) lor (if bit t i then 0 else 1)
    done;
    -(!m + 1))
  else to_int t

let resize t w =
  check_width w;
  if w = t.width then t
  else
    let r = zero w in
    let n = min (Array.length t.limbs) (Array.length r.limbs) in
    Array.blit t.limbs 0 r.limbs 0 n;
    normalize r

(* ------------------------------------------------------------------ *)
(* Limb-level helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* OR the low [src_w] bits of [src] into [dst] starting at bit [pos].
   The destination bits must currently be zero and [pos + src_w] must
   not exceed the destination's bit capacity. *)
let blit_bits src src_w dst pos =
  let off = pos / limb_bits and b = pos mod limb_bits in
  let n = nlimbs src_w in
  let dn = Array.length dst in
  for i = 0 to n - 1 do
    dst.(off + i) <- dst.(off + i) lor ((src.(i) lsl b) land limb_mask);
    if b > 0 && off + i + 1 < dn then
      dst.(off + i + 1) <- dst.(off + i + 1) lor (src.(i) lsr (limb_bits - b))
  done

(* Set bits [lo..hi] (inclusive) of [limbs] to one, in place. *)
let set_ones_range limbs lo hi =
  let jlo = lo / limb_bits and jhi = hi / limb_bits in
  for j = jlo to jhi do
    let blo = if j = jlo then lo mod limb_bits else 0 in
    let bhi = if j = jhi then hi mod limb_bits else limb_bits - 1 in
    let w = bhi - blo + 1 in
    let m =
      if w >= limb_bits then limb_mask else ((1 lsl w) - 1) lsl blo
    in
    limbs.(j) <- limbs.(j) lor m
  done

(* Clear bits [lo..hi] (inclusive) of [limbs], in place. *)
let clear_range limbs lo hi =
  let jlo = lo / limb_bits and jhi = hi / limb_bits in
  for j = jlo to jhi do
    let blo = if j = jlo then lo mod limb_bits else 0 in
    let bhi = if j = jhi then hi mod limb_bits else limb_bits - 1 in
    let w = bhi - blo + 1 in
    let m =
      if w >= limb_bits then limb_mask else ((1 lsl w) - 1) lsl blo
    in
    limbs.(j) <- limbs.(j) land (lnot m land limb_mask)
  done

(* ------------------------------------------------------------------ *)
(* Word-level structural operations                                    *)
(* ------------------------------------------------------------------ *)

let sign_extend t w =
  check_width w;
  if w <= t.width || not (bit t (t.width - 1)) then resize t w
  else (
    (* resize allocates a fresh vector here (w > t.width), so the
       in-place ones-fill of the extension bits is safe *)
    let r = resize t w in
    set_ones_range r.limbs t.width (w - 1);
    normalize r)

let of_binary_string s =
  let digits =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  let w = List.length digits in
  if w = 0 then invalid_arg "Bits.of_binary_string: empty";
  let t = ref (zero w) in
  List.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> t := set_bit !t (w - 1 - i) true
      | _ -> invalid_arg "Bits.of_binary_string: bad digit")
    digits;
  !t

let shift_left t k =
  if k < 0 then invalid_arg "Bits.shift_left: negative shift";
  if k = 0 then t
  else if k >= t.width then zero t.width
  else (
    let r = zero t.width in
    let off = k / limb_bits and b = k mod limb_bits in
    for j = Array.length r.limbs - 1 downto off do
      let lo = (t.limbs.(j - off) lsl b) land limb_mask in
      let hi =
        if b > 0 && j - off - 1 >= 0 then
          t.limbs.(j - off - 1) lsr (limb_bits - b)
        else 0
      in
      r.limbs.(j) <- lo lor hi
    done;
    normalize r)

let shift_right t k =
  if k < 0 then invalid_arg "Bits.shift_right: negative shift";
  if k = 0 then t
  else if k >= t.width then zero t.width
  else (
    let r = zero t.width in
    let off = k / limb_bits and b = k mod limb_bits in
    let n = Array.length t.limbs in
    for j = 0 to n - 1 - off do
      let lo = t.limbs.(j + off) lsr b in
      let hi =
        if b > 0 && j + off + 1 < n then
          (t.limbs.(j + off + 1) lsl (limb_bits - b)) land limb_mask
        else 0
      in
      r.limbs.(j) <- lo lor hi
    done;
    normalize r)

let arith_shift_right t k =
  if k < 0 then invalid_arg "Bits.arith_shift_right: negative shift";
  if not (bit t (t.width - 1)) then shift_right t k
  else if k = 0 then t
  else if k >= t.width then ones t.width
  else (
    (* shift_right allocates freshly for 0 < k < width, so the in-place
       sign fill of the vacated top bits is safe *)
    let r = shift_right t k in
    set_ones_range r.limbs (t.width - k) (t.width - 1);
    normalize r)

let slice t ~hi ~lo =
  if lo < 0 || hi >= t.width || hi < lo then
    invalid_arg
      (Printf.sprintf "Bits.slice: [%d:%d] out of range for width %d" hi lo
         t.width);
  let w = hi - lo + 1 in
  let r = zero w in
  let off = lo / limb_bits and b = lo mod limb_bits in
  let n = Array.length t.limbs in
  for j = 0 to Array.length r.limbs - 1 do
    let lo_part = if j + off < n then t.limbs.(j + off) lsr b else 0 in
    let hi_part =
      if b > 0 && j + off + 1 < n then
        (t.limbs.(j + off + 1) lsl (limb_bits - b)) land limb_mask
      else 0
    in
    r.limbs.(j) <- lo_part lor hi_part
  done;
  normalize r

let concat parts =
  match parts with
  | [] -> invalid_arg "Bits.concat: empty list"
  | _ ->
      let w = List.fold_left (fun acc p -> acc + p.width) 0 parts in
      let r = zero w in
      (* parts are MSB-first; blit from the LSB end *)
      let pos = ref 0 in
      List.iter
        (fun p ->
          blit_bits p.limbs p.width r.limbs !pos;
          pos := !pos + p.width)
        (List.rev parts);
      normalize r

(* Fields are placed into a fresh vector, so no existing (possibly
   shared) value is ever written. An immediate pattern of at most 63
   bits at bit offset [pos] spans at most three limbs: the third only
   when [pos mod 32 >= 2], which keeps every shift below 63. *)
type field = Fint of int * (unit -> int) | Fvec of int * (unit -> t)

let pack w fields =
  let r = zero w in
  let l = r.limbs in
  let n = Array.length l in
  for k = 0 to Array.length fields - 1 do
    match fields.(k) with
    | Fint (pos, f) ->
        let p = f () in
        let j = pos / limb_bits and b = pos mod limb_bits in
        l.(j) <- l.(j) lor ((p lsl b) land limb_mask);
        if j + 1 < n then (
          l.(j + 1) <- l.(j + 1) lor ((p lsr (limb_bits - b)) land limb_mask);
          if b > 1 && j + 2 < n then
            l.(j + 2) <- l.(j + 2) lor (p lsr ((2 * limb_bits) - b)))
    | Fvec (pos, f) ->
        let v = f () in
        blit_bits v.limbs v.width l pos
  done;
  normalize r

let repeat n t =
  if n < 1 then invalid_arg "Bits.repeat: count < 1";
  if n = 1 then t
  else (
    let r = zero (n * t.width) in
    for i = 0 to n - 1 do
      blit_bits t.limbs t.width r.limbs (i * t.width)
    done;
    normalize r)

let set_slice t ~hi ~lo x =
  if lo < 0 || hi >= t.width || hi < lo then
    invalid_arg
      (Printf.sprintf "Bits.set_slice: [%d:%d] out of range for width %d" hi
         lo t.width);
  let w = hi - lo + 1 in
  let x = resize x w in
  let limbs = Array.copy t.limbs in
  clear_range limbs lo hi;
  blit_bits x.limbs w limbs lo;
  (* phys-eq no-op contract: an update that changes nothing returns the
     argument itself so change detection stays O(1) *)
  if limbs = t.limbs then t else normalize { t with limbs }

let require_same_width op a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bits.%s: width mismatch (%d vs %d)" op a.width b.width)

let add a b =
  require_same_width "add" a b;
  let r = zero a.width in
  let carry = ref 0 in
  for i = 0 to Array.length a.limbs - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    r.limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub a b =
  require_same_width "sub" a b;
  let r = zero a.width in
  let borrow = ref 0 in
  for i = 0 to Array.length a.limbs - 1 do
    let d = a.limbs.(i) - b.limbs.(i) - !borrow in
    if d < 0 then (
      r.limbs.(i) <- d + limb_mask + 1;
      borrow := 1)
    else (
      r.limbs.(i) <- d;
      borrow := 0)
  done;
  normalize r

let neg a = sub (zero a.width) a

(* Schoolbook multiplication over 16-bit digits: a 32x32 limb product
   would overflow a 63-bit OCaml int, so limbs are split into half-limb
   digits whose products (< 2^32) accumulate safely — the widths in
   this code base (<= 512 bits, 64 digits) stay far below 2^62. *)
let mul a b =
  require_same_width "mul" a b;
  let r = zero a.width in
  let nr = Array.length r.limbs in
  let nd = nr * 2 in
  let digit limbs i = (limbs.(i lsr 1) lsr ((i land 1) * 16)) land 0xFFFF in
  let acc = Array.make nd 0 in
  let na = Array.length a.limbs * 2 in
  let nb = Array.length b.limbs * 2 in
  for i = 0 to min na nd - 1 do
    let da = digit a.limbs i in
    if da <> 0 then
      for j = 0 to min nb (nd - i) - 1 do
        acc.(i + j) <- acc.(i + j) + (da * digit b.limbs j)
      done
  done;
  let carry = ref 0 in
  for i = 0 to nd - 1 do
    let v = acc.(i) + !carry in
    acc.(i) <- v land 0xFFFF;
    carry := v lsr 16
  done;
  for j = 0 to nr - 1 do
    r.limbs.(j) <- acc.(2 * j) lor (acc.((2 * j) + 1) lsl 16)
  done;
  normalize r

let compare a b =
  (* unsigned numeric comparison across possibly different widths *)
  let w = max a.width b.width in
  let a = resize a w and b = resize b w in
  let rec go i =
    if i < 0 then 0
    else
      let c = Int.compare a.limbs.(i) b.limbs.(i) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a.limbs - 1)

(* Physical equality short-circuits the limb comparison: the functional
   update operations above return the argument unchanged when the update
   is a no-op, so unchanged values are usually compared in O(1). *)
(* A limb loop rather than polymorphic [=] on the arrays: change
   detection and the VCD writer call this per signal per cycle. *)
let equal a b =
  a == b
  || a.width = b.width
     &&
     let la = a.limbs and lb = b.limbs in
     let n = Array.length la in
     Array.length lb = n
     &&
     let i = ref 0 in
     while !i < n && Array.unsafe_get la !i = Array.unsafe_get lb !i do
       incr i
     done;
     !i = n
let equal_value a b = compare a b = 0
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0

let signed_lt a b =
  require_same_width "signed_lt" a b;
  let sa = bit a (a.width - 1) and sb = bit b (b.width - 1) in
  match (sa, sb) with
  | true, false -> true
  | false, true -> false
  | _ -> lt a b

let signed_le a b = signed_lt a b || equal_value a b

let divmod a b =
  require_same_width "div" a b;
  if is_zero b then (ones a.width, a)
  else (
    (* restoring long division, MSB first *)
    let q = ref (zero a.width) and r = ref (zero a.width) in
    for i = a.width - 1 downto 0 do
      r := shift_left !r 1;
      if bit a i then r := set_bit !r 0 true;
      if ge !r b then (
        r := sub !r b;
        q := set_bit !q i true)
    done;
    (!q, !r))

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let map2_limbs f a b =
  require_same_width "bitwise" a b;
  let r = zero a.width in
  for i = 0 to Array.length a.limbs - 1 do
    r.limbs.(i) <- f a.limbs.(i) b.limbs.(i)
  done;
  normalize r

let logand a b = map2_limbs ( land ) a b
let logor a b = map2_limbs ( lor ) a b
let logxor a b = map2_limbs ( lxor ) a b

let lognot a =
  let r = zero a.width in
  for i = 0 to Array.length a.limbs - 1 do
    r.limbs.(i) <- lnot a.limbs.(i) land limb_mask
  done;
  normalize r

let reduce_and t = equal t (ones t.width)
let reduce_or t = not (is_zero t)

(* Parity of the whole vector = parity of the xor of all limbs. *)
let reduce_xor t =
  let v = Array.fold_left ( lxor ) 0 t.limbs in
  let v = v lxor (v lsr 16) in
  let v = v lxor (v lsr 8) in
  let v = v lxor (v lsr 4) in
  (0x6996 lsr (v land 0xF)) land 1 = 1

(* Both strings are written straight from the limbs: bit [i] is
   character [width - 1 - i], and a hex digit never straddles a limb
   because 4 divides [limb_bits]. *)
let to_binary_string t =
  let w = t.width in
  let s = Bytes.create w in
  for j = 0 to Array.length t.limbs - 1 do
    let l = t.limbs.(j) and base = j * limb_bits in
    for k = 0 to min limb_bits (w - base) - 1 do
      Bytes.unsafe_set s (w - 1 - base - k)
        (if (l lsr k) land 1 = 1 then '1' else '0')
    done
  done;
  Bytes.unsafe_to_string s

let hex_chars = "0123456789abcdef"

let to_hex_string t =
  let n = (t.width + 3) / 4 and per_limb = limb_bits / 4 in
  let s = Bytes.create n in
  for k = 0 to n - 1 do
    let l = t.limbs.(k / per_limb) in
    Bytes.unsafe_set s (n - 1 - k)
      (String.unsafe_get hex_chars ((l lsr (k mod per_limb * 4)) land 15))
  done;
  Bytes.unsafe_to_string s

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Bits: bad hex digit %c" c)

let of_hex_string ~width:w s =
  check_width w;
  let acc = ref (zero (max w 4)) in
  String.iter
    (fun c ->
      if c <> '_' then (
        let d = hex_digit c in
        acc := shift_left !acc 4;
        acc := logor !acc (of_int ~width:(width !acc) d)))
    s;
  resize !acc w

let of_decimal_string ~width:w s =
  check_width w;
  let ten = of_int ~width:(max w 8) 10 in
  let acc = ref (zero (max w 8)) in
  String.iter
    (fun c ->
      if c <> '_' then (
        if c < '0' || c > '9' then
          invalid_arg (Printf.sprintf "Bits: bad decimal digit %c" c);
        acc := mul !acc ten;
        acc :=
          add !acc (of_int ~width:(width !acc) (Char.code c - Char.code '0'))))
    s;
  resize !acc w

let to_string t = Printf.sprintf "%d'h%s" t.width (to_hex_string t)
let pp fmt t = Format.pp_print_string fmt (to_string t)

(* ------------------------------------------------------------------ *)
(* Bit-at-a-time reference implementations                             *)
(* ------------------------------------------------------------------ *)

(* The pre-word-level (seed) implementations, retained verbatim as the
   oracle for randomized differential testing of the limb-wise rewrites
   above. Slow by design — never call these from simulator code. *)
module Naive = struct
  let shift_left t k =
    if k < 0 then invalid_arg "Bits.shift_left: negative shift";
    if k >= t.width then zero t.width
    else (
      let r = zero t.width in
      for i = t.width - 1 downto k do
        if bit t (i - k) then (
          let j = i / limb_bits and b = i mod limb_bits in
          r.limbs.(j) <- r.limbs.(j) lor (1 lsl b))
      done;
      normalize r)

  let shift_right t k =
    if k < 0 then invalid_arg "Bits.shift_right: negative shift";
    if k >= t.width then zero t.width
    else (
      let r = zero t.width in
      for i = 0 to t.width - 1 - k do
        if bit t (i + k) then (
          let j = i / limb_bits and b = i mod limb_bits in
          r.limbs.(j) <- r.limbs.(j) lor (1 lsl b))
      done;
      normalize r)

  let arith_shift_right t k =
    if k < 0 then invalid_arg "Bits.arith_shift_right: negative shift";
    let sign = bit t (t.width - 1) in
    if not sign then shift_right t k
    else if k >= t.width then ones t.width
    else (
      let r = shift_right t k in
      let r = ref r in
      for i = t.width - k to t.width - 1 do
        r := set_bit !r i true
      done;
      !r)

  let slice t ~hi ~lo =
    if lo < 0 || hi >= t.width || hi < lo then
      invalid_arg
        (Printf.sprintf "Bits.slice: [%d:%d] out of range for width %d" hi lo
           t.width);
    let w = hi - lo + 1 in
    let r = zero w in
    for i = 0 to w - 1 do
      if bit t (lo + i) then (
        let j = i / limb_bits and b = i mod limb_bits in
        r.limbs.(j) <- r.limbs.(j) lor (1 lsl b))
    done;
    normalize r

  let concat parts =
    match parts with
    | [] -> invalid_arg "Bits.concat: empty list"
    | _ ->
        let w = List.fold_left (fun acc p -> acc + p.width) 0 parts in
        let r = zero w in
        let pos = ref 0 in
        List.iter
          (fun p ->
            for i = 0 to p.width - 1 do
              if bit p i then (
                let abs = !pos + i in
                let j = abs / limb_bits and b = abs mod limb_bits in
                r.limbs.(j) <- r.limbs.(j) lor (1 lsl b))
            done;
            pos := !pos + p.width)
          (List.rev parts);
        normalize r

  let repeat n t =
    if n < 1 then invalid_arg "Bits.repeat: count < 1";
    concat (List.init n (fun _ -> t))

  let set_slice t ~hi ~lo x =
    if lo < 0 || hi >= t.width || hi < lo then
      invalid_arg
        (Printf.sprintf "Bits.set_slice: [%d:%d] out of range for width %d"
           hi lo t.width);
    let x = resize x (hi - lo + 1) in
    let r = ref t in
    for i = lo to hi do
      r := set_bit !r i (bit x (i - lo))
    done;
    !r

  let sign_extend t w =
    check_width w;
    if w <= t.width || not (bit t (t.width - 1)) then resize t w
    else (
      let r = ref (ones w) in
      for i = 0 to t.width - 1 do
        r := set_bit !r i (bit t i)
      done;
      !r)

  let mul a b =
    require_same_width "mul" a b;
    let acc = ref (zero a.width) in
    for i = 0 to b.width - 1 do
      if bit b i then acc := add !acc (shift_left a i)
    done;
    !acc

  let reduce_xor t =
    let c = ref 0 in
    for i = 0 to t.width - 1 do
      if bit t i then incr c
    done;
    !c land 1 = 1
end

(* ------------------------------------------------------------------ *)
(* Immediate (single-int) representation                               *)
(* ------------------------------------------------------------------ *)

(* Signals of width <= 63 fit one native OCaml int, using all 63 bits of
   the representation: a width-63 value with its top bit set is stored
   as a *negative* int (the raw two's-complement pattern). Every
   operation here is value-identical to the limb-wise operation above at
   the same width; callers pass the width explicitly and the invariant
   is that inputs are already masked to their width (bits above [w] are
   zero in the 63-bit pattern sense, i.e. [v land mask w = v]).

   The three systematic hazards of the all-63-bits encoding, handled
   throughout:
   - [1 lsl 63] and shifts by >= 63 are undefined: [mask] special-cases
     w >= 63 to [-1], and every shift guards [k >= w] first (leaving
     k <= 62, which is always defined);
   - width-63 patterns can be negative: magnitude comparisons flip the
     sign bit ([lxor min_int]) to recover unsigned order, and division
     falls back to the limb path when a raw pattern is negative;
   - [lsr] (not [asr]) everywhere a logical shift is meant, so negative
     width-63 patterns shift in zeros. *)
module Imm = struct
  let max_width = 62 + 1 (* all 63 bits of a native int *)
  let fits w = w >= 1 && w <= max_width

  (* [(1 lsl 62) - 1] wraps to [max_int], so the subtraction form is
     valid up to w = 62; w = 63 is all bits of the int, i.e. [-1]. *)
  let mask w = if w >= max_width then -1 else (1 lsl w) - 1
  let of_int ~width n = n land mask width

  let of_bits t =
    let l0 = t.limbs.(0) in
    let l1 = if Array.length t.limbs > 1 then t.limbs.(1) else 0 in
    (l0 lor (l1 lsl limb_bits)) land mask t.width

  let to_bits ~width p =
    let t = zero width in
    t.limbs.(0) <- p land limb_mask;
    if Array.length t.limbs > 1 then
      t.limbs.(1) <- (p lsr limb_bits) land limb_mask;
    normalize t

  let add w a b = (a + b) land mask w
  let sub w a b = (a - b) land mask w
  let neg w a = -a land mask w

  (* Native [*] wraps modulo 2^63, so masking the product is exact for
     any w <= 63 — high-half overflow cannot corrupt the kept bits. *)
  let mul w a b = a * b land mask w
  let logand a b = a land b
  let logor a b = a lor b
  let logxor a b = a lxor b
  let lognot w a = lnot a land mask w

  (* Division by zero yields all-ones / the dividend (matching [divmod]
     above). Negative raw patterns (only possible at w = 63) don't obey
     native [/]'s truncation-toward-zero semantics as unsigned values,
     so that corner round-trips through the limb representation. *)
  let div w a b =
    if b = 0 then mask w
    else if a >= 0 && b > 0 then a / b
    else of_bits (div (to_bits ~width:w a) (to_bits ~width:w b))

  let rem w a b =
    if b = 0 then a
    else if a >= 0 && b > 0 then a mod b
    else of_bits (rem (to_bits ~width:w a) (to_bits ~width:w b))

  let shift_left w a k = if k >= w then 0 else (a lsl k) land mask w
  let shift_right w a k = if k >= w then 0 else a lsr k

  let arith_shift_right w a k =
    if (a lsr (w - 1)) land 1 = 0 then shift_right w a k
    else if k >= w then mask w
    else (a lsr k) lor (mask w lxor (mask w lsr k))

  let bit a i = (a lsr i) land 1 = 1
  let slice a ~hi ~lo = (a lsr lo) land mask (hi - lo + 1)
  let is_zero a = a = 0
  let equal (a : int) b = a = b

  (* Unsigned order on raw patterns: for w <= 62 the patterns are
     non-negative so native compare is already unsigned; at w = 63
     flipping the sign bit maps unsigned order onto signed order. *)
  let ucompare w a b =
    if w < max_width then Int.compare a b
    else Int.compare (a lxor min_int) (b lxor min_int)

  let lt w a b = ucompare w a b < 0
  let le w a b = ucompare w a b <= 0
  let gt w a b = ucompare w a b > 0
  let ge w a b = ucompare w a b >= 0

  let signed_lt w a b =
    let sa = bit a (w - 1) and sb = bit b (w - 1) in
    if sa <> sb then sa else lt w a b

  let signed_le w a b = signed_lt w a b || a = b
  let reduce_and w a = a = mask w
  let reduce_or a = a <> 0

  let reduce_xor a =
    let v = a lxor (a lsr 32) in
    let v = v lxor (v lsr 16) in
    let v = v lxor (v lsr 8) in
    let v = v lxor (v lsr 4) in
    (0x6996 lsr (v land 0xF)) land 1 = 1

  let resize w a = a land mask w

  let sign_extend ~from w a =
    if w <= from then a land mask w
    else if bit a (from - 1) then a lor (mask w lxor mask from)
    else a

  (* Same contract as the limb-level [to_int_trunc]: the low 62 bits. *)
  let to_int_trunc a = a land max_int
end
