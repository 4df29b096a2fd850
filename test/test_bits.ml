(* Unit and property tests for the Bits bit-vector library. *)

open Fpga_bits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_construction () =
  check_int "zero width" 8 (Bits.width (Bits.zero 8));
  check_int "zero value" 0 (Bits.to_int (Bits.zero 8));
  check_int "one" 1 (Bits.to_int (Bits.one 8));
  check_int "ones 4" 15 (Bits.to_int (Bits.ones 4));
  check_int "of_int" 42 (Bits.to_int (Bits.of_int ~width:8 42));
  check_int "of_int truncates" 0x2A (Bits.to_int (Bits.of_int ~width:8 0x12A));
  check_int "of_int negative wraps" 0xFF (Bits.to_int (Bits.of_int ~width:8 (-1)));
  check_int "of_int neg wide" 0xFFFF_FFFF
    (Bits.to_int (Bits.of_int ~width:32 (-1)));
  check_bool "of_bool" true (Bits.bit (Bits.of_bool true) 0);
  Alcotest.check_raises "width 0 rejected" (Invalid_argument "Bits: width 0 < 1")
    (fun () -> ignore (Bits.zero 0))

let test_wide () =
  (* 128-bit arithmetic sanity *)
  let a = Bits.of_hex_string ~width:128 "ffffffffffffffff" in
  let b = Bits.one 128 in
  let s = Bits.add a b in
  check_string "2^64" "00000000000000010000000000000000" (Bits.to_hex_string s);
  let back = Bits.sub s b in
  check_bool "sub inverse" true (Bits.equal a back)

let test_strings () =
  check_int "binary" 10 (Bits.to_int (Bits.of_binary_string "1010"));
  check_int "binary underscores" 10 (Bits.to_int (Bits.of_binary_string "10_10"));
  check_int "hex" 0xDEAD (Bits.to_int (Bits.of_hex_string ~width:16 "dead"));
  check_int "hex underscore" 0xBEEF
    (Bits.to_int (Bits.of_hex_string ~width:16 "be_ef"));
  check_int "decimal" 1234 (Bits.to_int (Bits.of_decimal_string ~width:16 "1234"));
  check_string "to_binary" "1010" (Bits.to_binary_string (Bits.of_int ~width:4 10));
  check_string "to_hex pads" "0f" (Bits.to_hex_string (Bits.of_int ~width:8 15));
  check_string "to_string" "8'h2a" (Bits.to_string (Bits.of_int ~width:8 42))

let test_arith () =
  let b8 n = Bits.of_int ~width:8 n in
  check_int "add" 30 (Bits.to_int (Bits.add (b8 10) (b8 20)));
  check_int "add wraps" 4 (Bits.to_int (Bits.add (b8 250) (b8 10)));
  check_int "sub" 10 (Bits.to_int (Bits.sub (b8 30) (b8 20)));
  check_int "sub wraps" 246 (Bits.to_int (Bits.sub (b8 10) (b8 20)));
  check_int "mul" 200 (Bits.to_int (Bits.mul (b8 10) (b8 20)));
  check_int "mul wraps" 0xBF (Bits.to_int (Bits.mul (b8 19) (b8 37)));
  check_int "div" 4 (Bits.to_int (Bits.div (b8 9) (b8 2)));
  check_int "rem" 1 (Bits.to_int (Bits.rem (b8 9) (b8 2)));
  check_int "div by zero all ones" 255 (Bits.to_int (Bits.div (b8 9) (b8 0)));
  check_int "rem by zero is lhs" 9 (Bits.to_int (Bits.rem (b8 9) (b8 0)));
  check_int "neg" 246 (Bits.to_int (Bits.neg (b8 10)));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bits.add: width mismatch (8 vs 4)") (fun () ->
      ignore (Bits.add (b8 1) (Bits.one 4)))

let test_bitwise () =
  let b8 = Bits.of_int ~width:8 in
  check_int "and" 0x08 (Bits.to_int (Bits.logand (b8 0x0C) (b8 0x0A)));
  check_int "or" 0x0E (Bits.to_int (Bits.logor (b8 0x0C) (b8 0x0A)));
  check_int "xor" 0x06 (Bits.to_int (Bits.logxor (b8 0x0C) (b8 0x0A)));
  check_int "not" 0xF3 (Bits.to_int (Bits.lognot (b8 0x0C)));
  check_int "shl" 0x30 (Bits.to_int (Bits.shift_left (b8 0x0C) 2));
  check_int "shl overflow drops" 0x80 (Bits.to_int (Bits.shift_left (b8 0xC1) 7));
  check_int "shl by width" 0 (Bits.to_int (Bits.shift_left (b8 0xFF) 8));
  check_int "shr" 0x03 (Bits.to_int (Bits.shift_right (b8 0x0C) 2));
  check_int "asr positive" 0x03 (Bits.to_int (Bits.arith_shift_right (b8 0x0C) 2));
  check_int "asr negative" 0xE0 (Bits.to_int (Bits.arith_shift_right (b8 0x80) 2));
  check_int "asr saturates" 0xFF
    (Bits.to_int (Bits.arith_shift_right (b8 0x80) 20))

let test_structure () =
  let v = Bits.of_int ~width:8 0b1011_0010 in
  check_bool "bit 1" true (Bits.bit v 1);
  check_bool "bit 0" false (Bits.bit v 0);
  check_int "slice" 0b011 (Bits.to_int (Bits.slice v ~hi:6 ~lo:4));
  check_int "slice width" 3 (Bits.width (Bits.slice v ~hi:6 ~lo:4));
  let c = Bits.concat [ Bits.of_int ~width:4 0xA; Bits.of_int ~width:4 0x5 ] in
  check_int "concat" 0xA5 (Bits.to_int c);
  check_int "concat width" 8 (Bits.width c);
  let r = Bits.repeat 3 (Bits.of_int ~width:2 0b10) in
  check_int "repeat" 0b101010 (Bits.to_int r);
  check_int "resize up" 0xB2 (Bits.to_int (Bits.resize v 16));
  check_int "resize down" 0x2 (Bits.to_int (Bits.resize v 4));
  check_int "sign extend neg" 0xFFB2 (Bits.to_int (Bits.sign_extend v 16));
  check_int "sign extend pos" 0x32
    (Bits.to_int (Bits.sign_extend (Bits.of_int ~width:8 0x32) 16));
  let s = Bits.set_slice v ~hi:3 ~lo:0 (Bits.of_int ~width:4 0xF) in
  check_int "set_slice" 0xBF (Bits.to_int s);
  check_int "set_bit" 0xB3 (Bits.to_int (Bits.set_bit v 0 true));
  Alcotest.check_raises "bad slice"
    (Invalid_argument "Bits.slice: [9:0] out of range for width 8") (fun () ->
      ignore (Bits.slice v ~hi:9 ~lo:0))

let test_compare () =
  let b8 = Bits.of_int ~width:8 in
  check_bool "lt" true (Bits.lt (b8 3) (b8 5));
  check_bool "le eq" true (Bits.le (b8 5) (b8 5));
  check_bool "gt" true (Bits.gt (b8 7) (b8 5));
  check_bool "ge" true (Bits.ge (b8 5) (b8 5));
  check_bool "equal widths matter" false (Bits.equal (b8 5) (Bits.of_int ~width:4 5));
  check_bool "equal_value across widths" true
    (Bits.equal_value (b8 5) (Bits.of_int ~width:4 5));
  check_bool "unsigned 0x80 > 1" true (Bits.gt (b8 0x80) (b8 1));
  check_bool "signed 0x80 < 1" true (Bits.signed_lt (b8 0x80) (b8 1));
  check_bool "signed le" true (Bits.signed_le (b8 0xFF) (b8 0));
  check_int "to_signed_int" (-1) (Bits.to_signed_int (b8 0xFF));
  check_int "to_signed_int pos" 5 (Bits.to_signed_int (b8 5))

let test_reductions () =
  let b4 = Bits.of_int ~width:4 in
  check_bool "reduce_and all" true (Bits.reduce_and (b4 0xF));
  check_bool "reduce_and some" false (Bits.reduce_and (b4 0x7));
  check_bool "reduce_or zero" false (Bits.reduce_or (b4 0));
  check_bool "reduce_or some" true (Bits.reduce_or (b4 2));
  check_bool "reduce_xor odd" true (Bits.reduce_xor (b4 0b0111));
  check_bool "reduce_xor even" false (Bits.reduce_xor (b4 0b0101));
  check_bool "is_zero" true (Bits.is_zero (Bits.zero 100))

(* Property tests ---------------------------------------------------- *)

let gen_width = QCheck2.Gen.int_range 1 100

let gen_bits =
  QCheck2.Gen.(
    gen_width >>= fun w ->
    list_size (return w) bool >|= fun bs ->
    List.fold_left
      (fun (i, acc) b -> (i + 1, if b then Bits.set_bit acc i true else acc))
      (0, Bits.zero w) bs
    |> snd)

let gen_pair =
  QCheck2.Gen.(
    gen_bits >>= fun a ->
    list_size (return (Bits.width a)) bool >|= fun bs ->
    let b =
      List.fold_left
        (fun (i, acc) x -> (i + 1, if x then Bits.set_bit acc i true else acc))
        (0, Bits.zero (Bits.width a))
        bs
      |> snd
    in
    (a, b))

let prop name gen f = QCheck2.Test.make ~count:300 ~name gen f

let properties =
  [
    prop "add commutative" gen_pair (fun (a, b) ->
        Bits.equal (Bits.add a b) (Bits.add b a));
    prop "add/sub inverse" gen_pair (fun (a, b) ->
        Bits.equal a (Bits.sub (Bits.add a b) b));
    prop "neg is sub from zero" gen_bits (fun a ->
        Bits.equal (Bits.neg a) (Bits.sub (Bits.zero (Bits.width a)) a));
    prop "double negation" gen_bits (fun a -> Bits.equal a (Bits.neg (Bits.neg a)));
    prop "not involutive" gen_bits (fun a ->
        Bits.equal a (Bits.lognot (Bits.lognot a)));
    prop "de morgan" gen_pair (fun (a, b) ->
        Bits.equal
          (Bits.lognot (Bits.logand a b))
          (Bits.logor (Bits.lognot a) (Bits.lognot b)));
    prop "xor self is zero" gen_bits (fun a -> Bits.is_zero (Bits.logxor a a));
    prop "divmod reconstructs" gen_pair (fun (a, b) ->
        QCheck2.assume (not (Bits.is_zero b));
        let q = Bits.div a b and r = Bits.rem a b in
        Bits.equal a (Bits.add (Bits.mul q b) r) && Bits.lt r b);
    prop "binary round trip" gen_bits (fun a ->
        Bits.equal a (Bits.of_binary_string (Bits.to_binary_string a)));
    prop "hex round trip" gen_bits (fun a ->
        Bits.equal a
          (Bits.of_hex_string ~width:(Bits.width a) (Bits.to_hex_string a)));
    prop "concat then slice recovers" gen_pair (fun (a, b) ->
        let w = Bits.width a in
        let c = Bits.concat [ a; b ] in
        Bits.equal a (Bits.slice c ~hi:((2 * w) - 1) ~lo:w)
        && Bits.equal b (Bits.slice c ~hi:(w - 1) ~lo:0));
    prop "shift left then right" gen_bits (fun a ->
        let w = Bits.width a in
        QCheck2.assume (w > 2);
        let masked = Bits.slice a ~hi:(w - 3) ~lo:0 in
        Bits.equal_value masked
          (Bits.shift_right (Bits.shift_left a 2) 2 |> fun v ->
           Bits.slice v ~hi:(w - 3) ~lo:0));
    prop "compare antisymmetric" gen_pair (fun (a, b) ->
        Bits.compare a b = -Bits.compare b a);
    prop "resize preserves low bits" gen_bits (fun a ->
        let w = Bits.width a in
        let up = Bits.resize a (w + 17) in
        Bits.equal a (Bits.slice up ~hi:(w - 1) ~lo:0));
    prop "sign extend preserves signed value" gen_bits (fun a ->
        QCheck2.assume (Bits.width a <= 60);
        let v = Bits.to_signed_int a in
        Bits.to_signed_int (Bits.sign_extend a (Bits.width a + 3)) = v);
  ]

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "wide vectors" `Quick test_wide;
    Alcotest.test_case "string conversions" `Quick test_strings;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "bitwise" `Quick test_bitwise;
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "comparisons" `Quick test_compare;
    Alcotest.test_case "reductions" `Quick test_reductions;
  ]
  @ List.map QCheck_alcotest.to_alcotest properties

(* --- additional edge cases ----------------------------------------------- *)

let test_conversion_edges () =
  (* to_int refuses values beyond 62 bits but accepts wide vectors whose
     value fits *)
  let big = Bits.shift_left (Bits.one 100) 70 in
  Alcotest.check_raises "to_int overflow"
    (Failure "Bits.to_int: value exceeds 62 bits") (fun () ->
      ignore (Bits.to_int big));
  let small_in_wide = Bits.of_int ~width:100 12345 in
  check_int "wide but small" 12345 (Bits.to_int small_in_wide);
  check_int "to_int_trunc keeps the low bits" 0
    (Bits.to_int_trunc big land 0xFFFF);
  (* signed conversions at the width-1 boundaries *)
  check_int "1-bit signed 1 is -1" (-1) (Bits.to_signed_int (Bits.one 1));
  check_int "1-bit signed 0" 0 (Bits.to_signed_int (Bits.zero 1));
  check_int "min int8" (-128) (Bits.to_signed_int (Bits.of_int ~width:8 0x80));
  check_int "max int8" 127 (Bits.to_signed_int (Bits.of_int ~width:8 0x7F))

let test_shift_edges () =
  let v = Bits.of_int ~width:8 0xA5 in
  check_int "shift by zero is identity" 0xA5 (Bits.to_int (Bits.shift_left v 0));
  check_int "shift beyond width clears" 0
    (Bits.to_int (Bits.shift_right v 100));
  check_int "asr beyond width saturates sign" 0xFF
    (Bits.to_int (Bits.arith_shift_right v 100));
  Alcotest.check_raises "negative shift rejected"
    (Invalid_argument "Bits.shift_left: negative shift") (fun () ->
      ignore (Bits.shift_left v (-1)))

let test_wide_ops_128 () =
  let a = Bits.of_hex_string ~width:128 "0123456789abcdef0123456789abcdef" in
  let b = Bits.lognot a in
  check_bool "a and not a is zero" true (Bits.is_zero (Bits.logand a b));
  check_bool "a or not a is ones" true (Bits.equal (Bits.logor a b) (Bits.ones 128));
  let shifted = Bits.shift_left a 64 in
  Alcotest.(check string)
    "128-bit shift"
    "0123456789abcdef0000000000000000"
    (Bits.to_hex_string shifted);
  check_bool "divmod holds at 128 bits" true
    (let q = Bits.div a (Bits.of_int ~width:128 7) in
     let r = Bits.rem a (Bits.of_int ~width:128 7) in
     Bits.equal a (Bits.add (Bits.mul q (Bits.of_int ~width:128 7)) r))

let prop_set_slice_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"set_slice then slice recovers"
    QCheck2.Gen.(triple (int_range 8 40) (int_bound 1000000) (int_bound 1000000))
    (fun (w, a, b) ->
      let v = Bits.of_int ~width:w a in
      let hi = (w / 2) + 1 and lo = 2 in
      let chunk = Bits.of_int ~width:(hi - lo + 1) b in
      let v' = Bits.set_slice v ~hi ~lo chunk in
      Bits.equal (Bits.slice v' ~hi ~lo) chunk
      && Bits.equal (Bits.slice v' ~hi:1 ~lo:0) (Bits.slice v ~hi:1 ~lo:0)
      && (w - 1 < hi + 1
         || Bits.equal
              (Bits.slice v' ~hi:(w - 1) ~lo:(hi + 1))
              (Bits.slice v ~hi:(w - 1) ~lo:(hi + 1))))

let suite =
  suite
  @ [
      Alcotest.test_case "conversion edges" `Quick test_conversion_edges;
      Alcotest.test_case "shift edges" `Quick test_shift_edges;
      Alcotest.test_case "wide 128-bit ops" `Quick test_wide_ops_128;
      QCheck_alcotest.to_alcotest prop_set_slice_roundtrip;
    ]

(* --- word-level vs bit-at-a-time differential tests ----------------------- *)

(* Every limb-wise rewrite is pitted against the retained naive
   reference (Bits.Naive) over widths that straddle the 32-bit limb
   boundaries (1, 31-33, 63-65, 100+) and random operands. *)

let boundary_widths = [ 1; 2; 31; 32; 33; 63; 64; 65; 100; 127; 128; 129; 150 ]

let gen_boundary_width =
  QCheck2.Gen.(
    oneof [ oneofl boundary_widths; int_range 1 160 ])

(* A random vector of exactly width [w]. *)
let gen_bits_of_width w =
  QCheck2.Gen.(
    list_size (return w) bool >|= fun bs ->
    List.fold_left
      (fun (i, acc) b -> (i + 1, if b then Bits.set_bit acc i true else acc))
      (0, Bits.zero w) bs
    |> snd)

let gen_diff_bits = QCheck2.Gen.(gen_boundary_width >>= gen_bits_of_width)

let gen_diff_pair =
  QCheck2.Gen.(
    gen_diff_bits >>= fun a ->
    gen_bits_of_width (Bits.width a) >|= fun b -> (a, b))

(* A shift amount that exercises 0, sub-limb, cross-limb, and
   beyond-width cases. *)
let gen_shift_for w =
  QCheck2.Gen.(
    oneof [ int_range 0 (w + 4); oneofl [ 0; 1; 31; 32; 33; w - 1; w; w + 1 ] ]
    >|= fun k -> max 0 k)

let diff_prop name gen f = QCheck2.Test.make ~count:500 ~name gen f

let gen_bits_and_shift =
  QCheck2.Gen.(
    gen_diff_bits >>= fun a ->
    gen_shift_for (Bits.width a) >|= fun k -> (a, k))

let gen_bits_and_range =
  QCheck2.Gen.(
    gen_diff_bits >>= fun a ->
    let w = Bits.width a in
    int_range 0 (w - 1) >>= fun lo ->
    int_range lo (w - 1) >|= fun hi -> (a, hi, lo))

let gen_set_slice_case =
  QCheck2.Gen.(
    gen_bits_and_range >>= fun (a, hi, lo) ->
    gen_boundary_width >>= fun xw ->
    gen_bits_of_width xw >|= fun x -> (a, hi, lo, x))

let gen_concat_parts =
  QCheck2.Gen.(
    int_range 1 4 >>= fun n ->
    list_size (return n) gen_diff_bits)

let differential_properties =
  [
    diff_prop "shift_left vs naive" gen_bits_and_shift (fun (a, k) ->
        Bits.equal (Bits.shift_left a k) (Bits.Naive.shift_left a k));
    diff_prop "shift_right vs naive" gen_bits_and_shift (fun (a, k) ->
        Bits.equal (Bits.shift_right a k) (Bits.Naive.shift_right a k));
    diff_prop "arith_shift_right vs naive" gen_bits_and_shift (fun (a, k) ->
        Bits.equal
          (Bits.arith_shift_right a k)
          (Bits.Naive.arith_shift_right a k));
    diff_prop "slice vs naive" gen_bits_and_range (fun (a, hi, lo) ->
        Bits.equal (Bits.slice a ~hi ~lo) (Bits.Naive.slice a ~hi ~lo));
    diff_prop "set_slice vs naive" gen_set_slice_case (fun (a, hi, lo, x) ->
        Bits.equal
          (Bits.set_slice a ~hi ~lo x)
          (Bits.Naive.set_slice a ~hi ~lo x));
    diff_prop "set_slice no-op is phys-eq" gen_bits_and_range
      (fun (a, hi, lo) ->
        (* writing back the very bits that are already there must return
           the argument physically unchanged *)
        Bits.set_slice a ~hi ~lo (Bits.slice a ~hi ~lo) == a);
    diff_prop "concat vs naive" gen_concat_parts (fun parts ->
        Bits.equal (Bits.concat parts) (Bits.Naive.concat parts));
    diff_prop "repeat vs naive"
      QCheck2.Gen.(pair (int_range 1 5) gen_diff_bits)
      (fun (n, a) -> Bits.equal (Bits.repeat n a) (Bits.Naive.repeat n a));
    diff_prop "sign_extend vs naive"
      QCheck2.Gen.(
        gen_diff_bits >>= fun a ->
        int_range 1 48 >|= fun extra -> (a, Bits.width a + extra))
      (fun (a, w) ->
        Bits.equal (Bits.sign_extend a w) (Bits.Naive.sign_extend a w));
    diff_prop "mul vs naive" gen_diff_pair (fun (a, b) ->
        Bits.equal (Bits.mul a b) (Bits.Naive.mul a b));
    diff_prop "reduce_xor vs naive" gen_diff_bits (fun a ->
        Bits.reduce_xor a = Bits.Naive.reduce_xor a);
  ]

let suite = suite @ List.map QCheck_alcotest.to_alcotest differential_properties

(* --- directed limb-boundary cases ----------------------------------------- *)

(* The differential properties above only sample the 63/64/65 straddle
   widths; these pin the exact words so a limb-carry bug cannot hide
   behind generator luck. Expected strings computed with arbitrary-
   precision integer arithmetic. *)

let test_mul_limb_boundaries () =
  (* (2^w - 1)^2 mod 2^w = 1 at every straddle width *)
  List.iter
    (fun w ->
      check_bool
        (Printf.sprintf "ones^2 at width %d" w)
        true
        (Bits.equal (Bits.mul (Bits.ones w) (Bits.ones w)) (Bits.one w)))
    [ 63; 64; 65 ];
  let a w = Bits.of_hex_string ~width:w "123456789abcdef0" in
  let b w = Bits.of_hex_string ~width:w "0fedcba987654321" in
  check_string "mul 63" "2236d88fe5618cf0"
    (Bits.to_hex_string (Bits.mul (a 63) (b 63)));
  check_string "mul 64" "2236d88fe5618cf0"
    (Bits.to_hex_string (Bits.mul (a 64) (b 64)));
  check_string "mul 65" "02236d88fe5618cf0"
    (Bits.to_hex_string (Bits.mul (a 65) (b 65)))

let test_shift_limb_boundaries () =
  let shl w k = Bits.to_hex_string (Bits.shift_left (Bits.one w) k) in
  (* width 63: bit 62 is the MSB; shifting to 63 falls off the end *)
  check_string "63: 1<<62" "4000000000000000" (shl 63 62);
  check_string "63: 1<<63 overflows" "0000000000000000" (shl 63 63);
  (* width 64: bit 63 is the MSB; 64 falls off *)
  check_string "64: 1<<62" "4000000000000000" (shl 64 62);
  check_string "64: 1<<63" "8000000000000000" (shl 64 63);
  check_string "64: 1<<64 overflows" "0000000000000000" (shl 64 64);
  (* width 65: bit 64 lives alone in the third 32-bit limb *)
  check_string "65: 1<<63" "08000000000000000" (shl 65 63);
  check_string "65: 1<<64" "10000000000000000" (shl 65 64);
  (* and the MSB comes back down intact *)
  List.iter
    (fun w ->
      let top = Bits.shift_left (Bits.one w) (w - 1) in
      check_bool
        (Printf.sprintf "%d: msb >> back" w)
        true
        (Bits.equal (Bits.shift_right top (w - 1)) (Bits.one w)))
    [ 63; 64; 65 ]

let test_set_slice_three_limbs () =
  (* [70:10] of a width-100 vector touches 32-bit limbs 0, 1, and 2;
     the inserted value is 61 bits, itself spanning two limbs *)
  let chunk = Bits.of_hex_string ~width:61 "0bcdef0123456789" in
  let into_ones =
    Bits.set_slice (Bits.ones 100) ~hi:70 ~lo:10 chunk
  in
  check_string "insert into all-ones" "fffffffaf37bc048d159e27ff"
    (Bits.to_hex_string into_ones);
  let into_zero = Bits.set_slice (Bits.zero 100) ~hi:70 ~lo:10 chunk in
  check_string "insert into zero" "00000002f37bc048d159e2400"
    (Bits.to_hex_string into_zero);
  (* the inserted window reads back exactly, and the guard bits on
     either side of the window are untouched *)
  check_bool "window reads back" true
    (Bits.equal (Bits.slice into_zero ~hi:70 ~lo:10) chunk);
  check_bool "low guard bits" true
    (Bits.equal (Bits.slice into_ones ~hi:9 ~lo:0) (Bits.ones 10));
  check_bool "high guard bits" true
    (Bits.equal (Bits.slice into_ones ~hi:99 ~lo:71) (Bits.ones 29));
  check_bool "zero base guards stay zero" true
    (Bits.is_zero (Bits.slice into_zero ~hi:9 ~lo:0)
    && Bits.is_zero (Bits.slice into_zero ~hi:99 ~lo:71))

let suite =
  suite
  @ [
      Alcotest.test_case "mul at widths 63/64/65" `Quick
        test_mul_limb_boundaries;
      Alcotest.test_case "shifts at widths 63/64/65" `Quick
        test_shift_limb_boundaries;
      Alcotest.test_case "set_slice spanning 3 limbs" `Quick
        test_set_slice_three_limbs;
    ]

(* --- immediate (single-int) representation vs the limb reference ----------- *)

(* The lowered kernel keeps every signal of width <= 63 as one raw
   native int (Bits.Imm). Each Imm operation is pitted against the
   limb-wise Bits/Bits.Naive operation at the same width, with the
   unboxed widths 1, 62 and 63 always in the sample: width 63 uses all
   bits of the int, so set-top-bit patterns are *negative* raw ints and
   any `asr`/`Stdlib.compare` confusion shows up immediately. *)

module Imm = Bits.Imm

let imm_widths = [ 1; 2; 31; 32; 33; 62; 63 ]
let gen_imm_width = QCheck2.Gen.(oneof [ oneofl imm_widths; int_range 1 63 ])

let gen_imm_bits = QCheck2.Gen.(gen_imm_width >>= gen_bits_of_width)

let gen_imm_pair =
  QCheck2.Gen.(
    gen_imm_bits >>= fun a ->
    gen_bits_of_width (Bits.width a) >|= fun b -> (a, b))

let gen_imm_bits_shift =
  QCheck2.Gen.(
    gen_imm_bits >>= fun a ->
    gen_shift_for (Bits.width a) >|= fun k -> (a, k))

(* Lift a width-indexed imm binop back into limb form. *)
let via2 f a b =
  let w = Bits.width a in
  Imm.to_bits ~width:w (f w (Imm.of_bits a) (Imm.of_bits b))

let imm_prop name gen f = QCheck2.Test.make ~count:500 ~name gen f

let imm_properties =
  [
    imm_prop "imm of_bits/to_bits round-trip" gen_imm_bits (fun a ->
        Bits.equal a (Imm.to_bits ~width:(Bits.width a) (Imm.of_bits a)));
    imm_prop "imm patterns stay masked" gen_imm_bits (fun a ->
        let p = Imm.of_bits a in
        p land Imm.mask (Bits.width a) = p);
    imm_prop "imm add" gen_imm_pair (fun (a, b) ->
        Bits.equal (via2 Imm.add a b) (Bits.add a b));
    imm_prop "imm sub" gen_imm_pair (fun (a, b) ->
        Bits.equal (via2 Imm.sub a b) (Bits.sub a b));
    imm_prop "imm neg" gen_imm_bits (fun a ->
        let w = Bits.width a in
        Bits.equal (Imm.to_bits ~width:w (Imm.neg w (Imm.of_bits a))) (Bits.neg a));
    imm_prop "imm mul" gen_imm_pair (fun (a, b) ->
        Bits.equal (via2 Imm.mul a b) (Bits.Naive.mul a b));
    imm_prop "imm div" gen_imm_pair (fun (a, b) ->
        Bits.equal (via2 Imm.div a b) (Bits.div a b));
    imm_prop "imm rem" gen_imm_pair (fun (a, b) ->
        Bits.equal (via2 Imm.rem a b) (Bits.rem a b));
    imm_prop "imm logand/logor/logxor/lognot" gen_imm_pair (fun (a, b) ->
        let w = Bits.width a in
        let pa = Imm.of_bits a and pb = Imm.of_bits b in
        Bits.equal (Imm.to_bits ~width:w (Imm.logand pa pb)) (Bits.logand a b)
        && Bits.equal (Imm.to_bits ~width:w (Imm.logor pa pb)) (Bits.logor a b)
        && Bits.equal (Imm.to_bits ~width:w (Imm.logxor pa pb)) (Bits.logxor a b)
        && Bits.equal (Imm.to_bits ~width:w (Imm.lognot w pa)) (Bits.lognot a));
    imm_prop "imm shifts vs naive" gen_imm_bits_shift (fun (a, k) ->
        let w = Bits.width a in
        let p = Imm.of_bits a in
        Bits.equal
          (Imm.to_bits ~width:w (Imm.shift_left w p k))
          (Bits.Naive.shift_left a k)
        && Bits.equal
             (Imm.to_bits ~width:w (Imm.shift_right w p k))
             (Bits.Naive.shift_right a k)
        && Bits.equal
             (Imm.to_bits ~width:w (Imm.arith_shift_right w p k))
             (Bits.Naive.arith_shift_right a k));
    imm_prop "imm bit/slice" gen_imm_bits (fun a ->
        let w = Bits.width a in
        let p = Imm.of_bits a in
        let lo = w / 3 and hi = w - 1 in
        (w > 62 || Imm.bit p (w - 1) = Bits.bit a (w - 1))
        && Bits.equal
             (Imm.to_bits ~width:(hi - lo + 1) (Imm.slice p ~hi ~lo))
             (Bits.Naive.slice a ~hi ~lo));
    imm_prop "imm comparisons" gen_imm_pair (fun (a, b) ->
        let w = Bits.width a in
        let pa = Imm.of_bits a and pb = Imm.of_bits b in
        Imm.equal pa pb = Bits.equal_value a b
        && Imm.is_zero pa = Bits.is_zero a
        && compare (Imm.ucompare w pa pb) 0 = compare (Bits.compare a b) 0
        && Imm.lt w pa pb = Bits.lt a b
        && Imm.le w pa pb = Bits.le a b
        && Imm.gt w pa pb = Bits.gt a b
        && Imm.ge w pa pb = Bits.ge a b
        && Imm.signed_lt w pa pb = Bits.signed_lt a b
        && Imm.signed_le w pa pb = Bits.signed_le a b);
    imm_prop "imm reductions" gen_imm_bits (fun a ->
        let w = Bits.width a in
        let p = Imm.of_bits a in
        Imm.reduce_and w p = Bits.reduce_and a
        && Imm.reduce_or p = Bits.reduce_or a
        && Imm.reduce_xor p = Bits.reduce_xor a);
    imm_prop "imm sign_extend" gen_imm_bits (fun a ->
        let from = Bits.width a in
        List.for_all
          (fun w ->
            w < from
            || Bits.equal
                 (Imm.to_bits ~width:w
                    (Imm.sign_extend ~from w (Imm.of_bits a)))
                 (Bits.Naive.sign_extend a w))
          [ from; 62; 63 ]);
    imm_prop "imm resize truncates like Bits.resize" gen_imm_bits (fun a ->
        let from = Bits.width a in
        List.for_all
          (fun w ->
            Bits.equal
              (Imm.to_bits ~width:w (Imm.resize w (Imm.of_bits a)))
              (Bits.resize a w))
          [ 1; (from + 1) / 2; from ]);
    imm_prop "imm to_int_trunc" gen_imm_bits (fun a ->
        Imm.to_int_trunc (Imm.of_bits a) = Bits.to_int_trunc a);
  ]

(* Directed cases the generators cannot be trusted to hit: the exact
   top-bit-of-width-63 patterns (negative raw ints), mask-on-write,
   and the 63/64/65 seam where values overflow out of the immediate
   form into limbs. *)

let test_imm_width63_top_bit () =
  check_bool "fits 63" true (Imm.fits 63);
  check_bool "fits 64 is limb territory" false (Imm.fits 64);
  check_bool "fits 65 is limb territory" false (Imm.fits 65);
  check_int "mask 63 is all bits" (-1) (Imm.mask 63);
  check_int "ones(63) raw pattern is -1" (-1) (Imm.of_bits (Bits.ones 63));
  (* ones + one wraps to zero at the full int width *)
  check_int "ones+1 wraps" 0 (Imm.add 63 (Imm.of_bits (Bits.ones 63)) 1);
  (* unsigned order: all-ones (raw -1) is the maximum, not the minimum *)
  check_bool "ucompare treats -1 as max" true
    (Imm.ucompare 63 (Imm.of_bits (Bits.ones 63)) 1 > 0);
  check_bool "unsigned 1 < ones" true (Imm.lt 63 1 (Imm.of_bits (Bits.ones 63)));
  (* signed order: the same pattern is -1, below zero *)
  check_bool "signed ones < 0" true
    (Imm.signed_lt 63 (Imm.of_bits (Bits.ones 63)) 0);
  (* 1 lsl 62 is the width-63 sign bit *)
  check_bool "shift into the sign bit" true
    (Bits.equal
       (Imm.to_bits ~width:63 (Imm.shift_left 63 1 62))
       (Bits.shift_left (Bits.one 63) 62));
  (* division on negative raw patterns must stay unsigned *)
  let top = Imm.shift_left 63 1 62 in
  check_int "unsigned div of top bit" top (Imm.div 63 top 1);
  check_int "top/top = 1" 1 (Imm.div 63 top top);
  check_int "rem below divisor" 1 (Imm.rem 63 (Imm.add 63 top 1) top)

let test_imm_mask_on_write () =
  check_int "of_int masks width 1" 1 (Imm.of_int ~width:1 (-1));
  check_int "of_int masks width 62" (Imm.mask 62) (Imm.of_int ~width:62 (-1));
  check_int "of_int keeps width 63 raw" (-1) (Imm.of_int ~width:63 (-1));
  (* width-62 ops never leak into bit 62 *)
  let m62 = Imm.mask 62 in
  check_int "add wraps at 62" 0 (Imm.add 62 m62 1);
  check_int "lognot stays masked" 0 (Imm.lognot 62 m62);
  check_int "sign_extend 1->62 fills exactly 62 bits" m62
    (Imm.sign_extend ~from:1 62 1)

let test_imm_mul_overflow_seam () =
  (* the low 63 bits of a product depend only on the low 63 bits of the
     operands: computing in the immediate form after resize must match
     resizing the 65-bit limb product *)
  let a = Bits.of_hex_string ~width:65 "123456789abcdef01" in
  let b = Bits.of_hex_string ~width:65 "1fedcba9876543210" in
  let low63 x = Bits.resize x 63 in
  check_bool "63-bit window of a 65-bit product" true
    (Bits.equal
       (Imm.to_bits ~width:63
          (Imm.mul 63 (Imm.of_bits (low63 a)) (Imm.of_bits (low63 b))))
       (low63 (Bits.Naive.mul a b)));
  (* at width exactly 63, squaring all-ones wraps to 1 in both forms *)
  check_int "ones(63)^2 = 1 immediate" 1
    (Imm.mul 63 (Imm.of_bits (Bits.ones 63)) (Imm.of_bits (Bits.ones 63)));
  check_bool "ones(63)^2 = 1 limbs" true
    (Bits.equal (Bits.Naive.mul (Bits.ones 63) (Bits.ones 63)) (Bits.one 63))

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest imm_properties
  @ [
      Alcotest.test_case "imm width-63 top-bit patterns" `Quick
        test_imm_width63_top_bit;
      Alcotest.test_case "imm mask-on-write" `Quick test_imm_mask_on_write;
      Alcotest.test_case "imm/limb mul overflow seam" `Quick
        test_imm_mul_overflow_seam;
    ]

(* --- pack ------------------------------------------------------------------ *)

(* [pack] against the bit-at-a-time concat: every part of at most 63
   bits is one [Fint] field, every wider part one [Fvec], at the offsets
   [concat] gives them; packing at a larger width zero-extends. The
   parts come from the boundary-straddling width generator, so fields
   start at every limb offset and 63-bit patterns are often negative. *)
let prop_pack_is_concat =
  diff_prop "pack equals Naive.concat, fresh and normalized"
    QCheck2.Gen.(pair (list_size (int_range 1 8) gen_diff_bits) (int_range 0 70))
    (fun (parts, extra) ->
      let total = List.fold_left (fun acc p -> acc + Bits.width p) 0 parts in
      let fields =
        List.fold_right
          (fun p (lo, acc) ->
            let f =
              if Imm.fits (Bits.width p) then
                let v = Imm.of_bits p in
                Bits.Fint (lo, fun () -> v)
              else Bits.Fvec (lo, fun () -> p)
            in
            (lo + Bits.width p, f :: acc))
          parts (0, [])
        |> snd |> Array.of_list
      in
      let reference = Bits.Naive.concat parts in
      let before = List.map Bits.to_hex_string parts in
      let packed = Bits.pack total fields in
      let wider = Bits.pack (total + extra) fields in
      Bits.equal packed reference
      && Bits.equal wider (Bits.resize reference (total + extra))
      && (* a fresh vector each time: no shared limbs with the last one *)
      packed != Bits.pack total fields
      && (* the [Fvec] parts are read, never written *)
      List.map Bits.to_hex_string parts = before)

let test_pack_order () =
  (* fields are produced in array order, each thunk exactly once *)
  let seen = ref [] in
  let note k = seen := k :: !seen in
  let v =
    Bits.pack 70
      [|
        Bits.Fint (60, fun () -> note 3; 3);
        Bits.Fvec (20, fun () -> note 9; Bits.ones 40);
        Bits.Fint (0, fun () -> note 1; 1);
      |]
  in
  Alcotest.(check (list int)) "thunk order" [ 3; 9; 1 ] (List.rev !seen);
  check_string "layout" "003ffffffffff00001" (Bits.to_hex_string v)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_pack_is_concat;
      Alcotest.test_case "pack runs each field once, in order" `Quick test_pack_order;
    ]

(* [equal] compares limb by limb; a rebuilt copy is never physically
   equal, so it takes the loop. *)
let prop_equal_bitwise =
  prop "equal is bitwise equality" gen_pair (fun (a, b) ->
      Bits.equal a b = (Bits.to_binary_string a = Bits.to_binary_string b)
      && Bits.equal a (Bits.of_binary_string (Bits.to_binary_string a)))

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_equal_bitwise ]

(* --- strings and fields straight from the limbs --------------------------- *)

(* References built one digit at a time from [Bits.Naive.slice]. *)
let naive_hex a =
  let w = Bits.width a in
  let n = (w + 3) / 4 in
  String.init n (fun i ->
      let lo = (n - 1 - i) * 4 in
      "0123456789abcdef".[Bits.to_int (Bits.Naive.slice a ~hi:(min (lo + 3) (w - 1)) ~lo)])

let naive_binary a =
  let w = Bits.width a in
  String.init w (fun i ->
      let k = w - 1 - i in
      if Bits.is_zero (Bits.Naive.slice a ~hi:k ~lo:k) then '0' else '1')

let gen_wide_bits =
  QCheck2.Gen.(
    oneof [ oneofl [ 1; 4; 31; 32; 33; 62; 63; 64; 65; 128; 300 ]; int_range 1 300 ]
    >>= gen_bits_of_width)

let gen_field =
  QCheck2.Gen.(
    gen_wide_bits >>= fun a ->
    let w = Bits.width a in
    int_range 1 (min 62 w) >>= fun fw ->
    int_range 0 (w - fw) >|= fun lo -> (a, lo, fw))

let string_properties =
  [
    QCheck2.Test.make ~count:500 ~name:"to_hex_string vs naive"
      ~print:Bits.to_string gen_wide_bits (fun a ->
        Bits.to_hex_string a = naive_hex a);
    QCheck2.Test.make ~count:500 ~name:"to_binary_string vs naive"
      ~print:Bits.to_string gen_wide_bits (fun a ->
        Bits.to_binary_string a = naive_binary a);
    QCheck2.Test.make ~count:500 ~name:"field_int vs naive slice"
      ~print:(fun (a, lo, w) -> Printf.sprintf "%s lo=%d w=%d" (Bits.to_string a) lo w)
      gen_field (fun (a, lo, w) ->
        Bits.field_int a ~lo ~w = Bits.to_int (Bits.Naive.slice a ~hi:(lo + w - 1) ~lo));
  ]

let test_field_int_bounds () =
  let v = Bits.ones 100 in
  List.iter
    (fun (lo, w) ->
      check_bool
        (Printf.sprintf "lo=%d w=%d rejected" lo w)
        true
        (match Bits.field_int v ~lo ~w with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (0, 0); (0, 63); (-1, 4); (97, 4); (100, 1) ];
  check_int "top 62 bits" ((1 lsl 62) - 1) (Bits.field_int v ~lo:38 ~w:62)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest string_properties
  @ [ Alcotest.test_case "field_int rejects out-of-range fields" `Quick test_field_int_bounds ]
