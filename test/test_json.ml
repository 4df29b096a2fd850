(* Tests for the one JSON module (Fpga_telemetry.Json): printing and
   reading back any value, the reader's RFC 8259 strictness, number
   text, and the shared layout of every library report writer. *)

module Json = Fpga_telemetry.Json
module Telemetry = Fpga_telemetry.Telemetry
module Trace = Telemetry.Trace
module Trace_export = Fpga_telemetry.Trace_export
module Campaign = Fpga_campaign.Campaign
module Profile = Fpga_report.Profile
module Registry = Fpga_testbed.Registry
module Simulator = Fpga_sim.Simulator

let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length sub and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- round trip ----------------------------------------------------- *)

(* Values with finite numbers and arbitrary byte strings (control
   bytes and bytes >= 0x80 included), keys too. *)
let gen_value =
  let open QCheck2.Gen in
  let bytes = string_size ~gen:char (int_range 0 12) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Num f) finite;
        map (fun s -> Json.Str s) bytes;
      ]
  in
  let value =
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun vs -> Json.Arr vs) (list_size (int_range 0 4) (self (depth - 1)));
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 4) (pair bytes (self (depth - 1))));
            ])
      3
  in
  (* reports are top-level objects whose members are often arrays of
     objects: give the one-per-line layouts their share of cases *)
  let row = map (fun kvs -> Json.Obj kvs) (list_size (int_range 0 3) (pair bytes leaf)) in
  let member = oneof [ value; map (fun rs -> Json.Arr rs) (list_size (int_range 0 3) row) ] in
  oneof [ value; map (fun kvs -> Json.Obj kvs) (list_size (int_range 0 5) (pair bytes member)) ]

let prop_round_trip =
  QCheck2.Test.make ~count:500 ~name:"parse (to_string v) = v"
    ~print:Json.to_string gen_value (fun v -> Json.parse (Json.to_string v) = v)

(* --- reader strictness ---------------------------------------------- *)

let test_reader_rejects () =
  List.iter
    (fun text ->
      match Json.parse text with
      | exception Json.Bad_json msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error names a byte offset" text)
            true
            (contains msg "at byte ")
      | _ -> Alcotest.failf "%S accepted" text)
    [
      "+1"; "01"; "-01"; "1."; ".5"; "-"; "1e"; "1e+"; "0x10"; "1_000";
      "NaN"; "Infinity"; {|"\u00_4"|}; {|"\u12"|}; {|"\u+123"|}; {|"\x"|};
      "\"a\nb\""; "[1,]"; "{\"a\" 1}"; "[1 2]"; "tru"; "";
    ]

let test_reader_accepts () =
  let cases =
    [
      ("0", Json.Int 0);
      ("-0", Json.Int 0);
      ("-12", Json.Int (-12));
      ("4611686018427387903", Json.Int max_int);
      ("4611686018427387904", Json.Num 4611686018427387904.0);
      ("1.5", Json.Num 1.5);
      ("1.0", Json.Num 1.0);
      ("-0.25e2", Json.Num (-25.0));
      ("1E3", Json.Num 1000.0);
      ({|"\u00e9\u20AC\/"|}, Json.Str "\xc3\xa9\xe2\x82\xac/");
      ({|"\ud800x"|}, Json.Str "\xef\xbf\xbdx");
      ( {| {"a": [true, false, null], "a": {}} |},
        Json.Obj
          [ ("a", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]); ("a", Json.Obj []) ] );
    ]
  in
  List.iter
    (fun (text, want) ->
      if Json.parse text <> want then Alcotest.failf "%S misread" text)
    cases;
  Alcotest.(check bool)
    "member finds the first" true
    (Json.member "a" (Json.parse {|{"a": 1, "a": 2}|}) = Some (Json.Int 1))

(* --- printer -------------------------------------------------------- *)

let test_number_text () =
  List.iter
    (fun (v, want) -> check_string want want (String.trim (Json.to_string v)))
    [
      (Json.fixed 4 0.025, "0.025");
      (Json.fixed 4 1.0, "1.0");
      (Json.fixed 2 3.14159, "3.14");
      (Json.fixed 6 0.0000251, "2.5e-05");
      (Json.Num 0.1, "0.1");
      (Json.Num (-0.0), "-0.0");
      (Json.Num 1e300, "1e+300");
      (Json.Num Float.nan, "null");
      (Json.Num Float.infinity, "null");
      (Json.Int max_int, "4611686018427387903");
      (Json.Str "q\"b\\n\nt\tc\001\x7f\xff", {|"q\"b\\n\nt\tc\u0001|} ^ "\x7f\xff\"");
    ]

let test_layout () =
  check_string "layout"
    {|{
  "a": 1,
  "rows": [
    {"x": [1, 2], "y": {"z": null}},
    {}
  ],
  "none": [
  ],
  "ints": [1, 2],
  "obj": {"k": "v", "e": [], "o": {}}
}
|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int 1);
            ( "rows",
              Json.Arr
                [
                  Json.Obj
                    [
                      ("x", Json.Arr [ Json.Int 1; Json.Int 2 ]);
                      ("y", Json.Obj [ ("z", Json.Null) ]);
                    ];
                  Json.Obj [];
                ] );
            ("none", Json.Arr []);
            ("ints", Json.Arr [ Json.Int 1; Json.Int 2 ]);
            ( "obj",
              Json.Obj [ ("k", Json.Str "v"); ("e", Json.Arr []); ("o", Json.Obj []) ] );
          ]))

(* --- every writer shares the one layout ----------------------------- *)

let reprinted name text =
  check_string (name ^ " reprints byte for byte") text
    (Json.to_string (Json.parse text))

let test_writers_share_layout () =
  let d2 = Option.get (Registry.find "D2") in
  reprinted "campaign"
    (Campaign.to_json (Campaign.run ~domains:1 ~differential:true [ d2 ]));
  reprinted "fuzz"
    (Campaign.fuzz_to_json (Campaign.run_fuzz ~domains:1 ~seed:2 ~mutants:4 ()));
  List.iter
    (fun kernel ->
      reprinted
        ("profile " ^ Simulator.kernel_name kernel)
        (Profile.to_json (Profile.run ~kernel ~cycles:50 d2));
      Telemetry.reset ())
    [ Simulator.Lowered_dirty; Simulator.Brute_force ];
  Trace.enable ~clock:Trace.Virtual ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.reset ();
      Trace.disable ())
    (fun () ->
      reprinted "empty trace"
        (Trace_export.to_json ~clock:Trace.Virtual ~main:(Trace.capture_all ())
           ~jobs:[] ());
      Trace.with_span "s" (fun () ->
          Trace.instant "i";
          Trace.counter "c" 3);
      reprinted "trace"
        (Trace_export.to_json ~clock:Trace.Virtual ~main:(Trace.capture_all ())
           ~jobs:[] ()))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_round_trip;
    Alcotest.test_case "reader rejects what RFC 8259 does" `Quick
      test_reader_rejects;
    Alcotest.test_case "reader accepts and decodes JSON" `Quick
      test_reader_accepts;
    Alcotest.test_case "number and string text" `Quick test_number_text;
    Alcotest.test_case "one layout rule" `Quick test_layout;
    Alcotest.test_case "every report writer reprints byte for byte" `Quick
      test_writers_share_layout;
  ]
