(* Tests for the structured tracing layer (Telemetry.Trace) and its
   Chrome-trace serialization (Trace_export): span-tree shape, the
   deterministic virtual clock, segment capture/rebase, the soft cap,
   per-domain track accounting under the campaign pool, byte-identity
   of virtual-clock exports across pool widths, the pinned golden
   trace, the reader-side validator's rejection of malformed input,
   and the checked-in bench baseline as that reader sees it. Every
   test restores the disabled default on exit. *)

module Telemetry = Fpga_telemetry.Telemetry
module Trace = Telemetry.Trace
module Trace_export = Fpga_telemetry.Trace_export
module Json = Fpga_telemetry.Json
module Campaign = Fpga_campaign.Campaign
module Registry = Fpga_testbed.Registry
module Simulator = Fpga_sim.Simulator
module Testbench = Fpga_sim.Testbench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Run [f] with tracing on (virtual clock unless overridden) and a
   clean buffer, then restore the disabled default even on failure. *)
let with_trace ?(clock = Trace.Virtual) ?cap f =
  Trace.enable ~clock ?cap ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.reset ();
      Trace.disable ())
    f

let phases seg = List.map (fun e -> e.Trace.te_ph) seg.Trace.sg_events
let bs seg = List.filter (fun e -> e.Trace.te_ph = 'B') seg.Trace.sg_events

(* --- recording: tree shape, clock, capture ------------------------- *)

let test_span_tree () =
  with_trace (fun () ->
      Trace.with_span ~cat:"phase" "root" (fun () ->
          Trace.with_span "left" (fun () -> Trace.instant "tick");
          Trace.with_span "right" (fun () -> Trace.counter "n" 7));
      let seg = Trace.capture_all () in
      Alcotest.(check (list char))
        "event order follows the recording"
        [ 'B'; 'B'; 'i'; 'E'; 'B'; 'C'; 'E'; 'E' ]
        (phases seg);
      let spans = bs seg in
      check_int "three spans" 3 (List.length spans);
      let by_name n =
        List.find (fun e -> e.Trace.te_name = n) spans
      in
      check_int "root is a tree root" (-1) (by_name "root").Trace.te_parent;
      check_int "left nests under root" (by_name "root").Trace.te_id
        (by_name "left").Trace.te_parent;
      check_int "right nests under root" (by_name "root").Trace.te_id
        (by_name "right").Trace.te_parent;
      check_bool "sibling ids differ" true
        ((by_name "left").Trace.te_id <> (by_name "right").Trace.te_id);
      check_string "category is recorded" "phase" (by_name "root").Trace.te_cat)

let test_virtual_clock () =
  with_trace (fun () ->
      Trace.with_span "a" (fun () -> Trace.instant "i");
      Trace.counter "c" 1;
      let seg = Trace.capture_all () in
      List.iteri
        (fun i e -> check_int "virtual timestamps tick by 1µs" i e.Trace.te_ts)
        seg.Trace.sg_events;
      (* a second identical recording produces the identical segment *)
      Trace.reset ();
      Trace.with_span "a" (fun () -> Trace.instant "i");
      Trace.counter "c" 1;
      check_bool "same recording, same segment" true
        (Trace.capture_all () = seg))

let test_capture_rebase () =
  with_trace (fun () ->
      Trace.with_span "before" (fun () -> ());
      let m = Trace.mark () in
      Trace.with_span "inside" (fun () -> Trace.instant "i");
      let seg = Trace.capture_since ~consume:true m in
      (match bs seg with
      | [ b ] ->
          check_int "ids rebase to 0 inside the slice" 0 b.Trace.te_id;
          check_int "a parent opened outside the slice maps to -1" (-1)
            b.Trace.te_parent;
          check_int "timestamps rebase to the slice origin" 0 b.Trace.te_ts
      | _ -> Alcotest.fail "expected exactly one B in the slice");
      check_int "consume truncates back to the mark" m (Trace.length ());
      (* the events before the mark are still there *)
      let all = Trace.capture_all () in
      check_int "pre-mark events survive the consume" m
        (List.length all.Trace.sg_events))

let test_span_closes_on_exception () =
  with_trace (fun () ->
      (try Trace.with_span "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      check_int "no span left open" 0 (Trace.depth ());
      Alcotest.(check (list char))
        "the failed span still closed" [ 'B'; 'E' ]
        (phases (Trace.capture_all ())))

let test_soft_cap () =
  with_trace ~cap:8 (fun () ->
      Trace.with_span "outer" (fun () ->
          for i = 1 to 50 do
            Trace.with_span "inner" (fun () -> Trace.counter "c" i)
          done);
      check_bool "events over the cap are counted" true (Trace.dropped () > 0);
      check_int "no span left open" 0 (Trace.depth ());
      let seg = Trace.capture_all () in
      let nb = List.length (bs seg) in
      let ne =
        List.length
          (List.filter (fun e -> e.Trace.te_ph = 'E') seg.Trace.sg_events)
      in
      check_int "every recorded span still closes" nb ne;
      (* the capped capture still exports to a valid trace *)
      let json =
        Trace_export.to_json ~clock:Trace.Virtual ~main:seg ~jobs:[] ()
      in
      match Trace_export.validate json with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("capped trace rejected: " ^ e))

(* A Telemetry.span call is a tree span of the trace; with tracing off
   it records nothing. *)
let test_span_feeds_trace () =
  Telemetry.disable ();
  Trace.disable ();
  Telemetry.span "cold" (fun () -> ());
  with_trace (fun () ->
      Telemetry.span "warm" (fun () -> ());
      let seg = Trace.capture_all () in
      match bs seg with
      | [ b ] ->
          check_string "span lands in the trace" "warm" b.Trace.te_name;
          check_string "under the span category" "span" b.Trace.te_cat
      | _ -> Alcotest.fail "expected exactly the one traced span");
  check_bool "nothing recorded while off" true
    ((Trace.capture_all ()).Trace.sg_events = [])

(* The simulator samples its counter series into the trace even when
   telemetry is off — tracing alone allocates the kernel stats. *)
let test_simulator_counter_series () =
  Telemetry.disable ();
  with_trace (fun () ->
      let sim =
        Testbench.of_source ~top:"top"
          {|
module top (input clk, input enable, output reg [7:0] count, output [7:0] next);
  assign next = count + 8'd1;
  always @(posedge clk) if (enable) count <= next;
endmodule
|}
      in
      Simulator.set_input_int sim "enable" 1;
      Simulator.run sim 100;
      let seg = Trace.capture_all () in
      let series =
        List.filter (fun e -> e.Trace.te_ph = 'C') seg.Trace.sg_events
        |> List.map (fun e -> e.Trace.te_name)
        |> List.sort_uniq compare
      in
      List.iter
        (fun name ->
          check_bool (name ^ " series sampled") true (List.mem name series))
        [ "sim.dirty"; "sim.evaluated" ])

(* --- pool accounting (the --jobs 4 regression) --------------------- *)

let small_bugs n =
  List.filteri (fun i _ -> i < n) Registry.all

let collect_b_ids json_text =
  match Json.parse json_text with
  | Json.Obj kvs -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Json.Arr evs) ->
          List.filter_map
            (function
              | Json.Obj f -> (
                  match
                    (List.assoc_opt "ph" f, List.assoc_opt "args" f)
                  with
                  | Some (Json.Str "B"), Some (Json.Obj a) -> (
                      match List.assoc_opt "id" a with
                      | Some (Json.Int x) -> Some x
                      | _ -> None)
                  | _ -> None)
              | _ -> None)
            evs
      | _ -> [])
  | _ -> []

let test_worker_tracks_and_ids () =
  with_trace ~clock:Trace.Wall (fun () ->
      let c = Campaign.run ~domains:4 ~differential:true (small_bugs 4) in
      let main = Trace.capture_all ~consume:true () in
      let jobs = Campaign.trace_segments c in
      check_int "one captured segment per job" 8 (List.length jobs);
      List.iter
        (fun (label, (seg : Trace.segment)) ->
          check_bool (label ^ " recorded events") true
            (seg.Trace.sg_events <> []);
          check_bool (label ^ " landed on a worker track (1..4)") true
            (seg.Trace.sg_track >= 1 && seg.Trace.sg_track <= 4))
        jobs;
      let json = Trace_export.to_json ~clock:Trace.Wall ~main ~jobs () in
      (match Trace_export.validate json with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("pool trace rejected: " ^ e));
      let ids = collect_b_ids json in
      check_int "global span ids are collision-free"
        (List.length ids)
        (List.length (List.sort_uniq compare ids)))

let export_campaign ~domains =
  with_trace (fun () ->
      let c = Campaign.run ~domains ~differential:true (small_bugs 3) in
      let main = Trace.capture_all ~consume:true () in
      Trace_export.to_json ~clock:Trace.Virtual ~main
        ~jobs:(Campaign.trace_segments c) ())

let test_virtual_export_pool_width_identity () =
  let t1 = export_campaign ~domains:1 in
  let t2 = export_campaign ~domains:2 in
  let t4 = export_campaign ~domains:4 in
  check_string "1 and 2 domains, identical bytes" t1 t2;
  check_string "1 and 4 domains, identical bytes" t1 t4;
  match Trace_export.validate t4 with
  | Ok s -> check_bool "spans recorded" true (s.Trace_export.v_spans > 0)
  | Error e -> Alcotest.fail ("campaign trace rejected: " ^ e)

(* The fuzz campaign's export too. Each export starts on a cold base
   memo, so the run that computes a target's base differs with the pool
   width: the memo must be shared by every domain and record nothing. *)
let export_fuzz ~domains =
  Fpga_fuzz.Fuzz.clear_base_memo ();
  with_trace (fun () ->
      let fc = Campaign.run_fuzz ~domains ~seed:1 ~mutants:50 () in
      let main = Trace.capture_all ~consume:true () in
      Trace_export.to_json ~clock:Trace.Virtual ~main
        ~jobs:(Campaign.fuzz_trace_segments fc) ())

let test_virtual_fuzz_export_pool_width_identity () =
  let t1 = export_fuzz ~domains:1 in
  let t2 = export_fuzz ~domains:2 in
  let t4 = export_fuzz ~domains:4 in
  check_string "1 and 2 domains, identical bytes" t1 t2;
  check_string "1 and 4 domains, identical bytes" t1 t4;
  match Trace_export.validate t4 with
  | Ok s -> check_bool "spans recorded" true (s.Trace_export.v_spans > 0)
  | Error e -> Alcotest.fail ("fuzz trace rejected: " ^ e)

(* --- export: golden trace and the validator ------------------------ *)

let golden =
  {|{
  "schema": "fpga-debug-trace/1",
  "clock": "virtual",
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": "fpga-debug"}},
    {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "main"}},
    {"ph": "B", "pid": 1, "tid": 0, "ts": 0, "name": "parse", "cat": "phase", "args": {"id": 0, "parent": -1}},
    {"ph": "i", "pid": 1, "tid": 0, "ts": 1, "name": "go", "cat": "mark", "s": "t"},
    {"ph": "E", "pid": 1, "tid": 0, "ts": 2},
    {"ph": "C", "pid": 1, "tid": 0, "ts": 3, "name": "dirty", "args": {"value": 3}}
  ]
}
|}

let test_golden_trace () =
  with_trace (fun () ->
      Trace.with_span ~cat:"phase" "parse" (fun () -> Trace.instant "go");
      Trace.counter "dirty" 3;
      let main = Trace.capture_all () in
      let json = Trace_export.to_json ~clock:Trace.Virtual ~main ~jobs:[] () in
      check_string "pinned byte-for-byte" golden json;
      match Trace_export.validate json with
      | Ok s ->
          check_int "events" 6 s.Trace_export.v_events;
          check_int "spans" 1 s.Trace_export.v_spans;
          check_int "counters" 1 s.Trace_export.v_counters;
          check_int "instants" 1 s.Trace_export.v_instants
      | Error e -> Alcotest.fail ("golden trace rejected: " ^ e))

let rejected name text =
  match Trace_export.validate text with
  | Ok _ -> Alcotest.fail (name ^ ": malformed input accepted")
  | Error _ -> ()

let test_validator_rejects_malformed () =
  rejected "not json" "{";
  rejected "trailing garbage" "{}x";
  rejected "not an object" "[1, 2]";
  rejected "missing schema" {|{"traceEvents": []}|};
  rejected "wrong schema"
    {|{"schema": "fpga-debug-trace/999", "traceEvents": []}|};
  rejected "traceEvents not an array"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": 3}|};
  rejected "event missing ph"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"pid": 1, "tid": 0}]}|};
  rejected "unsupported phase"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "X", "pid": 1, "tid": 0}]}|};
  rejected "non-integer tid"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "B", "pid": 1, "tid": 0.5, "ts": 0, "name": "x"}]}|};
  rejected "negative ts"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "i", "pid": 1, "tid": 0, "ts": -1, "name": "x"}]}|};
  rejected "B without a name"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "B", "pid": 1, "tid": 0, "ts": 0}, {"ph": "E", "pid": 1, "tid": 0, "ts": 1}]}|};
  rejected "E without an open B"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "E", "pid": 1, "tid": 0, "ts": 0}]}|};
  rejected "unbalanced B"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "B", "pid": 1, "tid": 0, "ts": 0, "name": "x"}]}|};
  rejected "E before its B"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "B", "pid": 1, "tid": 0, "ts": 5, "name": "x"}, {"ph": "E", "pid": 1, "tid": 0, "ts": 2}]}|};
  (* E on another track is not a close of this track's B *)
  rejected "balance is per track"
    {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "B", "pid": 1, "tid": 0, "ts": 0, "name": "x"}, {"ph": "E", "pid": 1, "tid": 1, "ts": 1}]}|};
  (* numbers and \u escapes outside the JSON grammar, in a member the
     validator does not otherwise look at *)
  List.iter
    (fun bad ->
      rejected ("not JSON: " ^ bad)
        (Printf.sprintf
           {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "M", "pid": 1, "tid": 0, "args": {"v": %s}}]}|}
           bad))
    [ "+1"; "01"; "1."; ".5"; {|"x\u00_4"|} ];
  (* and a well-formed minimal trace is accepted *)
  match
    Trace_export.validate
      {|{"schema": "fpga-debug-trace/1", "traceEvents": [{"ph": "B", "pid": 1, "tid": 0, "ts": 0, "name": "x"}, {"ph": "E", "pid": 1, "tid": 0, "ts": 1}]}|}
  with
  | Ok s -> check_int "minimal trace: one span" 1 s.Trace_export.v_spans
  | Error e -> Alcotest.fail ("minimal trace rejected: " ^ e)

(* Random span trees: whatever shape the recording takes, the export
   validates and the validator's span count matches the recording's. *)
let prop_random_trees_export_valid =
  QCheck2.Test.make ~count:50 ~name:"random span trees export valid traces"
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 1000))
    (fun ops ->
      Trace.enable ~clock:Trace.Virtual ();
      Trace.reset ();
      Fun.protect
        ~finally:(fun () ->
          Trace.reset ();
          Trace.disable ())
        (fun () ->
          let spans = ref 0 in
          let rec emit depth n =
            if n land 1 = 0 || depth >= 4 then
              if n land 3 = 0 then Trace.instant "i" else Trace.counter "c" n
            else (
              incr spans;
              Trace.with_span "s" (fun () -> emit (depth + 1) (n lsr 1)))
          in
          List.iter (emit 0) ops;
          let main = Trace.capture_all () in
          let json =
            Trace_export.to_json ~clock:Trace.Virtual ~main ~jobs:[] ()
          in
          match Trace_export.validate json with
          | Ok s -> s.Trace_export.v_spans = !spans
          | Error _ -> false))

(* --- the checked-in bench baseline --------------------------------- *)

(* [bench/main.exe --baseline] reads BENCH_baseline.json with this
   reader and compares each design's speedup and each Bits op's ratio;
   a hand edit the bench would misread fails here, not only in CI. *)
let test_bench_baseline_ratios () =
  let json =
    Json.parse
      (In_channel.with_open_bin "../BENCH_baseline.json" In_channel.input_all)
  in
  check_string "schema" "fpga-debug-bench/13"
    (match Json.member "schema" json with Some (Json.Str s) -> s | _ -> "none");
  List.iter
    (fun (section, key, ratio) ->
      match Json.member section json with
      | Some (Json.Arr (_ :: _ as entries)) ->
          List.iter
            (fun e ->
              match (Json.member key e, Json.member ratio e) with
              | Some (Json.Str _), Some (Json.Num r)
                when Float.is_finite r && r > 0.0 ->
                  ()
              | Some (Json.Str name), _ ->
                  Alcotest.failf "%s entry %s has no positive, finite %S"
                    section name ratio
              | _ -> Alcotest.failf "%s entry without a %S" section key)
            entries
      | _ -> Alcotest.failf "baseline has no %s entries" section)
    [ ("designs", "id", "speedup"); ("bits_ops", "op", "ratio") ]

let suite =
  [
    Alcotest.test_case "spans form a tree with stable ids" `Quick
      test_span_tree;
    Alcotest.test_case "virtual clock ticks deterministically" `Quick
      test_virtual_clock;
    Alcotest.test_case "capture_since rebases a self-contained slice" `Quick
      test_capture_rebase;
    Alcotest.test_case "spans close on exception" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "soft cap drops but never unbalances" `Quick
      test_soft_cap;
    Alcotest.test_case "Telemetry.span feeds the trace tree" `Quick
      test_span_feeds_trace;
    Alcotest.test_case "simulator samples counter series while tracing" `Quick
      test_simulator_counter_series;
    Alcotest.test_case "worker spans land on their domain's track, ids \
                        collision-free (jobs 4)" `Quick
      test_worker_tracks_and_ids;
    Alcotest.test_case "virtual export byte-identical across pool widths"
      `Quick test_virtual_export_pool_width_identity;
    Alcotest.test_case "virtual fuzz export byte-identical across pool widths"
      `Quick test_virtual_fuzz_export_pool_width_identity;
    Alcotest.test_case "golden trace pinned byte-for-byte" `Quick
      test_golden_trace;
    Alcotest.test_case "validator rejects malformed input" `Quick
      test_validator_rejects_malformed;
    QCheck_alcotest.to_alcotest prop_random_trees_export_valid;
    Alcotest.test_case "checked-in bench baseline carries positive ratios"
      `Quick test_bench_baseline_ratios;
  ]
