(* Tests for the telemetry core (counters, spans), the
   simulator's kernel-profiling integration, and the profile report. Every test that enables telemetry restores the disabled
   default on exit so the rest of the suite keeps the zero-cost path. *)

open Fpga_sim
module Bits = Fpga_bits.Bits
module Telemetry = Fpga_telemetry.Telemetry
module Trace = Telemetry.Trace
module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let b w v = Bits.of_int ~width:w v
let sim_of src top = Testbench.of_source ~top src

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* Run [f] with telemetry enabled and a clean slate, then restore the
   disabled default (flag, contents) even on failure. *)
let with_telemetry f =
  Telemetry.enable ();
  Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.disable ())
    f

(* --- core: counters, spans ------------------------------------------ *)

let test_counter_gating () =
  let c = Telemetry.Counter.make "test.gating" in
  Telemetry.disable ();
  Telemetry.Counter.bump c 5;
  Telemetry.Counter.incr c;
  check_int "disabled bumps are no-ops" 0 (Telemetry.Counter.value c);
  with_telemetry (fun () ->
      Telemetry.Counter.bump c 5;
      Telemetry.Counter.incr c;
      check_int "enabled bumps count" 6 (Telemetry.Counter.value c);
      (* handles are name-keyed: a second handle for the same name reads
         and writes the same per-domain cell *)
      let c' = Telemetry.Counter.make "test.gating" in
      check_int "same name reads the same cell" 6 (Telemetry.Counter.value c');
      Telemetry.Counter.incr c';
      check_int "same name writes the same cell" 7 (Telemetry.Counter.value c));
  check_int "reset zeroes the counter" 0 (Telemetry.Counter.value c)

(* The category-"span" 'B' events named [name] in [sg]. *)
let span_begins (sg : Trace.segment) name =
  List.length
    (List.filter
       (fun (e : Trace.event) ->
         e.te_ph = 'B' && e.te_cat = "span" && e.te_name = name)
       sg.Trace.sg_events)

let test_span () =
  with_telemetry (fun () ->
      check_int "span returns the result" 42
        (Telemetry.span "test.span" (fun () -> 41 + 1));
      check_int "nothing recorded while tracing is off" 0 (Trace.length ()));
  Trace.enable ~clock:Trace.Virtual ();
  Fun.protect
    ~finally:(fun () ->
      Trace.reset ();
      Trace.disable ())
  @@ fun () ->
  let r = Telemetry.span "test.span" (fun () -> 41 + 1) in
  check_int "span returns the result" 42 r;
  ignore (Telemetry.span "test.span" Fun.id);
  (try Telemetry.span "test.span" (fun () -> failwith "boom")
   with Failure _ -> ());
  check_int "three calls traced (exception included)" 3
    (span_begins (Trace.capture_all ()) "test.span");
  check_int "every span closed" 0 (Trace.depth ())

(* --- simulator integration ----------------------------------------- *)

let counter_src =
  {|
module top (input clk, input enable, output reg [7:0] count, output [7:0] next);
  assign next = count + 8'd1;
  always @(posedge clk) if (enable) count <= next;
endmodule
|}

(* Both kernels fill the one counter record, in the same units on this
   design (one node, one closure): the brute-force sweep evaluates every
   round, the lowered kernel at most that, and it queues no more
   non-blocking writes, as it skips clean statement groups. *)
let test_one_record () =
  let run kernel =
    let sim = Testbench.of_source ~kernel ~top:"top" counter_src in
    Simulator.set_input sim "enable" (b 1 1);
    Simulator.run sim 8;
    Simulator.set_input sim "enable" (b 1 0);
    Simulator.run sim 8;
    Simulator.stats sim
  in
  let bf = run Simulator.Brute_force and ld = run Simulator.Lowered_dirty in
  let rounds (r : Lowered.run_stats) = r.rs_closures_run + r.rs_closures_skipped in
  let commits (r : Lowered.run_stats) = r.rs_commit_imm + r.rs_commit_boxed in
  check_int "steps agree" bf.rs_steps ld.rs_steps;
  check_int "settles agree" bf.rs_settles ld.rs_settles;
  check_int "node rounds agree" (rounds bf) (rounds ld);
  check_int "displays agree" bf.rs_displays ld.rs_displays;
  check_int "brute evaluates every round" (rounds bf) bf.rs_closures_run;
  check_bool "lowered evaluates at most every round" true
    (ld.rs_closures_run <= rounds ld);
  check_bool "lowered commits at most what brute does" true
    (commits ld <= commits bf)

let test_stats_gating () =
  Telemetry.disable ();
  let sim = sim_of counter_src "top" in
  Simulator.run sim 5;
  let st = Simulator.stats sim in
  check_int "steps counted with telemetry off" 5 st.rs_steps;
  check_int "settles counted with telemetry off" 10 st.rs_settles;
  check_bool "no toggle counts" true (Simulator.toggle_counts sim = [])

let test_stats_and_hottest () =
  with_telemetry (fun () ->
      let sim = sim_of counter_src "top" in
      Simulator.set_input sim "enable" (b 1 1);
      Simulator.run sim 8;
      let st = Simulator.stats sim in
      check_int "steps" 8 st.rs_steps;
      check_int "two settles per cycle" 16 st.rs_settles;
      check_bool "min <= max closures per settle" true
        (st.rs_run_min <= st.rs_run_max);
      check_bool "count register commits each cycle" true
        (st.rs_commit_imm + st.rs_commit_boxed >= 8);
      let eff = Option.get (Simulator.kernel_efficiency sim) in
      check_bool "efficiency in (0,1]" true (eff > 0.0 && eff <= 1.0);
      let hottest = Simulator.hottest_signals ~k:2 sim in
      check_int "top-k limit respected" 2 (List.length hottest);
      check_bool "count and next are the hot signals" true
        (List.mem_assoc "count" hottest && List.mem_assoc "next" hottest))

(* Each domain records into its own sink: worker bumps never land in
   the parent's counters, and the pool-side merge sums reports. *)
let test_domain_isolation () =
  with_telemetry (fun () ->
      let c = Telemetry.Counter.make "test.domains" in
      Telemetry.Counter.bump c 2;
      let worker =
        Domain.spawn (fun () ->
            (* inherited: the enabled flag; not inherited: the counts *)
            check_bool "worker inherits the enabled flag" true
              (Telemetry.enabled ());
            check_int "worker starts with an empty sink" 0
              (Telemetry.Counter.value c);
            Telemetry.Counter.bump c 5;
            Telemetry.report ())
      in
      let wr = Domain.join worker in
      check_int "worker bumps stay out of the parent sink" 2
        (Telemetry.Counter.value c);
      let merged = Telemetry.merge (Telemetry.report ()) wr in
      check_int "merge sums counters across sinks" 7
        (List.assoc "test.domains" merged.Telemetry.r_counters))

let display_src =
  {|
module top (input clk, output reg [31:0] n);
  always @(posedge clk) begin
    n <= n + 32'd1;
    $display("n=%d", n);
  end
endmodule
|}

(* Satellite (b): reading the log repeatedly must not re-reverse the
   whole history each time. 100 reads over a log growing to 10k entries
   finishes far inside the budget; the pre-fix quadratic append showed
   up at this scale. *)
let test_log_linear () =
  Telemetry.disable ();
  let sim = sim_of display_src "top" in
  let t0 = Sys.time () in
  for _ = 1 to 100 do
    Simulator.run sim 100;
    ignore (Simulator.log sim)
  done;
  let l = Simulator.log sim in
  check_int "10k displays logged" 10_000 (List.length l);
  check_int "oldest entry first" 0 (fst (List.hd l));
  check_bool "repeated reads return the memoized list" true
    (Simulator.log sim == l);
  check_bool "10k displays with repeated reads stay fast" true
    (Sys.time () -. t0 < 5.0)

(* Acceptance: the kernels stay byte-identical with telemetry enabled
   (the instrumented settle loop must not change scheduling). *)
let test_kernels_identical_with_telemetry () =
  with_telemetry (fun () ->
      let bug = Option.get (Registry.find "D2") in
      let run kernel =
        let design = Bug.design_of bug ~buggy:true in
        let sim = Testbench.of_design ~kernel ~top:bug.Bug.top design in
        for i = 0 to 199 do
          List.iter
            (fun (n, v) -> Simulator.set_input sim n v)
            (bug.Bug.stimulus i);
          Simulator.step sim
        done;
        Simulator.log sim
      in
      check_bool "lowered-dirty log == brute-force log, telemetry on" true
        (run Simulator.Lowered_dirty = run Simulator.Brute_force))

(* --- monitors count what they decode --------------------------------- *)

let counter_value name =
  Option.value ~default:0
    (List.assoc_opt name (Telemetry.report ()).Telemetry.r_counters)

let test_losscheck_publishes () =
  with_telemetry (fun () ->
      let log =
        [
          (3, "[LOSSCHECK] potential data loss at r1");
          (5, "[LOSSCHECK] potential data loss at r2");
        ]
      in
      let al = Fpga_debug.Losscheck.alarms log in
      Alcotest.(check (list (pair int string)))
        "alarms decoded" [ (3, "r1"); (5, "r2") ] al;
      check_int "one count per alarm" 2 (counter_value "losscheck.alarms");
      (* alarm_registers decodes without counting a second time *)
      ignore (Fpga_debug.Losscheck.alarm_registers log);
      check_int "decoded once, counted once" 2
        (counter_value "losscheck.alarms"))

let test_dep_monitor_publishes () =
  with_telemetry (fun () ->
      let design =
        Fpga_hdl.Parser.parse_design
          {|
module top (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d;
endmodule
|}
      in
      let m = Option.get (Fpga_hdl.Ast.find_module design "top") in
      let plan = Fpga_debug.Dep_monitor.analyze ~target:"q" ~cycles:4 m in
      let log = [ (7, "[DEP] q = 42") ] in
      let us = Fpga_debug.Dep_monitor.updates plan log in
      check_int "update decoded" 1 (List.length us);
      check_int "dep_monitor.updates counts the update" 1
        (counter_value "dep_monitor.updates");
      (* a log with no updates leaves no zero-valued counter behind *)
      Telemetry.reset ();
      ignore (Fpga_debug.Dep_monitor.updates plan []);
      check_bool "no counter for an empty decode" false
        (List.mem_assoc "dep_monitor.updates"
           (Telemetry.report ()).Telemetry.r_counters))

(* --- profile report -------------------------------------------------- *)

let test_profile_json () =
  let bug = Option.get (Registry.find "D2") in
  let p = Fpga_report.Profile.run ~cycles:200 bug in
  Telemetry.reset ();
  check_int "ran the requested cycles" 200 p.Fpga_report.Profile.p_cycles_run;
  check_bool "telemetry restored to disabled" false (Telemetry.enabled ());
  check_bool "elaborate phase recorded" true
    (List.exists (fun (n, _, _) -> n = "elaborate")
       p.Fpga_report.Profile.p_spans);
  let json = Fpga_report.Profile.to_json p in
  List.iter
    (fun key -> check_bool key true (contains json key))
    [
      "\"schema\": \"fpga-debug-profile/5\"";
      "\"kernel_stats\"";
      "\"kernel_efficiency\"";
      "\"nodes_skipped\"";
      "\"settle_rounds\"";
      "\"hottest_signals\"";
      "\"phases\"";
      "\"counters\"";
      (* lowered section: the default kernel is the lowered one *)
      "\"lowered\"";
      "\"closures_run\"";
      "\"skip_rate\"";
      "\"seq_groups_run\"";
      "\"seq_skip_rate\"";
      "\"commit_per_edge\"";
    ];
  check_bool "hottest signals present" true
    (p.Fpga_report.Profile.p_hottest <> [])

(* Profile's phases are read from the trace: with the caller tracing on
   the virtual clock, the table's names and call counts are the
   category-"span" 'B' events the run leaves in the caller's buffer. *)
let test_profile_reads_trace () =
  let bug = Option.get (Registry.find "D2") in
  Trace.enable ~clock:Trace.Virtual ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Trace.reset ();
      Trace.disable ())
  @@ fun () ->
  let p = Fpga_report.Profile.run ~cycles:200 bug in
  check_bool "tracing still on" true (Trace.enabled ());
  let sg = Trace.capture_all () in
  let names =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Trace.event) ->
           if e.te_ph = 'B' && e.te_cat = "span" then Some e.te_name else None)
         sg.Trace.sg_events)
  in
  check_bool "the run's spans stay buffered" true (names <> []);
  Alcotest.(check (list (pair string int)))
    "phases are the traced spans"
    (List.map (fun n -> (n, span_begins sg n)) names)
    (List.map (fun (n, calls, _) -> (n, calls)) p.Fpga_report.Profile.p_spans);
  check_bool "virtual seconds count whole ticks" true
    (List.for_all
       (fun (_, _, secs) ->
         secs > 0.0 && Float.is_integer (Float.round (secs *. 1e6)))
       p.Fpga_report.Profile.p_spans)

(* Untraced, the profile traces its own run and leaves both switches
   off and the trace buffer empty. *)
let test_profile_untraced () =
  let bug = Option.get (Registry.find "D2") in
  let p = Fpga_report.Profile.run ~cycles:20 bug in
  Telemetry.reset ();
  check_bool "phases recorded" true (p.Fpga_report.Profile.p_spans <> []);
  check_bool "telemetry off" false (Telemetry.enabled ());
  check_bool "tracing off" false (Trace.enabled ());
  check_int "trace buffer empty" 0 (Trace.length ())

(* The counter sections of D2's profile under each kernel, pinned byte
   for byte: a change to how either kernel counts its work shows here.
   Each depth-1 object is one line of the report, split here only to
   keep the source readable. *)
let golden_d2_lowered =
  String.concat ""
    [
      {|  "kernel_stats": {"steps": 200, "settles": 400, |};
      {|"node_rounds": 1200, "nodes_evaluated": 30, "nodes_skipped": 1170, |};
      {|"kernel_efficiency": 0.025, |};
      {|"dirty_total": 30, "dirty_peak": 3, |};
      {|"nba_commits": 162, "prim_steps": 0, "displays": 0},
|};
      {|  "lowered": {"closures": 3, "fused": 0, |};
      {|"imm_signals": 18, "boxed_signals": 1, "seq_blocks": 1, |};
      {|"settles": 400, "closures_run": 30, "closures_skipped": 1170, |};
      {|"skip_rate": 0.975, |};
      {|"seq_groups_run": 38, "seq_groups_skipped": 162, |};
      {|"seq_skip_rate": 0.81, |};
      {|"edge_runs": 200, "commit_imm": 138, "commit_boxed": 24, |};
      {|"commit_per_edge": 0.81},
|};
      {|  "settle_rounds": {"count": 400, "min": 0, "max": 3, "mean": 0.07},
|};
      {|  "hottest_signals": [
    {"signal": "gray", "toggles": 24},
    {"signal": "in_rgb", "toggles": 24},
    {"signal": "linebuf", "toggles": 24},
    {"signal": "rd_count", "toggles": 24},
    {"signal": "wptr", "toggles": 24},
    {"signal": "out_valid", "toggles": 16},
    {"signal": "out_gray", "toggles": 8},
    {"signal": "rptr", "toggles": 8},
    {"signal": "wr_count", "toggles": 8},
    {"signal": "in_valid", "toggles": 2}
  ],
|};
    ]

let golden_d2_brute =
  String.concat ""
    [
      {|  "kernel_stats": {"steps": 200, "settles": 400, |};
      {|"node_rounds": 1200, "nodes_evaluated": 1200, "nodes_skipped": 0, |};
      {|"kernel_efficiency": 1.0, |};
      {|"dirty_total": 1200, "dirty_peak": 3, |};
      {|"nba_commits": 486, "prim_steps": 0, "displays": 0},
|};
      {|  "settle_rounds": {"count": 400, "min": 3, "max": 3, "mean": 3.0},
|};
      {|  "hottest_signals": [
    {"signal": "gray", "toggles": 24},
    {"signal": "in_rgb", "toggles": 24},
    {"signal": "linebuf", "toggles": 24},
    {"signal": "rd_count", "toggles": 24},
    {"signal": "wptr", "toggles": 24},
    {"signal": "out_valid", "toggles": 16},
    {"signal": "out_gray", "toggles": 8},
    {"signal": "rptr", "toggles": 8},
    {"signal": "wr_count", "toggles": 8},
    {"signal": "in_valid", "toggles": 2}
  ],
|};
    ]

let test_profile_golden () =
  let bug = Option.get (Registry.find "D2") in
  let sections kernel =
    let json =
      Fpga_report.Profile.to_json (Fpga_report.Profile.run ~kernel ~cycles:200 bug)
    in
    Telemetry.reset ();
    let find key =
      let rec go i =
        if String.sub json i (String.length key) = key then i else go (i + 1)
      in
      go 0
    in
    let first = find "  \"kernel_stats\"" in
    String.sub json first (find "  \"counters\"" - first)
  in
  Alcotest.(check string) "lowered-dirty" golden_d2_lowered
    (sections Simulator.Lowered_dirty);
  Alcotest.(check string) "brute" golden_d2_brute (sections Simulator.Brute_force)

let suite =
  [
    Alcotest.test_case "counter gating on the global switch" `Quick
      test_counter_gating;
    Alcotest.test_case "one counter record for both kernels" `Quick
      test_one_record;
    Alcotest.test_case "span records calls and survives exceptions" `Quick
      test_span;
    Alcotest.test_case "no stats allocated when disabled" `Quick
      test_stats_gating;
    Alcotest.test_case "kernel stats, hottest signals, step events" `Quick
      test_stats_and_hottest;
    Alcotest.test_case "per-domain sinks isolate and merge" `Quick
      test_domain_isolation;
    Alcotest.test_case "10k-display log reads stay linear-ish" `Quick
      test_log_linear;
    Alcotest.test_case "kernels byte-identical with telemetry on" `Quick
      test_kernels_identical_with_telemetry;
    Alcotest.test_case "losscheck alarms publish once" `Quick
      test_losscheck_publishes;
    Alcotest.test_case "dep monitor updates publish" `Quick
      test_dep_monitor_publishes;
    Alcotest.test_case "profile JSON schema and drop accounting" `Quick
      test_profile_json;
    Alcotest.test_case "profile phases equal the traced spans" `Quick
      test_profile_reads_trace;
    Alcotest.test_case "untraced profile leaves tracing off and empty" `Quick
      test_profile_untraced;
    Alcotest.test_case "golden profile counters for D2" `Quick
      test_profile_golden;
  ]
