(* Unit tests for the five debugging tools (lib/core), including the
   paper's running examples and SignalCat's simulation/on-FPGA log
   equivalence property. *)

open Fpga_hdl
open Fpga_debug
module Bits = Fpga_bits.Bits
module Simulator = Fpga_sim.Simulator
module Testbench = Fpga_sim.Testbench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let b = Bits.of_int

(* --- SignalCat --------------------------------------------------------- *)

let traced_counter =
  {|
module top (input clk, input enable, output reg [7:0] n);
  always @(posedge clk) begin
    if (enable) begin
      n <= n + 8'd1;
      if (n[1:0] == 2'd3) $display("n about to wrap nibble: %d", n);
      if (n == 8'd5) $display("five seen (hex %h)", n);
    end
  end
endmodule
|}

let toggle_stimulus cycle = [ ("enable", b ~width:1 (if cycle mod 3 = 2 then 0 else 1)) ]

let test_signalcat_analyze () =
  let m = Parser.parse_module traced_counter in
  let plan = Signalcat.analyze ~buffer_depth:1024 m in
  check_int "two statements" 2 (List.length plan.Signalcat.statements);
  (* entry = 32-bit cycle + 2 constraint bits + two 8-bit arguments *)
  check_int "entry width" (32 + 2 + 16) plan.Signalcat.entry_width;
  check_bool "instrumentation adds code" true
    (Signalcat.generated_loc plan m > 0)

let test_signalcat_equivalence () =
  let design = Parser.parse_design traced_counter in
  let log mode =
    Signalcat.run_and_log ~buffer_depth:1024 ~max_cycles:40 ~mode ~top:"top"
      design toggle_stimulus
  in
  let sim_log = log Signalcat.Simulation in
  let fpga_log = log Signalcat.On_fpga in
  check_bool "log not empty" true (sim_log <> []);
  Alcotest.(check (list (pair int string))) "unified logs" sim_log fpga_log

let test_signalcat_ring_buffer () =
  (* when the trace overflows the buffer, the reconstruction keeps the
     most recent entries, like a SignalTap ring *)
  let design = Parser.parse_design traced_counter in
  let sim_log =
    Signalcat.run_and_log ~buffer_depth:1024 ~max_cycles:200 ~mode:Signalcat.Simulation
      ~top:"top" design toggle_stimulus
  in
  let fpga_log =
    Signalcat.run_and_log ~buffer_depth:8 ~max_cycles:200 ~mode:Signalcat.On_fpga
      ~top:"top" design toggle_stimulus
  in
  check_bool "overflowed" true (List.length sim_log > List.length fpga_log);
  let tail n l =
    let len = List.length l in
    List.filteri (fun i _ -> i >= len - n) l
  in
  (* entries are per-cycle; the suffix of the unified log must match *)
  Alcotest.(check (list (pair int string)))
    "ring keeps the newest entries"
    (tail (List.length fpga_log) sim_log)
    fpga_log

let test_signalcat_rejects_bad_depth () =
  let m = Parser.parse_module traced_counter in
  check_bool "non power of two rejected" true
    (match Signalcat.analyze ~buffer_depth:1000 m with
    | exception Instrument.Instrument_error _ -> true
    | _ -> false)

(* Property: for random stimulus, simulation and on-FPGA logs agree. *)
let prop_signalcat_unified =
  QCheck2.Test.make ~count:30 ~name:"signalcat unifies sim and fpga logs"
    QCheck2.Gen.(list_size (return 30) bool)
    (fun enables ->
      let design = Parser.parse_design traced_counter in
      let stim cycle =
        [ ("enable", b ~width:1 (if List.nth enables (cycle mod 30) then 1 else 0)) ]
      in
      let log mode =
        Signalcat.run_and_log ~buffer_depth:1024 ~max_cycles:30 ~mode
          ~top:"top" design stim
      in
      log Signalcat.Simulation = log Signalcat.On_fpga)

(* --- FSM Monitor -------------------------------------------------------- *)

let fsm_design =
  {|
module top (input clk, input request_valid, input work_done, output [1:0] so);
  localparam IDLE = 2'd0;
  localparam WORK = 2'd1;
  localparam FINISH = 2'd2;
  reg [1:0] state;
  assign so = state;
  always @(posedge clk) begin
    case (state)
      IDLE: if (request_valid) state <= WORK;
      WORK: if (work_done) state <= FINISH;
      FINISH: state <= IDLE;
    endcase
  end
endmodule
|}

let test_fsm_monitor_trace () =
  let design = Parser.parse_design fsm_design in
  let m = Option.get (Ast.find_module design "top") in
  let plan = Fsm_monitor.plan m in
  check_int "one FSM" 1 (List.length plan.Fsm_monitor.fsms);
  let instrumented = Fsm_monitor.instrument plan m in
  let sim =
    Testbench.of_design ~top:"top" { Ast.modules = [ instrumented ] }
  in
  let stim cycle =
    [
      ("request_valid", b ~width:1 (if cycle = 1 then 1 else 0));
      ("work_done", b ~width:1 (if cycle = 4 then 1 else 0));
    ]
  in
  let outcome = Testbench.run ~max_cycles:10 sim stim in
  let transitions = Fsm_monitor.transitions plan outcome.Testbench.log in
  let names =
    List.map
      (fun t -> (t.Fsm_monitor.from_name, t.Fsm_monitor.to_name))
      transitions
  in
  Alcotest.(check (list (pair string string)))
    "trace IDLE->WORK->FINISH->IDLE"
    [ ("IDLE", "WORK"); ("WORK", "FINISH"); ("FINISH", "IDLE") ]
    names

let test_fsm_monitor_extra_exclude () =
  let design = Parser.parse_design fsm_design in
  let m = Option.get (Ast.find_module design "top") in
  let excluded = Fsm_monitor.plan ~exclude:[ "state" ] m in
  check_int "excluded" 0 (List.length excluded.Fsm_monitor.fsms);
  let forced = Fsm_monitor.plan ~extra:[ "state" ] m in
  check_int "extra does not duplicate" 1 (List.length forced.Fsm_monitor.fsms)

(* --- Statistics Monitor -------------------------------------------------- *)

let test_stat_monitor_counts () =
  let m =
    Parser.parse_module
      {|
module top (input clk, input a_ev, input b_ev, output reg [7:0] dummy);
  always @(posedge clk) dummy <= dummy + 8'd1;
endmodule
|}
  in
  let events =
    [
      { Stat_monitor.event_name = "a"; trigger = Ast.Ident "a_ev" };
      { Stat_monitor.event_name = "b"; trigger = Ast.Ident "b_ev" };
    ]
  in
  let plan = Stat_monitor.plan m events in
  let instrumented = Stat_monitor.instrument plan m in
  let sim = Testbench.of_design ~top:"top" { Ast.modules = [ instrumented ] } in
  let stim cycle =
    [
      ("a_ev", b ~width:1 (if cycle mod 2 = 0 then 1 else 0));
      ("b_ev", b ~width:1 (if cycle mod 5 = 0 then 1 else 0));
    ]
  in
  let _ = Testbench.run ~max_cycles:20 sim stim in
  let counts = Stat_monitor.counts plan sim in
  check_int "a count" 10 (List.assoc "a" counts);
  check_int "b count" 4 (List.assoc "b" counts);
  match Stat_monitor.check_balance counts ~producer:"a" ~consumer:"b" with
  | Some anomaly ->
      check_int "lost" 6
        (anomaly.Stat_monitor.produced - anomaly.Stat_monitor.consumed)
  | None -> Alcotest.fail "expected anomaly"

let test_stat_monitor_unknown_signal () =
  let m = Parser.parse_module "module top (input clk); endmodule" in
  check_bool "unknown signal rejected" true
    (match
       Stat_monitor.plan m
         [ { Stat_monitor.event_name = "x"; trigger = Ast.Ident "ghost" } ]
     with
    | exception Instrument.Instrument_error _ -> true
    | _ -> false)

(* --- Dependency Monitor --------------------------------------------------- *)

let test_dep_monitor_updates () =
  let m =
    Parser.parse_module
      {|
module top (input clk, input [7:0] d, input en, output [7:0] q);
  reg [7:0] s1, s2;
  assign q = s2;
  always @(posedge clk) begin
    if (en) s1 <= d;
    s2 <= s1;
  end
endmodule
|}
  in
  let plan = Dep_monitor.analyze ~target:"s2" ~cycles:4 m in
  check_bool "chain has s1" true (List.mem "s1" plan.Dep_monitor.chain);
  check_bool "chain has d" true (List.mem "d" plan.Dep_monitor.chain);
  let instrumented = Dep_monitor.instrument plan m in
  let sim = Testbench.of_design ~top:"top" { Ast.modules = [ instrumented ] } in
  let stim cycle =
    [
      ("en", b ~width:1 (if cycle = 2 then 1 else 0));
      ("d", b ~width:8 0x7E);
    ]
  in
  let outcome = Testbench.run ~max_cycles:8 sim stim in
  let updates = Dep_monitor.updates plan outcome.Testbench.log in
  check_bool "s1 update observed" true
    (List.exists
       (fun u -> u.Dep_monitor.signal = "s1" && u.Dep_monitor.value = "126")
       updates);
  check_bool "s2 update observed" true
    (List.exists
       (fun u -> u.Dep_monitor.signal = "s2" && u.Dep_monitor.value = "126")
       updates);
  (* backtrace returns newest first *)
  let bt = Dep_monitor.backtrace plan outcome.Testbench.log ~at_cycle:6 in
  check_bool "backtrace ordered" true
    (match bt with
    | a :: c :: _ -> a.Dep_monitor.cycle >= c.Dep_monitor.cycle
    | _ -> false)

(* --- LossCheck on the paper's running example ----------------------------- *)

(* Section 4.5.1: out <= a / b under conditions; b <= in when valid.
   If cond_b never fires while new valid data arrives, b's value is
   overwritten - LossCheck must flag b. *)
let losscheck_example =
  {|
module ex (input clk, input cond_a, input cond_b, input in_valid,
           input [7:0] in, input [7:0] a, output reg [7:0] out);
  reg [7:0] b;
  always @(posedge clk) begin
    if (cond_a) out <= a;
    else if (cond_b) out <= b;
    if (in_valid) b <= in;
  end
endmodule
|}

let test_losscheck_paper_example () =
  let design = Parser.parse_design losscheck_example in
  let spec =
    { Losscheck.source = "in"; valid = Ast.Ident "in_valid"; sink = "out" }
  in
  (* two valid inputs while cond_b stays low: the first value in b is
     overwritten without propagating *)
  let lossy_stim cycle =
    [
      ("cond_a", b ~width:1 0);
      ("cond_b", b ~width:1 0);
      ("in_valid", b ~width:1 (if cycle = 2 || cycle = 6 then 1 else 0));
      ("in", b ~width:8 (0x10 + cycle));
    ]
  in
  let r =
    Losscheck.localize ~max_cycles:12 ~top:"ex" ~spec ~stimulus:lossy_stim
      design
  in
  Alcotest.(check (list string)) "b is flagged" [ "b" ] r.Losscheck.reported;
  (* and when every value is drained before the next arrives, silence *)
  let clean_stim cycle =
    [
      ("cond_a", b ~width:1 0);
      ("cond_b", b ~width:1 (if cycle = 4 || cycle = 9 then 1 else 0));
      ("in_valid", b ~width:1 (if cycle = 2 || cycle = 7 then 1 else 0));
      ("in", b ~width:8 (0x10 + cycle));
    ]
  in
  let r2 =
    Losscheck.localize ~max_cycles:14 ~top:"ex" ~spec ~stimulus:clean_stim
      design
  in
  Alcotest.(check (list string)) "no alarms" [] r2.Losscheck.reported

let test_losscheck_shadow_structure () =
  (* the instrumentation adds the A/V/P/N shadow registers of 4.5.2 *)
  let design = Parser.parse_design losscheck_example in
  let m = Option.get (Ast.find_module design "ex") in
  let spec =
    { Losscheck.source = "in"; valid = Ast.Ident "in_valid"; sink = "out" }
  in
  let plan = Losscheck.analyze spec m in
  Alcotest.(check (list string)) "b is the only check" [ "b" ]
    plan.Losscheck.scalar_checks;
  let instrumented = Losscheck.instrument plan m in
  List.iter
    (fun name ->
      check_bool (name ^ " exists") true (Ast.find_decl instrumented name <> None))
    [ "_lc_a_b"; "_lc_v_b"; "_lc_p_b"; "_lc_n_b" ]

(* Property: LossCheck never alarms on a loss-free random pipeline, and
   always alarms when the drain is disconnected. *)
let prop_losscheck_soundness =
  QCheck2.Test.make ~count:25 ~name:"losscheck pipeline soundness"
    QCheck2.Gen.(int_range 1 6)
    (fun gap ->
      let design =
        Parser.parse_design
          {|
module p (input clk, input in_valid, input [7:0] in, input drain,
          output reg [7:0] out);
  reg [7:0] hold;
  always @(posedge clk) begin
    if (in_valid) hold <= in;
    if (drain) out <= hold;
  end
endmodule
|}
      in
      let spec =
        { Losscheck.source = "in"; valid = Ast.Ident "in_valid"; sink = "out" }
      in
      (* values arrive every (gap+2) cycles and drain one cycle later:
         loss-free *)
      let clean cycle =
        [
          ("in_valid", b ~width:1 (if cycle mod (gap + 2) = 0 then 1 else 0));
          ("drain", b ~width:1 (if cycle mod (gap + 2) = 1 then 1 else 0));
          ("in", b ~width:8 (cycle land 0xFF));
        ]
      in
      let no_drain cycle =
        [
          ("in_valid", b ~width:1 (if cycle mod (gap + 2) = 0 then 1 else 0));
          ("drain", b ~width:1 0);
          ("in", b ~width:8 (cycle land 0xFF));
        ]
      in
      let run stim =
        (Losscheck.localize ~max_cycles:30 ~top:"p" ~spec ~stimulus:stim design)
          .Losscheck.reported
      in
      run clean = [] && run no_drain = [ "hold" ])

let suite =
  [
    Alcotest.test_case "signalcat analyze" `Quick test_signalcat_analyze;
    Alcotest.test_case "signalcat equivalence" `Quick test_signalcat_equivalence;
    Alcotest.test_case "signalcat ring buffer" `Quick test_signalcat_ring_buffer;
    Alcotest.test_case "signalcat rejects bad depth" `Quick
      test_signalcat_rejects_bad_depth;
    Alcotest.test_case "fsm monitor trace" `Quick test_fsm_monitor_trace;
    Alcotest.test_case "fsm monitor extra/exclude" `Quick
      test_fsm_monitor_extra_exclude;
    Alcotest.test_case "stat monitor counts" `Quick test_stat_monitor_counts;
    Alcotest.test_case "stat monitor unknown signal" `Quick
      test_stat_monitor_unknown_signal;
    Alcotest.test_case "dep monitor updates" `Quick test_dep_monitor_updates;
    Alcotest.test_case "losscheck paper example" `Quick
      test_losscheck_paper_example;
    Alcotest.test_case "losscheck shadow structure" `Quick
      test_losscheck_shadow_structure;
    QCheck_alcotest.to_alcotest prop_signalcat_unified;
    QCheck_alcotest.to_alcotest prop_losscheck_soundness;
  ]

(* --- LossCheck through user-module hierarchy ---------------------------- *)

let test_losscheck_through_user_instance () =
  (* data flows through a user submodule and an scfifo before reaching
     the overwritten register; the analysis must trace through both *)
  let design =
    Parser.parse_design
      {|
module double (input [7:0] x, output [7:0] y);
  assign y = {x[6:0], 1'b0};
endmodule

module top (input clk, input reset, input in_valid, input [7:0] din,
            input drain, output reg [7:0] out);
  wire [7:0] doubled;
  wire [7:0] q;
  wire empty;
  double u_d (.x(din), .y(doubled));
  scfifo #(.lpm_width(8), .lpm_numwords(4)) u_q (
    .clock(clk), .data(doubled), .wrreq(in_valid), .rdreq(pop),
    .q(q), .empty(empty));
  wire pop;
  reg [7:0] hold;
  assign pop = !empty;
  always @(posedge clk) begin
    if (pop) hold <= q;
    if (drain) out <= hold;
  end
endmodule
|}
  in
  let spec =
    { Losscheck.source = "din"; valid = Ast.Ident "in_valid"; sink = "out" }
  in
  let stim cycle =
    [
      ("reset", b ~width:1 0);
      ("in_valid", b ~width:1 (if cycle >= 2 && cycle < 6 then 1 else 0));
      ("din", b ~width:8 (0x10 + cycle));
      ("drain", b ~width:1 0);
    ]
  in
  let r = Losscheck.localize ~max_cycles:20 ~top:"top" ~spec ~stimulus:stim design in
  Alcotest.(check (list string))
    "hold flagged through submodule and fifo" [ "hold" ]
    r.Losscheck.reported

let suite =
  suite
  @ [
      Alcotest.test_case "losscheck through user instance" `Quick
        test_losscheck_through_user_instance;
    ]

(* --- SignalCat trigger window -------------------------------------------- *)

let test_signalcat_trigger_window () =
  (* recording armed while 3 <= n < 10: the reconstructed log is the
     simulation log restricted to that window *)
  let design = Parser.parse_design traced_counter in
  let trigger =
    {
      Signalcat.start =
        Some (Ast.Binop (Ast.Eq, Ast.Ident "n", Builder.const ~width:8 3));
      stop =
        Some (Ast.Binop (Ast.Eq, Ast.Ident "n", Builder.const ~width:8 10));
      post = 0;
    }
  in
  let always_on cycle = ignore cycle; [ ("enable", b ~width:1 1) ] in
  let sim_log =
    Signalcat.run_and_log ~buffer_depth:1024 ~max_cycles:40
      ~mode:Signalcat.Simulation ~top:"top" design always_on
  in
  let windowed =
    Signalcat.run_and_log ~buffer_depth:1024 ~trigger ~max_cycles:40
      ~mode:Signalcat.On_fpga ~top:"top" design always_on
  in
  check_bool "window log nonempty" true (windowed <> []);
  check_bool "window is a strict subset" true
    (List.length windowed < List.length sim_log);
  List.iter
    (fun entry ->
      check_bool "window entries come from the full log" true
        (List.mem entry sim_log))
    windowed;
  (* the counter hits 3 at cycle 3 and 10 at cycle 10: every captured
     entry falls inside [3, 10) *)
  List.iter
    (fun (cycle, _) ->
      check_bool
        (Printf.sprintf "cycle %d within the trigger window" cycle)
        true
        (cycle >= 3 && cycle < 10))
    windowed;
  (* without a trigger the behaviour is unchanged *)
  let untriggered =
    Signalcat.run_and_log ~buffer_depth:1024 ~max_cycles:40
      ~mode:Signalcat.On_fpga ~top:"top" design always_on
  in
  Alcotest.(check (list (pair int string))) "no trigger = full log" sim_log
    untriggered

let test_signalcat_post_trigger () =
  (* with a post-trigger budget the ring keeps events after the stop
     event: n reaches 10 at cycle 10, and the multiples-of-five display
     at cycle 14 (n=14 -> 15) is still captured before the freeze *)
  let design = Parser.parse_design traced_counter in
  let always_on cycle = ignore cycle; [ ("enable", b ~width:1 1) ] in
  let log post =
    Signalcat.run_and_log ~buffer_depth:1024
      ~trigger:
        {
          Signalcat.start = None;
          stop =
            Some (Ast.Binop (Ast.Eq, Ast.Ident "n", Builder.const ~width:8 10));
          post;
        }
      ~max_cycles:60 ~mode:Signalcat.On_fpga ~top:"top" design always_on
  in
  let frozen = log 0 and extended = log 8 in
  check_bool "post window captures more" true
    (List.length extended > List.length frozen);
  check_bool "post window still freezes eventually" true
    (List.length extended
    < List.length
        (Signalcat.run_and_log ~buffer_depth:1024 ~max_cycles:60
           ~mode:Signalcat.On_fpga ~top:"top" design always_on))

let suite =
  suite
  @ [
      Alcotest.test_case "signalcat trigger window" `Quick
        test_signalcat_trigger_window;
      Alcotest.test_case "signalcat post trigger" `Quick
        test_signalcat_post_trigger;
    ]

(* --- randomized pipeline: Stat localizes the stage, LossCheck the
   register ----------------------------------------------------------- *)

(* Build an n-stage valid/data pipeline; stage [sabotage] (1-based, if
   any) drops its valid hand-off, so data piles up in the register
   before it and is overwritten. *)
let pipeline_src ~stages ~sabotage =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "module pipe (input clk, input in_valid, input [7:0] in_data,\n";
  Buffer.add_string buf
    "             output reg out_valid, output reg [7:0] out_data);\n";
  for i = 1 to stages do
    Buffer.add_string buf (Printf.sprintf "  reg [7:0] d%d;\n  reg v%d_valid;\n" i i)
  done;
  Buffer.add_string buf "  always @(posedge clk) begin\n";
  Buffer.add_string buf "    d1 <= in_data;\n    v1_valid <= in_valid;\n";
  for i = 2 to stages do
    let broken = sabotage = Some (i - 1) in
    Buffer.add_string buf (Printf.sprintf "    d%d <= d%d;\n" i (i - 1));
    Buffer.add_string buf
      (Printf.sprintf "    v%d_valid <= %s;\n" i
         (if broken then "1'b0" else Printf.sprintf "v%d_valid" (i - 1)))
  done;
  Buffer.add_string buf
    (Printf.sprintf "    out_data <= d%d;\n    out_valid <= v%d_valid;\n" stages
       stages);
  Buffer.add_string buf "  end\nendmodule\n";
  Buffer.contents buf

let pipeline_stimulus cycle =
  [
    ("in_valid", b ~width:1 (if cycle < 10 then 1 else 0));
    ("in_data", b ~width:8 (0x30 + cycle));
  ]

let prop_stat_monitor_localizes_stage =
  QCheck2.Test.make ~count:20 ~name:"statistics localize the sabotaged stage"
    QCheck2.Gen.(pair (int_range 3 6) (int_range 1 5))
    (fun (stages, k) ->
      let sabotage = 1 + (k mod (stages - 1)) in
      let src = pipeline_src ~stages ~sabotage:(Some sabotage) in
      let m = Parser.parse_module src in
      let events = Stat_monitor.valid_signal_events m in
      let plan = Stat_monitor.plan m events in
      let instrumented = Stat_monitor.instrument plan m in
      let sim = Testbench.of_design ~top:"pipe" { Ast.modules = [ instrumented ] } in
      let _ = Testbench.run ~max_cycles:30 sim pipeline_stimulus in
      let counts = Stat_monitor.counts plan sim in
      let stage_names =
        "in_valid" :: List.init stages (fun i -> Printf.sprintf "v%d_valid" (i + 1))
        @ [ "out_valid" ]
      in
      match Stat_monitor.localize_stage counts ~stages:stage_names with
      | Some a ->
          (* the boundary is between v<sabotage>_valid and the next one *)
          a.Stat_monitor.upstream = Printf.sprintf "v%d_valid" sabotage
      | None -> false)

let prop_pipeline_clean_no_anomaly =
  QCheck2.Test.make ~count:10 ~name:"clean pipelines have no stage anomaly"
    QCheck2.Gen.(int_range 3 6)
    (fun stages ->
      let src = pipeline_src ~stages ~sabotage:None in
      let m = Parser.parse_module src in
      let events = Stat_monitor.valid_signal_events m in
      let plan = Stat_monitor.plan m events in
      let instrumented = Stat_monitor.instrument plan m in
      let sim = Testbench.of_design ~top:"pipe" { Ast.modules = [ instrumented ] } in
      let _ = Testbench.run ~max_cycles:40 sim pipeline_stimulus in
      let counts = Stat_monitor.counts plan sim in
      let stage_names =
        List.init stages (fun i -> Printf.sprintf "v%d_valid" (i + 1))
      in
      (* interior stages see identical counts once drained *)
      Stat_monitor.localize_stage counts ~stages:stage_names = None)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_stat_monitor_localizes_stage;
      QCheck_alcotest.to_alcotest prop_pipeline_clean_no_anomaly;
    ]

let test_dep_monitor_slice_precise () =
  let m =
    Parser.parse_module
      {|
module top (input clk, input [7:0] a, input [7:0] bb, output reg [7:0] q);
  reg [15:0] packed_word;
  always @(posedge clk) begin
    packed_word[7:0] <= a;
    packed_word[15:8] <= bb;
    q <= packed_word[7:0];
  end
endmodule
|}
  in
  let coarse = Dep_monitor.analyze ~target:"q" ~cycles:4 m in
  let fine = Dep_monitor.analyze ~slice_precise:true ~target:"q" ~cycles:4 m in
  check_bool "coarse includes bb" true (List.mem "bb" coarse.Dep_monitor.chain);
  check_bool "fine excludes bb" false (List.mem "bb" fine.Dep_monitor.chain);
  check_bool "fine keeps a" true (List.mem "a" fine.Dep_monitor.chain)

let suite =
  suite
  @ [
      Alcotest.test_case "dep monitor slice precise" `Quick
        test_dep_monitor_slice_precise;
    ]

(* --- SignalCat on negedge designs ----------------------------------------- *)

let test_signalcat_negedge () =
  (* a design whose tracing lives in a negedge block: the recorder
     clocks on the same edge and the unified logs still agree *)
  let design =
    Parser.parse_design
      {|
module top (input clk, input en, output reg [7:0] n);
  always @(posedge clk) if (en) n <= n + 8'd1;
  always @(negedge clk) begin
    if (n[2:0] == 3'd7) $display("low bits saturated: %d", n);
  end
endmodule
|}
  in
  let stim cycle = [ ("en", b ~width:1 (if cycle mod 7 = 6 then 0 else 1)) ] in
  let log mode =
    Signalcat.run_and_log ~buffer_depth:256 ~max_cycles:40 ~mode ~top:"top"
      design stim
  in
  let sim_log = log Signalcat.Simulation in
  check_bool "negedge log nonempty" true (sim_log <> []);
  Alcotest.(check (list (pair int string)))
    "negedge unified logs" sim_log (log Signalcat.On_fpga)

let test_signalcat_rejects_mixed_edges () =
  let m =
    Parser.parse_module
      {|
module top (input clk, output reg [7:0] n);
  always @(posedge clk) begin
    n <= n + 8'd1;
    if (n == 8'd3) $display("pos");
  end
  always @(negedge clk) begin
    if (n == 8'd5) $display("neg");
  end
endmodule
|}
  in
  check_bool "mixed edges rejected" true
    (match Signalcat.analyze m with
    | exception Instrument.Instrument_error _ -> true
    | _ -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "signalcat negedge" `Quick test_signalcat_negedge;
      Alcotest.test_case "signalcat rejects mixed edges" `Quick
        test_signalcat_rejects_mixed_edges;
    ]

(* --- instrumentation name collisions --------------------------------------- *)

let test_instrument_name_collision () =
  (* a design that already uses a shadow name is rejected instead of
     being silently corrupted *)
  let m =
    Parser.parse_module
      {|
module top (input clk, output reg [7:0] _sc_cycle);
  always @(posedge clk) begin
    _sc_cycle <= _sc_cycle + 8'd1;
    if (_sc_cycle == 8'd3) $display("hit");
  end
endmodule
|}
  in
  let plan = Signalcat.analyze m in
  check_bool "collision rejected" true
    (match Signalcat.instrument plan m with
    | exception Instrument.Instrument_error _ -> true
    | _ -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "instrument name collision" `Quick
        test_instrument_name_collision;
    ]

(* --- LossCheck: simultaneous same-word read+write is not a loss ----------- *)

let test_losscheck_simultaneous_rw () =
  (* a one-slot memory mailbox where each write lands in the same cycle
     the old value is read out: the old data IS consumed, so no alarm *)
  let design =
    Parser.parse_design
      {|
module top (input clk, input in_valid, input [7:0] in_data,
            output reg [7:0] out);
  reg [7:0] box [0:2];
  always @(posedge clk) begin
    if (in_valid) begin
      out <= box[0];
      box[0] <= in_data;
    end
  end
endmodule
|}
  in
  let spec =
    { Losscheck.source = "in_data"; valid = Ast.Ident "in_valid"; sink = "out" }
  in
  let stim cycle =
    [
      ("in_valid", b ~width:1 (if cycle >= 1 && cycle <= 6 then 1 else 0));
      ("in_data", b ~width:8 (0x50 + cycle));
    ]
  in
  let r = Losscheck.localize ~max_cycles:12 ~top:"top" ~spec ~stimulus:stim design in
  Alcotest.(check (list string))
    "swap-through mailbox never alarms" [] r.Losscheck.reported;
  (* but dropping the read turns every refill into a loss *)
  let lossy =
    Parser.parse_design
      {|
module top (input clk, input in_valid, input [7:0] in_data,
            output reg [7:0] out);
  reg [7:0] box [0:2];
  always @(posedge clk) begin
    if (in_valid) box[0] <= in_data;
    out <= out;
  end
endmodule
|}
  in
  let r2 = Losscheck.localize ~max_cycles:12 ~top:"top" ~spec ~stimulus:stim lossy in
  (* box never reaches the sink, so it is off the propagation sequence;
     the analysis reports nothing rather than a false alarm *)
  Alcotest.(check (list string)) "off-path memory not checked" [] r2.Losscheck.reported

let suite =
  suite
  @ [
      Alcotest.test_case "losscheck simultaneous read+write" `Quick
        test_losscheck_simultaneous_rw;
    ]

(* --- LossCheck and Dependency Monitor through dcfifo and altsyncram ----- *)

(* A word enters the IP, comes out at [q] into [hold], and waits there
   for [drain]; with drain low, every refill of [hold] loses a word. *)
let ip_skid_design ip =
  Parser.parse_design
    (Printf.sprintf
       {|
module top (input clk, input reset, input in_valid, input [7:0] din,
            input [1:0] addr, input drain, output reg [7:0] out);
  wire [7:0] q;
  wire rdempty, wrfull;
  wire pop;
  reg [7:0] hold;
  %s
  assign pop = !rdempty;
  always @(posedge clk) begin
    if (pop) hold <= q;
    if (drain) out <= hold;
  end
endmodule
|}
       ip)

let dcfifo_inst =
  {|dcfifo #(.lpm_width(8), .lpm_numwords(4)) u_q (
    .wrclk(clk), .rdclk(clk), .data(din), .wrreq(in_valid), .rdreq(pop),
    .q(q), .rdempty(rdempty), .wrfull(wrfull));|}

(* no full formal: a RAM write is gated by its write enable alone *)
let altsyncram_inst =
  {|altsyncram #(.width_a(8), .numwords_a(4)) u_q (
    .clock0(clk), .address_a(addr), .data_a(din), .wren_a(in_valid),
    .q_a(q));
  assign rdempty = !in_valid;|}

let check_ip_analyses ~ip ~gate () =
  let design = ip_skid_design ip in
  let m = List.hd design.Ast.modules in
  let spec =
    { Losscheck.source = "din"; valid = Ast.Ident "in_valid"; sink = "out" }
  in
  let plan = Losscheck.analyze ~design spec m in
  Alcotest.(check (list string))
    "relations through the IP"
    [
      "q ~>[pop] hold";
      "hold ~>[drain] out";
      Printf.sprintf "din ~>[%s] q" gate;
    ]
    (List.map
       (fun (r : Losscheck.relation) ->
         Printf.sprintf "%s ~>[%s] %s" r.Losscheck.src
           (Pp_verilog.expr_str r.Losscheck.cond)
           r.Losscheck.dst)
       plan.Losscheck.relations);
  Alcotest.(check (list string)) "hold checked" [ "hold" ]
    plan.Losscheck.scalar_checks;
  let stim cycle =
    [
      ("reset", b ~width:1 0);
      ("in_valid", b ~width:1 (if cycle >= 2 && cycle < 6 then 1 else 0));
      ("din", b ~width:8 (0x10 + cycle));
      ("addr", b ~width:2 cycle);
      ("drain", b ~width:1 0);
    ]
  in
  let r =
    Losscheck.localize ~max_cycles:20 ~top:"top" ~spec ~stimulus:stim design
  in
  Alcotest.(check (list string)) "hold flagged" [ "hold" ] r.Losscheck.reported;
  let dep = Dep_monitor.analyze ~design ~target:"hold" ~cycles:2 m in
  check_bool "chain reaches the IP's data input" true
    (List.mem "din" dep.Dep_monitor.chain);
  let dep1 = Dep_monitor.analyze ~design ~target:"hold" ~cycles:1 m in
  check_bool "the IP crosses a clock cycle" false
    (List.mem "din" dep1.Dep_monitor.chain)

let suite =
  suite
  @ [
      Alcotest.test_case "losscheck and deps through dcfifo" `Quick
        (check_ip_analyses ~ip:dcfifo_inst ~gate:"(in_valid && !(wrfull))");
      Alcotest.test_case "losscheck and deps through altsyncram" `Quick
        (check_ip_analyses ~ip:altsyncram_inst ~gate:"in_valid");
    ]

(* --- SignalCat readback across argument widths ----------------------------- *)

(* Arguments on both sides of the widths the readback treats apart:
   at most 62 bits are read from the entry as an int, wider ones are
   sliced, and 63 and 64 bits straddle both that line and a limb. *)
let sc_inputs = [ ("a1", 1); ("a8", 8); ("a62", 62); ("a63", 63); ("a64", 64); ("a100", 100) ]

let sc_source displays =
  let decl (n, w) =
    if w = 1 then Printf.sprintf "input %s" n
    else Printf.sprintf "input [%d:0] %s" (w - 1) n
  in
  Printf.sprintf
    "module top (input clk, input [2:0] sel, %s, output reg [7:0] n);\n\
    \  always @(posedge clk) begin\n\
    \    n <= n + 8'd1;\n\
     %s\n\
    \  end\n\
     endmodule\n"
    (String.concat ", " (List.map decl sc_inputs))
    (String.concat "\n"
       (List.mapi
          (fun i (fmt, args) ->
            Printf.sprintf "    if (sel[%d]) $display(\"%s\"%s);" i fmt
              (String.concat "" (List.map (fun a -> ", " ^ a) args)))
          displays))

let gen_sc_case =
  QCheck2.Gen.(
    let display =
      pair
        (list_size (int_range 1 5)
           (oneofl [ "%d"; "%h"; "%x"; "%b"; "%c"; "%%"; " "; "v=" ])
        >|= String.concat "")
        (list_size (int_bound 4) (oneofl (List.map fst sc_inputs)))
    in
    let value w =
      list_size (return ((w + 3) / 4)) (int_bound 15) >|= fun ds ->
      Bits.of_hex_string ~width:w (String.concat "" (List.map (Printf.sprintf "%x") ds))
    in
    let row =
      int_bound 7 >>= fun sel ->
      flatten_l (List.map (fun (n, w) -> value w >|= fun v -> (n, v)) sc_inputs)
      >|= fun vs -> ("sel", b ~width:3 sel) :: vs
    in
    pair (list_size (return 3) display) (list_size (return 20) row))

(* One run of [design] in [mode] under [kernel], as [run_and_log]. *)
let sc_log ~kernel ~mode ~buffer_depth ~cycles design stim =
  let m = Option.get (Ast.find_module design "top") in
  let m', plan = Signalcat.apply ~buffer_depth mode m in
  let sim = Testbench.of_design ~kernel ~top:"top" (Ast.replace_module design m m') in
  let outcome = Testbench.run ~max_cycles:cycles sim stim in
  match mode with
  | Signalcat.Simulation -> outcome.Testbench.log
  | Signalcat.On_fpga -> Signalcat.reconstruct plan sim

let prop_signalcat_widths =
  QCheck2.Test.make ~count:40
    ~name:"signalcat readback of 1- to 100-bit arguments, ring wrapped"
    ~print:(fun (displays, _) -> sc_source displays)
    gen_sc_case
    (fun (displays, rows) ->
      let design = Parser.parse_design (sc_source displays) in
      let rows = Array.of_list rows in
      let stim c = if c < Array.length rows then rows.(c) else [] in
      let log kernel mode =
        sc_log ~kernel ~mode ~buffer_depth:8 ~cycles:(Array.length rows) design
          stim
      in
      let reference = log Simulator.Brute_force Signalcat.Simulation in
      List.for_all
        (fun kernel ->
          let fpga = log kernel Signalcat.On_fpga in
          let skip = List.length reference - List.length fpga in
          log kernel Signalcat.Simulation = reference
          && skip >= 0
          && List.filteri (fun i _ -> i >= skip) reference = fpga)
        [ Simulator.Brute_force; Simulator.Lowered_dirty ])

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_signalcat_widths ]
