(* Tests for the mutation engine and differential fuzz driver:
   byte-identical corpus reproduction, the identity null hypothesis
   over the full testbed, per-template elaboration, and one pinned
   regression per injection template. *)

module Mutate = Fpga_fuzz.Mutate
module Fuzz = Fpga_fuzz.Fuzz
module Campaign = Fpga_campaign.Campaign
module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Taxonomy = Fpga_study.Taxonomy
module Pp = Fpga_hdl.Pp_verilog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Pinned per-template regressions                                     *)
(* ------------------------------------------------------------------ *)

(* A compact two-module design giving every one of the 13 templates at
   least one site: an IP instance with a parameter and same-width
   connections (API misuse), a memory and slices (data mis-access), a
   reset branch and an FSM case (communication/semantic). *)
let pin_src =
  {|
module fz_sub (
  input clk,
  input [7:0] x,
  input [7:0] y,
  output reg [7:0] o
);
  parameter STEP = 1;
  always @(posedge clk) begin
    o <= x + y + STEP;
  end
endmodule

module fz_top (
  input clk,
  input rst,
  input in_valid,
  input [7:0] in_data,
  output reg [7:0] out_data,
  output reg out_valid
);
  reg [7:0] mem [0:15];
  reg [3:0] wptr;
  reg [1:0] state;
  wire [7:0] doubled;
  wire [7:0] swapped;

  fz_sub #(.STEP(2)) u_sub (.clk(clk), .x(in_data), .y(swapped), .o(doubled));

  assign swapped = {in_data[3:0], in_data[7:4]};

  always @(posedge clk) begin
    if (rst) begin
      wptr <= 4'd0;
      state <= 2'd0;
      out_valid <= 1'b0;
    end else begin
      out_valid <= 1'b0;
      if (in_valid && state == 2'd0) begin
        mem[wptr] <= in_data;
        wptr <= wptr + 4'd1;
        state <= 2'd1;
      end
      case (state)
        2'd1: begin
          out_data <= mem[wptr - 4'd1] + swapped[7:4] + doubled;
          out_valid <= 1'b1;
          state <= 2'd2;
        end
        2'd2: state <= 2'd0;
        default: state <= state;
      endcase
    end
  end
endmodule
|}

let pin_design () = Fpga_hdl.Parser.parse_design pin_src

(* (template, site count in pin_src, site-0 rewrite description).
   These pin the traversal order itself: a reordered visitor would
   renumber every site and silently break seed replay, and this table
   is what catches it. *)
let pinned =
  [
    (Taxonomy.Buffer_overflow, 2, "index mem[wptr] off by one (+1)");
    (Taxonomy.Bit_truncation, 3, "slice in_data[3:0] -> in_data[2:0]");
    (Taxonomy.Misindexing, 3, "slice in_data[3:0] -> in_data[4:1]");
    ( Taxonomy.Endianness_mismatch,
      1,
      "concat {in_data[3:0], in_data[7:4]} reversed" );
    (Taxonomy.Failure_to_update, 11, "register o never updated (holds value)");
    (Taxonomy.Deadlock, 1, "if-condition ((in_valid && (state == 2'd0))) negated");
    (Taxonomy.Producer_consumer_mismatch, 11, "constant 4'd0 -> 4'd1");
    (Taxonomy.Signal_asynchrony, 13, "o <= ... made blocking");
    ( Taxonomy.Use_without_valid,
      1,
      "guard (in_valid && (state == 2'd0)) -> in_valid" );
    (Taxonomy.Protocol_violation, 3, "posedge clk -> negedge clk");
    (Taxonomy.Api_misuse, 3, "parameter STEP: 2 -> 3 on u_sub");
    (Taxonomy.Incomplete_implementation, 3, "case arm '2'd1' dropped");
    (Taxonomy.Erroneous_expression, 8, "operator '+' -> '-' in (x + y)");
  ]

let test_pinned_templates () =
  let d = pin_design () in
  check_int "table covers every template" (List.length Mutate.templates)
    (List.length pinned);
  List.iter
    (fun (t, sites, detail) ->
      let name = Taxonomy.subclass_name t in
      check_int (name ^ " site count") sites (Mutate.site_count t d);
      match Mutate.apply t ~site:0 d with
      | None -> Alcotest.failf "%s: site 0 did not apply" name
      | Some (d', mu) ->
          check_string (name ^ " site-0 detail") detail mu.Mutate.mu_detail;
          check_bool (name ^ " records template") true (mu.Mutate.mu_template = t);
          (* every pinned mutant survives the full validity gate *)
          (match Mutate.validate ~top:"fz_top" ~baseline:d d' with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: gate rejected site 0: %s" name e);
          (* out-of-range sites are refused, not wrapped *)
          check_bool
            (name ^ " out-of-range site")
            true
            (Mutate.apply t ~site:sites d = None))
    pinned

(* apply_all re-applies a recorded mutation list (the minimizer's
   primitive); identical coordinates must reproduce identical designs. *)
let test_apply_all_replays () =
  let d = pin_design () in
  let muts =
    [
      { Mutate.mu_template = Taxonomy.Erroneous_expression; mu_site = 2; mu_detail = "" };
      { Mutate.mu_template = Taxonomy.Deadlock; mu_site = 0; mu_detail = "" };
      { Mutate.mu_template = Taxonomy.Producer_consumer_mismatch; mu_site = 5; mu_detail = "" };
    ]
  in
  match (Mutate.apply_all d muts, Mutate.apply_all d muts) with
  | Some (a, ma), Some (b, mb) ->
      check_string "replayed design identical" (Pp.design_to_string a)
        (Pp.design_to_string b);
      check_bool "replayed details identical" true (ma = mb);
      check_bool "details recomputed" true
        (List.for_all (fun m -> m.Mutate.mu_detail <> "") ma)
  | _ -> Alcotest.fail "apply_all did not resolve a valid coordinate list"

(* ------------------------------------------------------------------ *)
(* Determinism: the corpus is a pure function of (seed, index)         *)
(* ------------------------------------------------------------------ *)

let prop_generate_deterministic =
  QCheck2.Test.make ~count:60 ~name:"generate (seed, index) byte-identical"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 200))
    (fun (seed, index) ->
      let bug1, d1, m1 = Fuzz.generate ~seed ~index in
      let bug2, d2, m2 = Fuzz.generate ~seed ~index in
      bug1.Bug.id = bug2.Bug.id
      && Pp.design_to_string d1 = Pp.design_to_string d2
      && m1 = m2)

let prop_rng_independent_of_global_state =
  QCheck2.Test.make ~count:30 ~name:"corpus immune to Stdlib.Random"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, d1, m1 = Fuzz.generate ~seed ~index:3 in
      Random.self_init ();
      ignore (Random.bits ());
      let _, d2, m2 = Fuzz.generate ~seed ~index:3 in
      Pp.design_to_string d1 = Pp.design_to_string d2 && m1 = m2)

(* Full classification (3 simulations + gate) is heavier, so pin a few
   fixed coordinates instead of quantifying. *)
let test_run_one_deterministic () =
  List.iter
    (fun (seed, index) ->
      let a = Fuzz.run_one ~seed ~index () in
      let b = Fuzz.run_one ~seed ~index () in
      check_bool
        (Printf.sprintf "run_one (%d, %d) reproducible" seed index)
        true (a = b))
    [ (1, 0); (1, 7); (42, 3); (9000, 11) ]

(* [run_one] and [classify] share the symptom differential: on every
   mutant that is not a kernel mismatch (where [run_one] additionally
   minimizes), they must reach the same outcome. *)
let test_run_one_agrees_with_classify () =
  let seed = 3 in
  for index = 0 to 39 do
    let r = Fuzz.run_one ~seed ~index () in
    let bug, mutant, _ = Fuzz.generate ~seed ~index in
    let base = Bug.design_of bug ~buggy:false in
    match r.Fuzz.r_outcome with
    | Fuzz.Kernel_mismatch why -> Alcotest.failf "mutant %d: kernel mismatch: %s" index why
    | outcome ->
        check_bool
          (Printf.sprintf "mutant %d: run_one and classify agree" index)
          true
          (outcome = Fuzz.classify bug ~base mutant)
  done

(* The pool executes the same pure function: any --jobs width yields
   the same results and byte-identical JSON. *)
let test_fuzz_campaign_across_widths () =
  let serial = Campaign.run_fuzz ~domains:1 ~seed:5 ~mutants:16 () in
  let parallel = Campaign.run_fuzz ~domains:4 ~seed:5 ~mutants:16 () in
  check_string "fuzz JSON identical at jobs 1 vs 4"
    (Campaign.fuzz_to_json serial)
    (Campaign.fuzz_to_json parallel);
  Array.iteri
    (fun i r ->
      let p = parallel.Campaign.f_results.(i) in
      check_bool
        (Printf.sprintf "mutant %d verdict identical" i)
        true
        (r.Campaign.jr_value = p.Campaign.jr_value))
    serial.Campaign.f_results

(* ------------------------------------------------------------------ *)
(* The identity null hypothesis                                        *)
(* ------------------------------------------------------------------ *)

(* Zero mutations => zero divergences, on every bug of the full
   testbed: the unmutated design passes the gate, the kernels agree,
   telemetry is invisible, and the design equals itself. Any other
   outcome means the fuzzer would report noise, not findings. *)
let test_identity_no_divergence () =
  List.iter
    (fun (bug : Bug.t) ->
      match Fuzz.classify_identity bug with
      | Fuzz.Equivalent -> ()
      | o ->
          Alcotest.failf "%s: identity classified %s (%s)" bug.Bug.id
            (Fuzz.outcome_name o) (Fuzz.outcome_detail o))
    Registry.all

(* Same null hypothesis with the dirty lowered kernel as the primary
   side of the differential — worklist scheduling plus
   the flat NBA commit buffer must be invisible to the differential on
   every fuzz target. *)
let test_identity_lowered_dirty_primary () =
  List.iter
    (fun (bug : Bug.t) ->
      match
        Fuzz.classify_identity ~kernel:Fpga_sim.Simulator.Lowered_dirty bug
      with
      | Fuzz.Equivalent -> ()
      | o ->
          Alcotest.failf "%s: lowered-dirty identity classified %s (%s)"
            bug.Bug.id (Fuzz.outcome_name o) (Fuzz.outcome_detail o))
    Fuzz.targets

(* The CI fuzz-smoke gate in miniature, under the dirty lowered kernel:
   200 mutants, every valid one a lowered-dirty vs brute-force
   differential, zero mismatches, and byte-identical JSON across pool
   widths (the dirty scheduler's mode trajectory must not leak into
   results). *)
let test_fuzz_smoke_lowered_dirty () =
  let kernel = Fpga_sim.Simulator.Lowered_dirty in
  let serial = Campaign.run_fuzz ~domains:1 ~kernel ~seed:1 ~mutants:200 () in
  check_bool "no mismatches under lowered-dirty" true
    (Campaign.fuzz_ok serial);
  let parallel = Campaign.run_fuzz ~domains:4 ~kernel ~seed:1 ~mutants:200 () in
  check_string "fuzz JSON identical at jobs 1 vs 4"
    (Campaign.fuzz_to_json serial)
    (Campaign.fuzz_to_json parallel)

(* ------------------------------------------------------------------ *)
(* Every template yields an elaborating mutant on the real targets     *)
(* ------------------------------------------------------------------ *)

let test_templates_elaborate_on_targets () =
  List.iter
    (fun t ->
      let elaborates (bug : Bug.t) site =
        let base = Bug.design_of bug ~buggy:false in
        match Mutate.apply t ~site base with
        | None -> false
        | Some (d, _) -> (
            match Fpga_sim.Elaborate.elaborate d ~top:bug.Bug.top with
            | _ -> true
            | exception _ -> false)
      in
      let found =
        List.exists
          (fun (bug : Bug.t) ->
            let base = Bug.design_of bug ~buggy:false in
            let sites = min 20 (Mutate.site_count t base) in
            List.exists (elaborates bug) (List.init sites Fun.id))
          Fuzz.targets
      in
      check_bool
        (Taxonomy.subclass_name t ^ " elaborates on some fuzz target")
        true found)
    Mutate.templates

(* ------------------------------------------------------------------ *)
(* Driver odds and ends                                                *)
(* ------------------------------------------------------------------ *)

let test_validity_gate_rejects () =
  let d = pin_design () in
  (* an undefined top is the crudest invalid design *)
  (match Mutate.validate ~top:"nope" ~baseline:d d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "gate accepted an unelaboratable top");
  (* the unmutated design always passes against itself *)
  match Mutate.validate ~top:"fz_top" ~baseline:d d with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "gate rejected the identity design: %s" e

let test_target_round_robin () =
  let n = List.length Fuzz.targets in
  check_bool "at least 8 fuzz targets" true (n >= 8);
  List.iteri
    (fun i (b : Bug.t) ->
      check_string
        (Printf.sprintf "index %d target" i)
        b.Bug.id
        (Fuzz.target_of_index i).Bug.id;
      check_string
        (Printf.sprintf "index %d wraps" (i + n))
        b.Bug.id
        (Fuzz.target_of_index (i + n)).Bug.id)
    Fuzz.targets

let test_fuzz_json_schema () =
  let fc = Campaign.run_fuzz ~domains:2 ~seed:2 ~mutants:4 () in
  let json = Campaign.fuzz_to_json fc in
  let contains s sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> check_bool key true (contains json key))
    [
      "\"schema\": \"fpga-debug-fuzz/2\"";
      "\"seed\": 2";
      "\"kernel\": \"event\"";
      "\"mutants\": 4";
      "\"targets\"";
      "\"counts\"";
      "\"kernel_mismatch\"";
      "\"results\"";
      "\"findings\"";
    ];
  (* the deterministic-report contract: no wall-clock or worker noise *)
  List.iter
    (fun forbidden ->
      check_bool ("no " ^ forbidden) false (contains json forbidden))
    [ "\"wall\""; "\"domain\""; "\"busy\""; "\"telemetry\"" ]

(* ------------------------------------------------------------------ *)
(* Three simulations per mutant and the memoised base                  *)
(* ------------------------------------------------------------------ *)

module Telemetry = Fpga_telemetry.Telemetry
module Simulator = Fpga_sim.Simulator

(* Span calls recorded in this domain while [f] runs with telemetry on. *)
let span_calls f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      f ();
      let spans = (Telemetry.report ()).Telemetry.r_spans in
      fun name ->
        List.fold_left
          (fun acc (n, calls, _) -> if n = name then acc + calls else acc)
          0 spans)

(* A valid mutant on which the kernels agree costs primary, brute-force
   and telemetry-on simulations and nothing more; the validity gate's
   cycle check constructs one simulator of its own, which is not a
   simulation. Computing the base on a cold memo records nothing
   either, so the count is the same cold and warm. *)
let test_three_simulations_per_mutant () =
  let seed = 1 in
  let index =
    let rec find i =
      match (Fuzz.run_one ~seed ~index:i ()).Fuzz.r_outcome with
      | Fuzz.Equivalent | Fuzz.Symptom_divergent _ -> i
      | _ -> find (i + 1)
    in
    find 0
  in
  let simulations () =
    let calls = span_calls (fun () -> ignore (Fuzz.run_one ~seed ~index ())) in
    calls "compile" - calls "fuzz.validate.cycle_check"
  in
  check_int "warm memo: three simulations" 3 (simulations ());
  Fuzz.clear_base_memo ();
  check_int "cold memo: three recorded simulations" 3 (simulations ())

let test_memo_cold_and_warm_agree () =
  let cold =
    List.init 200 (fun index ->
        Fuzz.clear_base_memo ();
        Fuzz.run_one ~seed:11 ~index ())
  in
  let warm = List.init 200 (fun index -> Fuzz.run_one ~seed:11 ~index ()) in
  List.iter2
    (fun (c : Fuzz.result) w ->
      check_bool
        (Printf.sprintf "mutant %d: cold and warm memo agree" c.Fuzz.r_index)
        true (c = w))
    cold warm

(* A copy of [bug] that counts its harness samples: one per simulated
   cycle, so the count tells how many runs a classification made. A
   copy is a new physical [Bug.t], with its own memo entry. *)
let counting (bug : Bug.t) =
  let samples = ref 0 in
  ( { bug with Bug.sample = (fun sim -> incr samples; bug.Bug.sample sim) },
    fun f ->
      samples := 0;
      let o = f () in
      check_bool "classified Equivalent" true (o = Fuzz.Equivalent);
      !samples )

let test_memo_entry_per_kernel () =
  let bug, samples = counting (List.hd Fuzz.targets) in
  let identity kernel () = Fuzz.classify_identity ~kernel bug in
  let ev_cold = samples (identity Simulator.Event_driven) in
  let ev_warm = samples (identity Simulator.Event_driven) in
  let ld_cold = samples (identity Simulator.Lowered_dirty) in
  let ld_warm = samples (identity Simulator.Lowered_dirty) in
  check_bool "the base ran for some cycles" true (ev_warm > 0);
  check_int "event: cold = four runs of three" (ev_warm / 3 * 4) ev_cold;
  check_int "lowered-dirty has its own entry, cold too" ev_cold ld_cold;
  check_int "lowered-dirty warm" ev_warm ld_warm

let test_memo_not_served_for_own_base () =
  let bug, samples = counting (List.hd Fuzz.targets) in
  ignore (Fuzz.classify_identity bug);
  (* structurally the base, but not the shared parse the memo serves *)
  let own = Fpga_hdl.Parser.parse_design bug.Bug.fixed_src in
  let per_call = samples (fun () -> Fuzz.classify bug ~base:own own) in
  check_int "an own base is simulated every time" per_call
    (samples (fun () -> Fuzz.classify bug ~base:own own));
  check_int "four runs per classification"
    (samples (fun () -> Fuzz.classify_identity bug) / 3 * 4)
    per_call;
  (* a symptom-divergent mutant used as its own base is Equivalent: a
     memo hit on the target's real base would report the symptom *)
  let rec divergent index =
    let target, mutant, _ = Fuzz.generate ~seed:1 ~index in
    match (Fuzz.run_one ~seed:1 ~index ()).Fuzz.r_outcome with
    | Fuzz.Symptom_divergent _ -> (target, mutant)
    | _ -> divergent (index + 1)
  in
  let target, mutant = divergent 0 in
  check_bool "a mutant against itself is Equivalent" true
    (Fuzz.classify target ~base:mutant mutant = Fuzz.Equivalent)

let suite =
  [
    Alcotest.test_case "pinned site-0 regression per template" `Quick
      test_pinned_templates;
    Alcotest.test_case "apply_all replays coordinates" `Quick
      test_apply_all_replays;
    QCheck_alcotest.to_alcotest prop_generate_deterministic;
    QCheck_alcotest.to_alcotest prop_rng_independent_of_global_state;
    Alcotest.test_case "run_one deterministic at fixed coordinates" `Quick
      test_run_one_deterministic;
    Alcotest.test_case "fuzz campaign identical across pool widths" `Quick
      test_fuzz_campaign_across_widths;
    Alcotest.test_case "identity mutants: zero divergences, full testbed"
      `Slow test_identity_no_divergence;
    Alcotest.test_case "run_one and classify agree on 40 mutants" `Quick
      test_run_one_agrees_with_classify;
    Alcotest.test_case "identity under lowered-dirty primary kernel" `Slow
      test_identity_lowered_dirty_primary;
    Alcotest.test_case "200-mutant fuzz smoke under lowered-dirty" `Slow
      test_fuzz_smoke_lowered_dirty;
    Alcotest.test_case "all 13 templates elaborate on fuzz targets" `Slow
      test_templates_elaborate_on_targets;
    Alcotest.test_case "validity gate accepts identity, rejects bad top"
      `Quick test_validity_gate_rejects;
    Alcotest.test_case "targets round-robin by index" `Quick
      test_target_round_robin;
    Alcotest.test_case "fuzz json schema-pinned and noise-free" `Quick
      test_fuzz_json_schema;
    Alcotest.test_case "three simulations per valid mutant" `Quick
      test_three_simulations_per_mutant;
    Alcotest.test_case "200 mutants identical on cold and warm memo" `Quick
      test_memo_cold_and_warm_agree;
    Alcotest.test_case "event and lowered-dirty bases memoised apart" `Quick
      test_memo_entry_per_kernel;
    Alcotest.test_case "classify never serves a caller's own base" `Quick
      test_memo_not_served_for_own_base;
  ]
