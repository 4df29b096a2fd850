(* Campaign engine: pool ordering and error isolation, determinism of
   the full-testbed campaign across pool widths (the serial-vs-parallel
   acceptance check), report schema, telemetry merging, and the
   persistent workers across consecutive, nested and failing batches. *)

module Campaign = Fpga_campaign.Campaign
module Registry = Fpga_testbed.Registry
module Telemetry = Fpga_telemetry.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Results come back ordered by submission index with the right labels
   and values, whatever the pool width. *)
let test_pool_ordering () =
  let jobs =
    Array.init 16 (fun i ->
        { Campaign.label = Printf.sprintf "j%d" i; work = (fun () -> i * i) })
  in
  let results, stats = Campaign.run_pool ~domains:4 jobs in
  check_int "every job has a result" 16 (Array.length results);
  Array.iteri
    (fun i (r : int Campaign.job_result) ->
      check_int "ordered by submission index" i r.Campaign.jr_id;
      check_string "label preserved" (Printf.sprintf "j%d" i)
        r.Campaign.jr_label;
      match r.Campaign.jr_value with
      | Ok v -> check_int "value" (i * i) v
      | Error e -> Alcotest.failf "job %d raised: %s" i e)
    results;
  check_int "jobs accounted" 16 stats.Campaign.ps_jobs;
  check_int "one busy slot per worker" stats.Campaign.ps_domains
    (Array.length stats.Campaign.ps_busy)

(* A raising job becomes an [Error] result carrying the exception text;
   the rest of the queue still drains. *)
let test_pool_error_isolation () =
  let jobs =
    [|
      { Campaign.label = "ok1"; work = (fun () -> 1) };
      { Campaign.label = "boom"; work = (fun () -> failwith "kaboom") };
      { Campaign.label = "ok2"; work = (fun () -> 2) };
    |]
  in
  let results, _ = Campaign.run_pool ~domains:2 jobs in
  (match results.(1).Campaign.jr_value with
  | Error e ->
      check_bool "error carries exception text" true (contains e "kaboom");
      (* the backtrace rides along, so a failing job keeps its stderr
         context (dune builds with -g, so frames are recorded) *)
      check_bool "error carries the backtrace" true
        (contains e "Raised" || contains e "Called")
  | Ok _ -> Alcotest.fail "raising job reported Ok");
  (match (results.(0).Campaign.jr_value, results.(2).Campaign.jr_value) with
  | Ok 1, Ok 2 -> ()
  | _ -> Alcotest.fail "surviving jobs lost their results");
  (* the workers that ran the raising job take the next batch *)
  let next =
    Array.init 8 (fun i ->
        { Campaign.label = string_of_int i; work = (fun () -> i + 100) })
  in
  let results, stats = Campaign.run_pool ~domains:2 next in
  check_int "next batch on two workers" 2 stats.Campaign.ps_domains;
  Array.iteri
    (fun i (r : int Campaign.job_result) ->
      match r.Campaign.jr_value with
      | Ok v -> check_int "next batch value" (i + 100) v
      | Error e -> Alcotest.failf "job %d raised: %s" i e)
    results

(* The pool never spawns more workers than jobs, and a non-positive
   width degrades to the inline serial path. *)
let test_pool_clamps_domains () =
  let three =
    Array.init 3 (fun i ->
        { Campaign.label = string_of_int i; work = (fun () -> i) })
  in
  let _, stats = Campaign.run_pool ~domains:8 three in
  check_int "width clamped to job count" 3 stats.Campaign.ps_domains;
  let _, stats = Campaign.run_pool ~domains:0 three in
  check_int "non-positive width runs inline" 1 stats.Campaign.ps_domains;
  check_bool "utilization within [0,1]" true
    (stats.Campaign.ps_utilization >= 0.0
    && stats.Campaign.ps_utilization <= 1.000001)

(* The acceptance check: the full Table 2 testbed (repro + kernel
   differential + a cycle sweep) on four domains produces verdicts
   structurally identical to the serial reference — including $display
   logs, VCD text, symptom lists, and cycle counts. *)
let test_campaign_determinism () =
  let bugs = Registry.all in
  let serial =
    Campaign.run ~domains:1 ~differential:true ~sweeps:[ 100 ] bugs
  in
  let par = Campaign.run ~domains:4 ~differential:true ~sweeps:[ 100 ] bugs in
  check_int "same job count"
    (Array.length serial.Campaign.c_results)
    (Array.length par.Campaign.c_results);
  Array.iteri
    (fun i (s : Campaign.verdict Campaign.job_result) ->
      let p = par.Campaign.c_results.(i) in
      check_string "same label at same index" s.Campaign.jr_label
        p.Campaign.jr_label;
      check_bool
        (Printf.sprintf "verdict %s identical (log, vcd, symptoms)"
           s.Campaign.jr_label)
        true
        (s.Campaign.jr_value = p.Campaign.jr_value))
    serial.Campaign.c_results;
  check_int "same simulated-cycle total" serial.Campaign.c_cycles
    par.Campaign.c_cycles;
  check_bool "every testbed job ok" true (Campaign.ok serial)

(* The JSON report is schema-pinned and carries the aggregate and
   waveform-summary fields CI consumes. *)
let test_to_json_schema () =
  let bug = Option.get (Registry.find "D2") in
  let c = Campaign.run ~domains:2 ~differential:true [ bug ] in
  let json = Campaign.to_json c in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "report contains %s" needle) true
        (contains json needle))
    [
      "\"schema\": \"fpga-debug-campaign/1\"";
      "\"label\": \"repro:D2\"";
      "\"label\": \"differential:D2\"";
      "\"vcd_md5\"";
      "\"pool_utilization\"";
      "\"cycles_per_sec\"";
    ]

(* Telemetry recorded inside worker domains lands in per-domain sinks
   that the pool sums at join. 1+2+...+8 = 36 across two workers. *)
let test_pool_merges_telemetry () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  let counter = Telemetry.Counter.make "campaign.test_bumps" in
  let jobs =
    Array.init 8 (fun i ->
        {
          Campaign.label = Printf.sprintf "bump%d" i;
          work = (fun () -> Telemetry.Counter.bump counter (i + 1));
        })
  in
  let _, stats = Campaign.run_pool ~domains:2 jobs in
  let merged =
    List.assoc_opt "campaign.test_bumps"
      stats.Campaign.ps_telemetry.Telemetry.r_counters
  in
  check_int "merged counter sums every worker's bumps" 36
    (Option.value merged ~default:0);
  check_int "caller's own sink untouched by workers" 0
    (Telemetry.Counter.value counter)

(* The replay job proves checkpoint/replay determinism per bug: a
   window replayed from the serialized middle snapshot is byte-identical
   to the straight run, and a too-short run is vacuously ok. *)
let test_replay_jobs () =
  let bugs =
    List.map (fun id -> Option.get (Registry.find id)) [ "D2"; "D8" ]
  in
  let c = Campaign.run ~domains:2 ~replay_every:50 bugs in
  check_bool "replay jobs all ok" true (Campaign.ok c);
  let find label =
    Array.to_list c.Campaign.c_results
    |> List.find (fun r -> r.Campaign.jr_label = label)
  in
  (match (find "replay:D2:50").Campaign.jr_value with
  | Ok v -> check_bool "D2 replayed a real window" true
      (contains v.Campaign.v_detail "identical to straight run")
  | Error e -> Alcotest.failf "replay:D2:50 raised: %s" e);
  match (find "replay:D8:50").Campaign.jr_value with
  | Ok v ->
      check_bool "short run is vacuously ok" true
        (contains v.Campaign.v_detail "no checkpoints")
  | Error e -> Alcotest.failf "replay:D8:50 raised: %s" e

(* The pool's workers persist across calls: three consecutive batches
   on the same workers, each in a different shuffled order, over the
   full testbed's repro and replay jobs, give the serial run's verdicts
   and waveforms. Per-domain state that outlived a batch (S2's external
   monitor keeps its offered beat in domain-local storage) would show
   here as a verdict or VCD that depends on which batch ran before. *)
let test_pool_batches_reuse_workers () =
  let jobs = Campaign.jobs_of ~replay_every:16 Registry.all in
  let n = Array.length jobs in
  let serial, _ = Campaign.run_pool ~domains:1 jobs in
  let md5 (r : Campaign.verdict Campaign.job_result) =
    match r.Campaign.jr_value with
    | Ok v -> Option.map (fun s -> Digest.to_hex (Digest.string s)) v.Campaign.v_vcd
    | Error e -> Alcotest.failf "%s raised: %s" r.Campaign.jr_label e
  in
  for batch = 1 to 3 do
    let rng = Random.State.make [| batch |] in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let results, stats =
      Campaign.run_pool ~domains:2 (Array.map (fun k -> jobs.(k)) perm)
    in
    check_int "batch ran on two workers" 2 stats.Campaign.ps_domains;
    Array.iteri
      (fun pos k ->
        let s = serial.(k) and p = results.(pos) in
        let what = Printf.sprintf "batch %d %s" batch s.Campaign.jr_label in
        check_string (what ^ " label") s.Campaign.jr_label p.Campaign.jr_label;
        check_bool (what ^ " verdict identical") true
          (s.Campaign.jr_value = p.Campaign.jr_value);
        check_bool (what ^ " vcd md5 identical") true (md5 s = md5 p))
      perm
  done

(* Every batch's shares record into fresh sinks: batch 2's merged
   telemetry holds batch 2's counters and spans only, what the caller
   recorded before the calls is intact, and nothing from the jobs
   reaches the caller's sink. *)
let test_pool_telemetry_per_batch () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  let mine = Telemetry.Counter.make "campaign.test_caller" in
  let bumps = Telemetry.Counter.make "campaign.test_batch" in
  Telemetry.Counter.bump mine 3;
  let batch k =
    Array.init 6 (fun i ->
        {
          Campaign.label = Printf.sprintf "b%d.%d" k i;
          work =
            (fun () ->
              Telemetry.span "campaign.test_span" (fun () ->
                  Telemetry.Counter.bump bumps k));
        })
  in
  let counter (st : Campaign.pool_stats) name =
    List.assoc_opt name st.Campaign.ps_telemetry.Telemetry.r_counters
  in
  let _, first = Campaign.run_pool ~domains:2 (batch 1) in
  let _, second = Campaign.run_pool ~domains:2 (batch 10) in
  check_int "batch 1 counted its own bumps" 6
    (Option.value (counter first "campaign.test_batch") ~default:0);
  check_int "batch 2 holds only batch 2's bumps" 60
    (Option.value (counter second "campaign.test_batch") ~default:0);
  (match
     List.find_opt
       (fun (name, _, _) -> name = "campaign.test_span")
       second.Campaign.ps_telemetry.Telemetry.r_spans
   with
  | Some (_, calls, _) -> check_int "batch 2's spans only" 6 calls
  | None -> Alcotest.fail "batch 2 lost its spans");
  check_bool "caller's counters stay out of the batch" true
    (counter second "campaign.test_caller" = None);
  check_int "caller's counter intact" 3 (Telemetry.Counter.value mine);
  check_int "no job bump reached the caller's sink" 0
    (Telemetry.Counter.value bumps);
  check_bool "caller's switch intact" true (Telemetry.enabled ())

(* A job may itself call the pool: the nested call finds the workers
   busy and runs inline, so it can neither deadlock nor disturb the
   outer batch, and the results match a serial run. *)
let test_pool_nested_call_inline () =
  let outer =
    Array.init 6 (fun i ->
        {
          Campaign.label = Printf.sprintf "outer%d" i;
          work =
            (fun () ->
              let inner =
                Array.init 4 (fun j ->
                    { Campaign.label = string_of_int j; work = (fun () -> (i * 10) + j) })
              in
              let results, stats = Campaign.run_pool ~domains:2 inner in
              ( stats.Campaign.ps_domains,
                Array.map (fun r -> r.Campaign.jr_value) results ));
        })
  in
  let serial, _ = Campaign.run_pool ~domains:1 outer in
  let par, stats = Campaign.run_pool ~domains:2 outer in
  check_int "outer batch on two workers" 2 stats.Campaign.ps_domains;
  Array.iteri
    (fun i (r : _ Campaign.job_result) ->
      match (r.Campaign.jr_value, serial.(i).Campaign.jr_value) with
      | Ok (width, values), Ok (_, reference) ->
          check_int "nested call ran inline" 1 width;
          check_bool "nested results match serial" true (values = reference)
      | _ -> Alcotest.failf "outer job %d raised" i)
    par

(* An exception that escapes the pool's own code in a worker, not a
   job, reaches the caller only once every worker has finished (worker
   0 has drained the whole queue by then), and the next call still gets
   the workers. *)
let test_pool_share_escape () =
  let ran = Atomic.make 0 in
  let jobs k =
    Array.init 8 (fun i ->
        {
          Campaign.label = string_of_int i;
          work =
            (fun () ->
              Atomic.incr ran;
              i + k);
        })
  in
  let raised =
    Fun.protect ~finally:(fun () -> Campaign.share_hook := ignore)
    @@ fun () ->
    Campaign.share_hook := (fun w -> if w = 1 then failwith "share 1");
    match Campaign.run_pool ~domains:2 (jobs 0) with
    | _ -> None
    | exception Failure m -> Some m
  in
  Alcotest.(check (option string))
    "worker 1's failure reached the caller" (Some "share 1") raised;
  check_int "worker 0 finished its share first" 8 (Atomic.get ran);
  let results, stats = Campaign.run_pool ~domains:2 (jobs 100) in
  check_int "next call still on two workers" 2 stats.Campaign.ps_domains;
  Array.iteri
    (fun i (r : int Campaign.job_result) ->
      match r.Campaign.jr_value with
      | Ok v -> check_int "next call value" (i + 100) v
      | Error e -> Alcotest.failf "job %d raised: %s" i e)
    results

(* The campaign's differential and replay jobs and the fuzzer compare
   runs with one function; a divergence only the external monitor sees
   must count as one. *)
let test_reports_differ_in_ext_error () =
  let module Bug = Fpga_testbed.Bug in
  let bug = Option.get (Registry.find "S2") in
  let a = Bug.run bug ~buggy:true in
  check_bool "a run agrees with itself" true (Bug.diff_reports a a = None);
  Alcotest.(check (option string))
    "external monitor" (Some "external-monitor flag differs (true vs false)")
    (Bug.diff_reports a { a with Bug.ext_error = not a.Bug.ext_error })

let suite =
  [
    Alcotest.test_case "pool preserves submission order" `Quick
      test_pool_ordering;
    Alcotest.test_case "raising job isolated as Error" `Quick
      test_pool_error_isolation;
    Alcotest.test_case "pool width clamps" `Quick test_pool_clamps_domains;
    Alcotest.test_case "full-testbed campaign deterministic across widths"
      `Quick test_campaign_determinism;
    Alcotest.test_case "json report schema-pinned" `Quick test_to_json_schema;
    Alcotest.test_case "replay jobs prove checkpoint determinism" `Quick
      test_replay_jobs;
    Alcotest.test_case "worker telemetry merged at join" `Quick
      test_pool_merges_telemetry;
    Alcotest.test_case "consecutive batches on the same workers match serial"
      `Quick test_pool_batches_reuse_workers;
    Alcotest.test_case "each batch records into fresh sinks" `Quick
      test_pool_telemetry_per_batch;
    Alcotest.test_case "nested pool call runs inline" `Quick
      test_pool_nested_call_inline;
    Alcotest.test_case "a failed share is re-raised after the batch" `Quick
      test_pool_share_escape;
    Alcotest.test_case "reports differing only in ext_error differ" `Quick
      test_reports_differ_in_ext_error;
  ]
