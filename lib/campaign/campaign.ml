(* Campaign engine: a work-queue + Domain-pool executor for batches of
   independent simulation jobs (every testbed bug, parameter sweeps,
   event-vs-brute differential pairs).

   The execution model is a single shared queue drained by N domains:
   a job index is claimed with [Atomic.fetch_and_add], the job runs on
   whichever domain claimed it, and its result is slotted into a
   results array at the job's own index. Slot writes are disjoint by
   construction and [Domain.join] establishes the happens-before edge
   that makes them visible to the collector, so result order is the
   submission order no matter how the pool interleaved the work -
   the determinism guarantee the campaign tests pin down.

   Jobs must be self-contained closures: they share no mutable state
   with each other, and the telemetry they record lands in per-domain
   sinks (see Fpga_telemetry) that the pool merges at join. *)

module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Simulator = Fpga_sim.Simulator
module Taxonomy = Fpga_study.Taxonomy
module Telemetry = Fpga_telemetry.Telemetry
module Trace = Fpga_telemetry.Telemetry.Trace
module Trace_export = Fpga_telemetry.Trace_export

(* ------------------------------------------------------------------ *)
(* Generic domain pool                                                 *)
(* ------------------------------------------------------------------ *)

type 'a job = { label : string; work : unit -> 'a }

type 'a job_result = {
  jr_id : int;  (* submission index; results arrays are ordered by it *)
  jr_label : string;
  jr_wall : float;  (* seconds spent executing the job body *)
  jr_domain : int;  (* 0-based index of the worker that ran it *)
  jr_value : ('a, string) result;  (* Error carries the exception text *)
  jr_trace : Trace.segment;
      (* the job's slice of its worker's trace buffer (empty when
         tracing is off): rebased, so identical at any pool width *)
}

type pool_stats = {
  ps_domains : int;
  ps_jobs : int;
  ps_wall : float;  (* submission to last join *)
  ps_busy : float array;  (* per-worker seconds spent inside job bodies *)
  ps_utilization : float;  (* sum busy / (domains * wall), 0 when idle *)
  ps_telemetry : Telemetry.report;  (* merged across all worker sinks *)
}

let now = Unix.gettimeofday

(* Run every job from the shared queue on [domains] workers (default
   [Domain.recommended_domain_count ()], min 1). [domains <= 1] runs
   the whole batch inline on the calling domain - same code path, no
   spawns - which is also the serial reference the determinism tests
   compare against. A raising job is caught and reported as [Error];
   it never takes down the pool or skips the remaining queue. *)
let run_pool ?domains (jobs : 'a job array) :
    'a job_result array * pool_stats =
  (* error isolation must not cost context: the Error result carries
     the backtrace, not just the exception text *)
  Printexc.record_backtrace true;
  let n = Array.length jobs in
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let domains = min domains (max 1 n) in
  let results : 'a job_result option array = Array.make n None in
  let next = Atomic.make 0 in
  let t0 = now () in
  (* Each worker drains the queue and accounts its own busy time and
     telemetry; slot [i] of [results] is written by exactly the worker
     that claimed index [i]. *)
  let worker wid () =
    Printexc.record_backtrace true;
    (* every job records on its worker's own track (tid wid+1; 0 is the
       main domain). The track is restored afterwards because in the
       inline (domains <= 1) case this IS the caller's sink. *)
    let tracing = Trace.enabled () in
    let track0 = Trace.track () in
    if tracing then Trace.set_track (wid + 1);
    let busy = ref 0.0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then (
        let job = jobs.(i) in
        let mark = if tracing then Trace.mark () else 0 in
        let jt0 = now () in
        let value =
          try Ok (Trace.with_span ~cat:"job" job.label job.work)
          with e ->
            let bt = Printexc.get_backtrace () in
            Error
              (Printexc.to_string e
              ^ if String.trim bt = "" then "" else "\n" ^ String.trim bt)
        in
        let wall = now () -. jt0 in
        busy := !busy +. wall;
        (* slice this job's events out of the worker's buffer (and
           consume them, so a long campaign never hits the trace cap
           from sheer job count); the rebased segment is slotted by
           submission index like every other result field *)
        let seg =
          if tracing then Trace.capture_since ~consume:true mark
          else Trace.empty_segment
        in
        results.(i) <-
          Some
            {
              jr_id = i;
              jr_label = job.label;
              jr_wall = wall;
              jr_domain = wid;
              jr_value = value;
              jr_trace = seg;
            };
        drain ())
    in
    drain ();
    if tracing then Trace.set_track track0;
    (!busy, Telemetry.report ())
  in
  let per_worker =
    if domains <= 1 then [| worker 0 () |]
    else (
      (* the caller's sink keeps whatever it already holds; workers
         start from empty sinks (inheriting only the on/off switch and
         sampling knob) so the merge below is purely the campaign's *)
      let handles =
        Array.init domains (fun wid -> Domain.spawn (worker wid))
      in
      Array.map Domain.join handles)
  in
  let wall = now () -. t0 in
  let busy = Array.map fst per_worker in
  let telemetry =
    Array.fold_left
      (fun acc (_, r) -> Telemetry.merge acc r)
      Telemetry.empty_report per_worker
  in
  let total_busy = Array.fold_left ( +. ) 0.0 busy in
  let stats =
    {
      ps_domains = domains;
      ps_jobs = n;
      ps_wall = wall;
      ps_busy = busy;
      ps_utilization =
        (if wall > 0.0 && n > 0 then
           total_busy /. (float_of_int domains *. wall)
         else 0.0);
      ps_telemetry = telemetry;
    }
  in
  let results =
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index < n was claimed *))
      results
  in
  (results, stats)

(* ------------------------------------------------------------------ *)
(* Testbed jobs                                                        *)
(* ------------------------------------------------------------------ *)

(* What a campaign job observed, uniformly across job kinds so the
   report and the determinism tests can compare serial and parallel
   runs field by field. *)
type verdict = {
  v_bug : string;
  v_kind : string;  (* "repro" | "differential" | "sweep:<cycles>" *)
  v_cycles : int;  (* cycles actually simulated, all runs summed *)
  v_ok : bool;
  v_detail : string;
  v_symptoms : string list;
  v_log : (int * string) list;  (* buggy-run $display log *)
  v_vcd : string option;  (* buggy-run waveform (repro jobs) *)
}

(* Differential reproduction of one bug, with a waveform captured on
   the buggy side: ok = every Table 2 symptom manifests. *)
let repro_job ?kernel (bug : Bug.t) : verdict job =
  {
    label = Printf.sprintf "repro:%s" bug.Bug.id;
    work =
      (fun () ->
        let buggy =
          Bug.run_design ~vcd:true ?kernel bug (Bug.design_of bug ~buggy:true)
        in
        let fixed =
          Bug.run_design ?kernel bug (Bug.design_of bug ~buggy:false)
        in
        let symptoms = Bug.symptoms_of ~buggy ~fixed in
        let ok = Bug.reproduces_of ~bug ~buggy ~fixed in
        {
          v_bug = bug.Bug.id;
          v_kind = "repro";
          v_cycles = buggy.Bug.cycles + fixed.Bug.cycles;
          v_ok = ok;
          v_detail =
            Printf.sprintf "%d rows buggy, %d rows fixed"
              (List.length buggy.Bug.rows)
              (List.length fixed.Bug.rows);
          v_symptoms = List.map Taxonomy.symptom_name symptoms;
          v_log = buggy.Bug.log;
          v_vcd = buggy.Bug.vcd;
        });
  }

(* Primary settle kernel vs the brute-force reference over the buggy
   design: ok = observationally identical reports. *)
let differential_job ?(kernel = Simulator.default_kernel) (bug : Bug.t) :
    verdict job =
  {
    label = Printf.sprintf "differential:%s" bug.Bug.id;
    work =
      (fun () ->
        let design = Bug.design_of bug ~buggy:true in
        let pr = Bug.run_design ~kernel bug design in
        let bf = Bug.run_design ~kernel:Simulator.Brute_force bug design in
        let agree =
          pr.Bug.log = bf.Bug.log
          && pr.Bug.rows = bf.Bug.rows
          && pr.Bug.stuck = bf.Bug.stuck
          && pr.Bug.finished = bf.Bug.finished
          && pr.Bug.cycles = bf.Bug.cycles
        in
        {
          v_bug = bug.Bug.id;
          v_kind = "differential";
          v_cycles = pr.Bug.cycles + bf.Bug.cycles;
          v_ok = agree;
          v_detail =
            (if agree then "kernels agree"
             else
               Simulator.kernel_name kernel
               ^ " and brute-force kernels diverge");
          v_symptoms = [];
          v_log = pr.Bug.log;
          v_vcd = None;
        });
  }

(* Buggy run under a non-default cycle budget - the parameter-sweep
   axis of the campaign. *)
let sweep_job ?kernel ~cycles (bug : Bug.t) : verdict job =
  {
    label = Printf.sprintf "sweep:%s:%d" bug.Bug.id cycles;
    work =
      (fun () ->
        let r =
          Bug.run_design ?kernel ~max_cycles:cycles bug
            (Bug.design_of bug ~buggy:true)
        in
        {
          v_bug = bug.Bug.id;
          v_kind = Printf.sprintf "sweep:%d" cycles;
          v_cycles = r.Bug.cycles;
          v_ok = true;
          v_detail =
            Printf.sprintf "%d rows in %d cycles%s" (List.length r.Bug.rows)
              r.Bug.cycles
              (if r.Bug.stuck then ", stuck" else "");
          v_symptoms = [];
          v_log = r.Bug.log;
          v_vcd = None;
        });
  }

(* Checkpoint/replay determinism over one bug: record a checkpoint
   stream, restore the middle snapshot through the serialized wire
   format, and demand the replayed window be byte-identical to the
   straight run - waveform included. This is the campaign-scale form
   of the replay gate CI runs on a single bug. *)
let replay_job ~every (bug : Bug.t) : verdict job =
  {
    label = Printf.sprintf "replay:%s:%d" bug.Bug.id every;
    work =
      (fun () ->
        let module Replay = Fpga_testbed.Replay in
        let module Checkpoint = Fpga_sim.Checkpoint in
        let rc = Replay.record ~every bug in
        match rc.Replay.rec_checkpoints with
        | [] ->
            {
              v_bug = bug.Bug.id;
              v_kind = Printf.sprintf "replay:%d" every;
              v_cycles = rc.Replay.rec_report.Bug.cycles;
              v_ok = true;
              v_detail =
                Printf.sprintf
                  "no checkpoints: run ended after %d cycles (< every=%d)"
                  rc.Replay.rec_report.Bug.cycles every;
              v_symptoms = [];
              v_log = rc.Replay.rec_report.Bug.log;
              v_vcd = None;
            }
        | cps ->
            let mid = List.nth cps ((List.length cps - 1) / 2) in
            (* round-trip through the wire format so the job also
               exercises serialization, not just in-memory restore *)
            let mid = Checkpoint.of_string (Checkpoint.to_string mid) in
            let design = Bug.design_of bug ~buggy:true in
            let straight =
              Bug.run_design ~vcd:true ~vcd_from:mid.Checkpoint.ck_cycle bug
                design
            in
            let replayed = Replay.replay ~from:mid bug in
            let agree =
              straight.Bug.vcd = replayed.Bug.vcd
              && straight.Bug.rows = replayed.Bug.rows
              && straight.Bug.log = replayed.Bug.log
              && straight.Bug.stuck = replayed.Bug.stuck
              && straight.Bug.finished = replayed.Bug.finished
              && straight.Bug.cycles = replayed.Bug.cycles
            in
            {
              v_bug = bug.Bug.id;
              v_kind = Printf.sprintf "replay:%d" every;
              v_cycles =
                rc.Replay.rec_report.Bug.cycles + straight.Bug.cycles
                + (replayed.Bug.cycles - mid.Checkpoint.ck_cycle);
              v_ok = agree;
              v_detail =
                (if agree then
                   Printf.sprintf
                     "replay from cycle %d identical to straight run \
                      (%d-cycle window)"
                     mid.Checkpoint.ck_cycle
                     (replayed.Bug.cycles - mid.Checkpoint.ck_cycle)
                 else
                   Printf.sprintf "replay from cycle %d DIVERGES"
                     mid.Checkpoint.ck_cycle);
              v_symptoms = [];
              v_log = replayed.Bug.log;
              v_vcd = replayed.Bug.vcd;
            });
  }

(* ------------------------------------------------------------------ *)
(* Campaign = job list + pool run + aggregates                         *)
(* ------------------------------------------------------------------ *)

type t = {
  c_results : verdict job_result array;  (* ordered by job id *)
  c_stats : pool_stats;
  c_cycles : int;  (* simulated cycles across all jobs *)
}

let jobs_of ?kernel ?(differential = false) ?(sweeps = []) ?replay_every
    (bugs : Bug.t list) : verdict job array =
  let repro = List.map (repro_job ?kernel) bugs in
  let diff =
    if differential then List.map (differential_job ?kernel) bugs else []
  in
  let sweep =
    List.concat_map
      (fun c -> List.map (sweep_job ?kernel ~cycles:c) bugs)
      sweeps
  in
  let replay =
    match replay_every with
    | Some every when every > 0 -> List.map (replay_job ~every) bugs
    | _ -> []
  in
  Array.of_list (repro @ diff @ sweep @ replay)

let run ?domains ?kernel ?differential ?sweeps ?replay_every
    (bugs : Bug.t list) : t =
  let jobs = jobs_of ?kernel ?differential ?sweeps ?replay_every bugs in
  let results, stats = run_pool ?domains jobs in
  let cycles =
    Array.fold_left
      (fun acc r ->
        match r.jr_value with Ok v -> acc + v.v_cycles | Error _ -> acc)
      0 results
  in
  { c_results = results; c_stats = stats; c_cycles = cycles }

let ok (c : t) =
  Array.for_all
    (fun r -> match r.jr_value with Ok v -> v.v_ok | Error _ -> false)
    c.c_results

(* Per-job trace segments in submission order, ready for
   [Trace_export.to_json ~jobs]. Labels keep their "kind:..." shape. *)
let trace_segments (c : t) =
  Array.to_list c.c_results |> List.map (fun r -> (r.jr_label, r.jr_trace))

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* Schema-pinned machine-readable report. Waveforms are summarized as
   (length, MD5) rather than inlined: enough for byte-identity checks
   across runs without multi-megabyte reports. *)
let to_json (c : t) : string =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"schema\": \"fpga-debug-campaign/1\",\n";
  add "  \"domains\": %d,\n" c.c_stats.ps_domains;
  add "  \"jobs\": [\n";
  let njobs = Array.length c.c_results in
  Array.iteri
    (fun i r ->
      add "    {\"id\": %d, \"label\": %S, \"domain\": %d, \"wall\": %.6f, "
        r.jr_id r.jr_label r.jr_domain r.jr_wall;
      (match r.jr_value with
      | Error e -> add "\"error\": \"%s\"" (Trace_export.escape e)
      | Ok v ->
          add "\"bug\": %S, \"kind\": %S, \"ok\": %b, \"cycles\": %d, "
            v.v_bug v.v_kind v.v_ok v.v_cycles;
          add "\"symptoms\": [%s], "
            (String.concat ", "
               (List.map (fun s -> Printf.sprintf "%S" s) v.v_symptoms));
          add "\"log_lines\": %d, " (List.length v.v_log);
          (match v.v_vcd with
          | Some vcd ->
              add "\"vcd_bytes\": %d, \"vcd_md5\": %S" (String.length vcd)
                (Digest.to_hex (Digest.string vcd))
          | None -> add "\"vcd_bytes\": 0, \"vcd_md5\": \"\"");
          add ", \"detail\": \"%s\"" (Trace_export.escape v.v_detail));
      add "}%s\n" (if i = njobs - 1 then "" else ","))
    c.c_results;
  add "  ],\n";
  let failed =
    Array.fold_left
      (fun acc r ->
        acc
        + match r.jr_value with Ok v when v.v_ok -> 0 | _ -> 1)
      0 c.c_results
  in
  add "  \"aggregate\": {\n";
  add "    \"jobs\": %d, \"failed\": %d,\n" njobs failed;
  add "    \"wall_seconds\": %.6f,\n" c.c_stats.ps_wall;
  add "    \"jobs_per_sec\": %.2f,\n"
    (if c.c_stats.ps_wall > 0.0 then
       float_of_int njobs /. c.c_stats.ps_wall
     else 0.0);
  add "    \"cycles\": %d,\n" c.c_cycles;
  add "    \"cycles_per_sec\": %.1f,\n"
    (if c.c_stats.ps_wall > 0.0 then
       float_of_int c.c_cycles /. c.c_stats.ps_wall
     else 0.0);
  add "    \"busy_seconds\": [%s],\n"
    (String.concat ", "
       (Array.to_list
          (Array.map (Printf.sprintf "%.6f") c.c_stats.ps_busy)));
  add "    \"pool_utilization\": %.4f\n" c.c_stats.ps_utilization;
  add "  },\n";
  let tel = c.c_stats.ps_telemetry in
  add "  \"telemetry\": {\"counters\": %d}\n"
    (List.length tel.Telemetry.r_counters);
  add "}\n";
  Buffer.contents buf

let print (c : t) =
  Printf.printf "campaign: %d jobs on %d domain%s\n\n"
    (Array.length c.c_results) c.c_stats.ps_domains
    (if c.c_stats.ps_domains = 1 then "" else "s");
  Printf.printf "  %-20s %-6s %8s  %s\n" "job" "ok" "wall(s)" "detail";
  Array.iter
    (fun r ->
      match r.jr_value with
      | Ok v ->
          Printf.printf "  %-20s %-6s %8.3f  %s%s\n" r.jr_label
            (if v.v_ok then "ok" else "FAIL")
            r.jr_wall v.v_detail
            (match v.v_symptoms with
            | [] -> ""
            | ss -> Printf.sprintf " [%s]" (String.concat ", " ss))
      | Error e ->
          Printf.printf "  %-20s %-6s %8.3f  error: %s\n" r.jr_label "ERROR"
            r.jr_wall e)
    c.c_results;
  Printf.printf
    "\n  %d cycles in %.3f s (%.0f cycles/s, %.2f jobs/s), pool \
     utilization %.0f%%\n"
    c.c_cycles c.c_stats.ps_wall
    (if c.c_stats.ps_wall > 0.0 then
       float_of_int c.c_cycles /. c.c_stats.ps_wall
     else 0.0)
    (if c.c_stats.ps_wall > 0.0 then
       float_of_int (Array.length c.c_results) /. c.c_stats.ps_wall
     else 0.0)
    (100.0 *. c.c_stats.ps_utilization)

(* ------------------------------------------------------------------ *)
(* Fuzz campaigns                                                      *)
(* ------------------------------------------------------------------ *)

module Fuzz = Fpga_fuzz.Fuzz
module Mutate = Fpga_fuzz.Mutate

(* One mutant end to end: generation happens inside the job from
   (seed, index) alone, so the job is self-contained and the pool's
   slot-by-submission-index ordering makes any jobs width produce the
   same results array. *)
let fuzz_job ?kernel ~seed ~index () : Fuzz.result job =
  {
    label =
      Printf.sprintf "fuzz:%d:%s" index (Fuzz.target_of_index index).Bug.id;
    work = (fun () -> Fuzz.run_one ?kernel ~seed ~index ());
  }

type fuzz_campaign = {
  f_seed : int;
  f_kernel : Simulator.kernel;  (* primary kernel of the differential *)
  f_results : Fuzz.result job_result array;  (* ordered by mutant index *)
  f_stats : pool_stats;
}

let run_fuzz ?domains ?(kernel = Simulator.default_kernel) ~seed ~mutants () :
    fuzz_campaign =
  let jobs =
    Array.init mutants (fun index -> fuzz_job ~kernel ~seed ~index ())
  in
  let results, stats = run_pool ?domains jobs in
  { f_seed = seed; f_kernel = kernel; f_results = results; f_stats = stats }

let fuzz_trace_segments (fc : fuzz_campaign) =
  Array.to_list fc.f_results |> List.map (fun r -> (r.jr_label, r.jr_trace))

let fuzz_findings (fc : fuzz_campaign) : Fuzz.result list =
  Array.to_list fc.f_results
  |> List.filter_map (fun r ->
         match r.jr_value with
         | Ok ({ Fuzz.r_outcome = Fuzz.Kernel_mismatch _; _ } as f) -> Some f
         | _ -> None)

(* ok = every job ran (no pool-level errors) and none found a kernel
   mismatch — the CI gate for fuzz-smoke. *)
let fuzz_ok (fc : fuzz_campaign) =
  Array.for_all
    (fun r ->
      match r.jr_value with
      | Ok { Fuzz.r_outcome = Fuzz.Kernel_mismatch _; _ } -> false
      | Ok _ -> true
      | Error _ -> false)
    fc.f_results

let fuzz_counts (fc : fuzz_campaign) =
  let invalid = ref 0
  and equivalent = ref 0
  and divergent = ref 0
  and mismatch = ref 0
  and errors = ref 0 in
  Array.iter
    (fun r ->
      match r.jr_value with
      | Ok { Fuzz.r_outcome = Fuzz.Invalid _; _ } -> incr invalid
      | Ok { Fuzz.r_outcome = Fuzz.Equivalent; _ } -> incr equivalent
      | Ok { Fuzz.r_outcome = Fuzz.Symptom_divergent _; _ } -> incr divergent
      | Ok { Fuzz.r_outcome = Fuzz.Kernel_mismatch _; _ } -> incr mismatch
      | Error _ -> incr errors)
    fc.f_results;
  (!invalid, !equivalent, !divergent, !mismatch, !errors)

(* Schema-pinned fuzz report. Deliberately free of wall times, worker
   ids, domain counts, and telemetry: the acceptance criterion is that
   the same seed produces byte-identical JSON across runs and across
   --jobs widths, so only deterministic fields may appear. Reproducer
   sources are summarized as (bytes, MD5); the full text goes to
   --repro-dir files, not the report. *)
let fuzz_to_json (fc : fuzz_campaign) : string =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let str_list ss =
    String.concat ", "
      (List.map (fun s -> Printf.sprintf "\"%s\"" (Trace_export.escape s)) ss)
  in
  add "{\n  \"schema\": \"fpga-debug-fuzz/2\",\n";
  add "  \"seed\": %d,\n" fc.f_seed;
  add "  \"kernel\": %S,\n" (Simulator.kernel_name fc.f_kernel);
  add "  \"mutants\": %d,\n" (Array.length fc.f_results);
  add "  \"targets\": [%s],\n"
    (str_list (List.map (fun (b : Bug.t) -> b.Bug.id) Fuzz.targets));
  let invalid, equivalent, divergent, mismatch, errors = fuzz_counts fc in
  add
    "  \"counts\": {\"invalid\": %d, \"equivalent\": %d, \
     \"symptom_divergent\": %d, \"kernel_mismatch\": %d, \"job_errors\": \
     %d},\n"
    invalid equivalent divergent mismatch errors;
  add "  \"results\": [\n";
  let n = Array.length fc.f_results in
  Array.iteri
    (fun i r ->
      add "    {\"index\": %d, " i;
      (match r.jr_value with
      | Error e -> add "\"error\": \"%s\"" (Trace_export.escape e)
      | Ok f ->
          add "\"bug\": %S, \"sub_seed\": %d, \"outcome\": %S, " f.Fuzz.r_bug
            f.Fuzz.r_sub_seed
            (Fuzz.outcome_name f.Fuzz.r_outcome);
          add "\"mutations\": [%s], "
            (str_list (List.map Mutate.mutation_to_string f.Fuzz.r_mutations));
          add "\"detail\": \"%s\""
            (Trace_export.escape (Fuzz.outcome_detail f.Fuzz.r_outcome)));
      add "}%s\n" (if i = n - 1 then "" else ","))
    fc.f_results;
  add "  ],\n";
  let findings = fuzz_findings fc in
  add "  \"findings\": [\n";
  let nf = List.length findings in
  List.iteri
    (fun i f ->
      add "    {\"index\": %d, \"bug\": %S, \"mismatch\": \"%s\", "
        f.Fuzz.r_index f.Fuzz.r_bug
        (Trace_export.escape (Fuzz.outcome_detail f.Fuzz.r_outcome));
      add "\"minimized\": [%s], "
        (str_list (List.map Mutate.mutation_to_string f.Fuzz.r_minimized));
      (match f.Fuzz.r_repro with
      | Some src ->
          add "\"repro_bytes\": %d, \"repro_md5\": %S" (String.length src)
            (Digest.to_hex (Digest.string src))
      | None -> add "\"repro_bytes\": 0, \"repro_md5\": \"\"");
      add "}%s\n" (if i = nf - 1 then "" else ","))
    findings;
  add "  ]\n}\n";
  Buffer.contents buf

let print_fuzz (fc : fuzz_campaign) =
  let invalid, equivalent, divergent, mismatch, errors = fuzz_counts fc in
  Printf.printf
    "fuzz campaign: seed %d, %d mutants (%s kernel) on %d domain%s\n\n"
    fc.f_seed (Array.length fc.f_results)
    (Simulator.kernel_name fc.f_kernel)
    fc.f_stats.ps_domains
    (if fc.f_stats.ps_domains = 1 then "" else "s");
  Printf.printf
    "  %d equivalent, %d symptom-divergent, %d invalid, %d kernel \
     mismatch%s, %d job error%s\n"
    equivalent divergent invalid mismatch
    (if mismatch = 1 then "" else "es")
    errors
    (if errors = 1 then "" else "s");
  Array.iter
    (fun r ->
      match r.jr_value with
      | Ok ({ Fuzz.r_outcome = Fuzz.Kernel_mismatch why; _ } as f) ->
          Printf.printf "\n  FINDING %s (mutant %d, sub-seed %d): %s\n"
            f.Fuzz.r_bug f.Fuzz.r_index f.Fuzz.r_sub_seed why;
          List.iter
            (fun mu ->
              Printf.printf "    %s\n" (Mutate.mutation_to_string mu))
            f.Fuzz.r_minimized
      | Ok _ -> ()
      | Error e -> Printf.printf "\n  JOB ERROR %s: %s\n" r.jr_label e)
    fc.f_results;
  Printf.printf "\n  %.3f s wall, %.2f mutants/s, pool utilization %.0f%%\n"
    fc.f_stats.ps_wall
    (if fc.f_stats.ps_wall > 0.0 then
       float_of_int (Array.length fc.f_results) /. fc.f_stats.ps_wall
     else 0.0)
    (100.0 *. fc.f_stats.ps_utilization)
