(* Differential fuzz driver.

   A mutant is a pure function of (seed, index): the index picks the
   target design round-robin and [Mutate.derive seed index] seeds the
   per-mutant PRNG, so generation needs no shared state and any worker
   of the campaign pool reproduces any mutant in isolation — the
   property that makes parallel fuzz runs byte-identical to serial
   ones and `fpga-debug fuzz --seed N` a replay command.

   Classification compares runs of the same harness (the primary
   kernel is [Simulator.default_kernel], the one [Simulator.create]
   builds when none is given):

     primary kernel  vs  brute-force kernel      (scheduling differential)
     primary kernel  vs  primary + telemetry on  (observer differential)
     primary kernel  vs  the unmutated design    (symptom differential)

   The first two disagreeing is a kernel/tool bug (the finding); the
   third is just the injected bug's symptom. Crashes are part of the
   observable behavior: one kernel raising while the other completes,
   or both raising differently, is a mismatch too.

   A valid mutant is simulated three times: primary, brute force and
   telemetry on. The symptom differential reuses the primary run, and
   the unmutated base is run once per process per target (see "The
   unmutated base" below); that memoised run never appears in traces
   or counters. *)

module Pp = Fpga_hdl.Pp_verilog
module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Simulator = Fpga_sim.Simulator
module Taxonomy = Fpga_study.Taxonomy
module Telemetry = Fpga_telemetry.Telemetry

type outcome =
  | Invalid of string
  | Equivalent
  | Symptom_divergent of string list
  | Kernel_mismatch of string

let outcome_name = function
  | Invalid _ -> "invalid"
  | Equivalent -> "equivalent"
  | Symptom_divergent _ -> "symptom-divergent"
  | Kernel_mismatch _ -> "kernel-mismatch"

let outcome_detail = function
  | Invalid reason -> reason
  | Equivalent -> ""
  | Symptom_divergent symptoms -> String.concat "; " symptoms
  | Kernel_mismatch why -> why

type result = {
  r_seed : int;
  r_index : int;
  r_sub_seed : int;
  r_bug : string;
  r_mutations : Mutate.mutation list;
  r_outcome : outcome;
  r_minimized : Mutate.mutation list;
  r_repro : string option;
}

let targets = Registry.fuzz_targets

let target_of_index index =
  List.nth targets (index mod List.length targets)

(* ------------------------------------------------------------------ *)
(* The unmutated base                                                  *)
(* ------------------------------------------------------------------ *)

(* A crash is data, not a failure of the fuzzer. *)
let safe f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let run_kernel ?kernel bug d = safe (fun () -> Bug.run_design ?kernel bug d)

(* Every mutant of a target starts from, is gated against and is
   compared with the same unmutated design: [Bug.design_of]'s shared
   parse of the fixed source. Its primary run is computed once and
   shared by every domain, in an entry that belongs to one physical
   [Bug.t]. A run is served only for that shared design, so a caller's
   own base is simulated afresh. Runs are computed under
   [Telemetry.quietly]: whichever run of a campaign computes one, every
   run records the same trace and counters. *)
let base_memo : (Bug.t * (Bug.report, string) Stdlib.result) list ref = ref []
let base_lock = Mutex.create ()

let base_design bug = Bug.design_of bug ~buggy:false

let base_run bug base =
  if base != base_design bug then run_kernel bug base
  else
    Mutex.protect base_lock (fun () ->
        match List.find_opt (fun (b, _) -> b == bug) !base_memo with
        | Some (_, run) -> run
        | None ->
            let run = Telemetry.quietly (fun () -> run_kernel bug base) in
            base_memo := (bug, run) :: !base_memo;
            run)

let clear_base_memo () = Mutex.protect base_lock (fun () -> base_memo := [])

(* ------------------------------------------------------------------ *)
(* Corpus generation                                                   *)
(* ------------------------------------------------------------------ *)

(* 1-3 stacked mutations of the bug's FIXED design: starting from
   correct code makes "symptom-divergent" mean "the mutation injected
   a bug", mirroring how the study's 13 subclasses arose in real
   designs. Mutating an already-buggy design would only blur that
   reading; the kernels must agree either way. *)
let generate ~seed ~index =
  let bug = target_of_index index in
  let r = Mutate.rng (Mutate.derive seed index) in
  let base = base_design bug in
  let want = 1 + Mutate.rng_int r 3 in
  let rec gen d acc k =
    if k = 0 then (d, List.rev acc)
    else
      match Mutate.pick r d with
      | Some (d', mu) -> gen d' (mu :: acc) (k - 1)
      | None -> (d, List.rev acc)
  in
  let mutant, muts = gen base [] want in
  (bug, mutant, muts)

(* ------------------------------------------------------------------ *)
(* Differential runs                                                   *)
(* ------------------------------------------------------------------ *)

(* Same kernel, telemetry recording on — instrumentation must be
   observationally invisible. The worker's per-domain switch is
   restored afterwards so the surrounding campaign stays uninstrumented. *)
let run_instrumented bug d =
  safe (fun () ->
      let was = Telemetry.enabled () in
      if not was then Telemetry.enable ();
      Fun.protect
        ~finally:(fun () -> if not was then Telemetry.disable ())
        (fun () -> Bug.run_design bug d))

let diff_reports (a : Bug.report) (b : Bug.report) : string option =
  if a.Bug.rows <> b.Bug.rows then
    Some
      (Printf.sprintf "output rows differ (%d vs %d rows)"
         (List.length a.Bug.rows) (List.length b.Bug.rows))
  else if a.Bug.log <> b.Bug.log then Some "$display logs differ"
  else if a.Bug.stuck <> b.Bug.stuck then
    Some (Printf.sprintf "stuck flag differs (%b vs %b)" a.Bug.stuck b.Bug.stuck)
  else if a.Bug.finished <> b.Bug.finished then
    Some
      (Printf.sprintf "finished flag differs (%b vs %b)" a.Bug.finished
         b.Bug.finished)
  else if a.Bug.ext_error <> b.Bug.ext_error then
    Some
      (Printf.sprintf "external-monitor flag differs (%b vs %b)" a.Bug.ext_error
         b.Bug.ext_error)
  else if a.Bug.cycles <> b.Bug.cycles then
    Some (Printf.sprintf "cycle counts differ (%d vs %d)" a.Bug.cycles b.Bug.cycles)
  else None

let diff_runs a b =
  match (a, b) with
  | Ok a, Ok b -> diff_reports a b
  | Error e, Error f ->
      if String.equal e f then None
      else Some (Printf.sprintf "crashes differ (%s vs %s)" e f)
  | Ok _, Error e -> Some ("second run crashed: " ^ e)
  | Error e, Ok _ -> Some ("first run crashed: " ^ e)

(* The finding predicate: do the primary and brute-force kernels, and
   the instrumented vs uninstrumented primary kernel, tell the same
   story about [d]? Returns the primary run with the verdict, for the
   symptom differential to reuse. *)
let differential bug d =
  let pr = run_kernel bug d in
  let bf = run_kernel ~kernel:Simulator.Brute_force bug d in
  match diff_runs pr bf with
  | Some why ->
      let primary = Simulator.kernel_name Simulator.default_kernel in
      (pr, Some (primary ^ " vs brute-force: " ^ why))
  | None -> (
      match diff_runs pr (run_instrumented bug d) with
      | Some why -> (pr, Some ("telemetry-off vs telemetry-on: " ^ why))
      | None -> (pr, None))

(* The symptom differential, once the kernels agree: the valid mutant's
   primary run against the unmutated base's. *)
let symptom_outcome bug ~base mutant_run =
  let base_run = base_run bug base in
  match diff_runs mutant_run base_run with
  | None -> Equivalent
  | Some why ->
      let symptoms =
        match (mutant_run, base_run) with
        | Ok m, Ok b ->
            Bug.symptoms_of ~buggy:m ~fixed:b |> List.map Taxonomy.symptom_name
        | Error _, _ | _, Error _ -> [ "crash" ]
      in
      Symptom_divergent (if symptoms = [] then [ why ] else symptoms)

let classify bug ~base d =
  match Mutate.validate ~top:bug.Bug.top ~baseline:base d with
  | Error reason -> Invalid reason
  | Ok valid -> (
      match differential bug valid with
      | _, Some why -> Kernel_mismatch why
      | mutant_run, None -> symptom_outcome bug ~base mutant_run)

let classify_identity bug =
  let base = base_design bug in
  classify bug ~base base

(* ------------------------------------------------------------------ *)
(* Minimization and reproducers                                        *)
(* ------------------------------------------------------------------ *)

(* Does mutation subset [ms], re-applied to the base design, still
   produce a valid mutant with a kernel mismatch? (Sites re-resolve
   against the evolving design, so a subset can denote slightly
   different nodes than it did inside the full sequence — the check
   keeps a subset only when the mismatch genuinely persists.) *)
let check_subset bug base ms =
  match Mutate.apply_all base ms with
  | None -> None
  | Some (d, ms') -> (
      match Mutate.validate ~top:bug.Bug.top ~baseline:base d with
      | Error _ -> None
      | Ok valid -> (
          match differential bug valid with
          | _, Some why -> Some (ms', valid, why)
          | _, None -> None))

(* Greedy one-at-a-time reduction: drop the first mutation whose
   removal preserves the mismatch, restart; fixed order makes the
   minimizer as deterministic as the generator. *)
let minimize bug base (muts, d, why) =
  let rec shrink ((cur, _, _) as state) =
    let n = List.length cur in
    if n <= 1 then state
    else
      let rec try_drop i =
        if i >= n then state
        else
          let candidate = List.filteri (fun j _ -> j <> i) cur in
          match check_subset bug base candidate with
          | Some smaller -> shrink smaller
          | None -> try_drop (i + 1)
      in
      try_drop 0
  in
  shrink (muts, d, why)

let repro_text ~bug ~seed ~index ~sub_seed ~why ~mutations design =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "// fpga-debug fuzz reproducer: kernel mismatch\n";
  add "// target: %s (%s)  top: %s\n" bug.Bug.id bug.Bug.application bug.Bug.top;
  add "// seed: %d  index: %d  sub-seed: %d\n" seed index sub_seed;
  add "// replay: fpga-debug fuzz --seed %d --mutants %d\n" seed (index + 1);
  add "// mismatch: %s\n" why;
  add "// mutations (minimized):\n";
  List.iter (fun mu -> add "//   %s\n" (Mutate.mutation_to_string mu)) mutations;
  add "\n%s" (Pp.design_to_string design);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* One mutant, end to end                                              *)
(* ------------------------------------------------------------------ *)

let run_one ~seed ~index () =
  let sub_seed = Mutate.derive seed index in
  let bug, mutant, muts =
    Telemetry.span "fuzz.generate" (fun () -> generate ~seed ~index)
  in
  let base = base_design bug in
  let mk outcome minimized repro =
    {
      r_seed = seed;
      r_index = index;
      r_sub_seed = sub_seed;
      r_bug = bug.Bug.id;
      r_mutations = muts;
      r_outcome = outcome;
      r_minimized = minimized;
      r_repro = repro;
    }
  in
  match Mutate.validate ~top:bug.Bug.top ~baseline:base mutant with
  | Error reason -> mk (Invalid reason) muts None
  | Ok valid -> (
      match
        Telemetry.span "fuzz.differential" (fun () ->
            differential bug valid)
      with
      | _, Some why ->
          let min_muts, min_design, min_why =
            Telemetry.span "fuzz.minimize" (fun () ->
                minimize bug base (muts, valid, why))
          in
          let repro =
            repro_text ~bug ~seed ~index ~sub_seed ~why:min_why
              ~mutations:min_muts min_design
          in
          mk (Kernel_mismatch min_why) min_muts (Some repro)
      | mutant_run, None ->
          mk (symptom_outcome bug ~base mutant_run) muts None)
