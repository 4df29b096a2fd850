(* fuzz: Fuzz.run_one over a fresh stretch of mutant indices that never
   repeats, on one domain at the program's default primary kernel:
   mutation, the validity gate, then five short simulations per valid
   mutant. Where the mutation, analysis and simulations-per-mutant
   layers show, and where the pool does nothing. *)

module Fuzz = Fpga_fuzz.Fuzz
module Mutate = Fpga_fuzz.Mutate

(* 8 mutants of each of the 8 targets (indices go round-robin) *)
let per_pass = 64

(* warm-up indices, far from any timed stretch *)
let warmup_base = 1_000_000_000

let domains = 1
let pass_seconds = 0.045

type prepared = { seed : int }

let real ~seed ~index =
  let r = Fuzz.run_one ~seed ~index () in
  (r.Fuzz.r_bug, r.Fuzz.r_mutations, r.Fuzz.r_outcome)

let item ~seed ~index ~composed =
  let r, wall, words =
    Item.timed (fun () ->
        Item.run ~composed (fun () ->
            if composed then
              let bug, muts, outcome = Compose.fuzz_one ~seed ~index in
              (bug.Fpga_testbed.Bug.id, muts, outcome)
            else real ~seed ~index))
  in
  let outcome, it =
    match r with
    | Ok ((bug, muts, outcome), layers) ->
        ( Some outcome,
          {
            Item.wall;
            words;
            digest =
              Item.digest_of
                (bug :: Fuzz.outcome_name outcome :: Fuzz.outcome_detail outcome
                :: List.map Mutate.mutation_to_string muts);
            failure =
              (match outcome with
              | Fuzz.Kernel_mismatch why ->
                  Some (Printf.sprintf "mutant %d: kernel mismatch: %s" index why)
              | _ -> None);
            layers;
          } )
    | Error e ->
        ( None,
          {
            Item.wall;
            words;
            digest = e;
            failure = Some (Printf.sprintf "mutant %d raised: %s" index e);
            layers = None;
          } )
  in
  (outcome, it)

let pass p i ~composed : Item.pass =
  let results =
    Array.init per_pass (fun k ->
        item ~seed:p.seed ~index:((i * per_pass) + k) ~composed)
  in
  let count name =
    Array.fold_left
      (fun n (o, _) ->
        match o with Some o when Fuzz.outcome_name o = name -> n + 1 | _ -> n)
      0 results
  in
  let items = Array.map snd results in
  {
    Item.items;
    wall = Array.fold_left (fun s (it : Item.t) -> s +. it.Item.wall) 0.0 items;
    busy_share = None;
    pool = None;
    segments = [];
    counts =
      [
        ("invalid", count "invalid");
        ("equivalent", count "equivalent");
        ("symptom_divergent", count "symptom-divergent");
        ("kernel_mismatch", count "kernel-mismatch");
        ( "minor_words",
          Array.fold_left
            (fun s (it : Item.t) -> s + int_of_float it.Item.words)
            0 items );
      ];
  }

let setup ~seed =
  (* the null hypothesis: every target, unmutated, is Equivalent *)
  List.iter
    (fun (bug : Fpga_testbed.Bug.t) ->
      match Fuzz.classify_identity bug with
      | Fuzz.Equivalent -> ()
      | o ->
          failwith
            (Printf.sprintf "%s unmutated classifies as %s" bug.Fpga_testbed.Bug.id
               (Fuzz.outcome_name o)))
    Fuzz.targets;
  for k = 0 to per_pass - 1 do
    ignore (item ~seed ~index:(warmup_base + k) ~composed:false)
  done;
  { seed }
