(* campaign: every Table 2 bug x {repro with VCD, differential against
   brute force, checkpoint replay, Replay.bisect}, one pass per
   Campaign.run_pool call at 2 domains, job order shuffled by the seed.
   Runs last at most 200 cycles, so parsing, elaboration, simulator
   construction, VCD and checkpoint I/O do most of the work; the only
   workload that uses the pool, VCDs or checkpoints. *)

module Bug = Fpga_testbed.Bug
module Campaign = Fpga_campaign.Campaign
module Registry = Fpga_testbed.Registry
module Replay = Fpga_testbed.Replay
module Taxonomy = Fpga_study.Taxonomy

(* the width `fpga-debug campaign` picks on a 2-core machine *)
let domains = 2

(* several snapshots within runs of 60-200 cycles *)
let every = 16

let pass_seconds = 0.057

type kind = Repro | Differential | Replay_job | Bisect
type spec = { kind : kind; bug : Bug.t }
type out = Verdict of Campaign.verdict | Bisected of Replay.bisect_result

let label s =
  let id = s.bug.Bug.id in
  match s.kind with
  | Repro -> "repro:" ^ id
  | Differential -> "differential:" ^ id
  | Replay_job -> Printf.sprintf "replay:%s:%d" id every
  | Bisect -> "bisect:" ^ id

let real s =
  match s.kind with
  | Repro -> Verdict ((Campaign.repro_job s.bug).Campaign.work ())
  | Differential -> Verdict ((Campaign.differential_job s.bug).Campaign.work ())
  | Replay_job -> Verdict ((Campaign.replay_job ~every s.bug).Campaign.work ())
  | Bisect -> Bisected (Replay.bisect ~every s.bug)

let composed s =
  match s.kind with
  | Repro -> Verdict (Compose.repro s.bug)
  | Differential -> Verdict (Compose.differential s.bug)
  | Replay_job -> Verdict (Compose.replay ~every s.bug)
  | Bisect ->
      Bisected (Layer.call Layer.bisect (fun () -> Replay.bisect ~every s.bug))

let digest = function
  | Verdict v ->
      Item.digest_of
        [
          v.Campaign.v_bug;
          v.Campaign.v_kind;
          string_of_int v.Campaign.v_cycles;
          string_of_bool v.Campaign.v_ok;
          v.Campaign.v_detail;
          String.concat "," v.Campaign.v_symptoms;
          Item.log_text v.Campaign.v_log;
          (match v.Campaign.v_vcd with
          | Some s -> Digest.to_hex (Digest.string s)
          | None -> "");
        ]
  | Bisected b ->
      Item.digest_of
        [
          (match b.Replay.bi_first_failing with
          | Some c -> string_of_int c
          | None -> "none");
          string_of_int b.Replay.bi_checkpoints;
          string_of_int b.Replay.bi_probes;
          string_of_int b.Replay.bi_replayed_cycles;
          b.Replay.bi_detail;
        ]

(* Why an item's output is wrong: the job raised, [v_ok] is false, the
   repro symptoms are not Table 2's, or the output differs from the
   reference computed in setup. *)
let check s ~reference = function
  | Error e -> Some ("raised: " ^ e)
  | Ok out -> (
      let sorted l = List.sort compare l in
      match out with
      | Verdict v when not v.Campaign.v_ok -> Some ("not ok: " ^ v.Campaign.v_detail)
      | Verdict v
        when s.kind = Repro
             && sorted v.Campaign.v_symptoms
                <> sorted (List.map Taxonomy.symptom_name s.bug.Bug.symptoms) ->
          Some ("symptoms " ^ String.concat "," v.Campaign.v_symptoms)
      | _ when digest out <> reference -> Some "output differs from the setup reference"
      | _ -> None)

let counts_of = function
  | Ok (Verdict v) ->
      [
        ("job_cycles", v.Campaign.v_cycles);
        ("log_lines", List.length v.Campaign.v_log);
        ("vcd_bytes", Option.fold ~none:0 ~some:String.length v.Campaign.v_vcd);
      ]
  | Ok (Bisected b) ->
      [
        ("bisect_probes", b.Replay.bi_probes);
        ("bisect_resim_cycles", b.Replay.bi_replayed_cycles);
        ("bisect_checkpoints", b.Replay.bi_checkpoints);
      ]
  | Error _ -> []

(* S2's external monitor keeps its state in one closure shared by every
   run of the bug, so two S2 runs on different domains race and corrupt
   each other's verdict. S2's jobs therefore go to the pool as one job
   that runs them in turn; they still count as separate items. *)
let shares_state (s : spec) = s.bug.Bug.id = "S2"

type prepared = {
  seed : int;
  groups : spec array array;  (* one pool job each *)
  reference : string array array;
}

(* Run and check one spec on whichever domain claimed it. Only the
   small item record leaves the worker: verdicts (VCDs included) are
   digested where they were made. *)
let item_of ~comp ~reference s =
  let r, wall, words =
    Item.timed (fun () ->
        Item.run ~composed:comp (fun () -> if comp then composed s else real s))
  in
  let out, layers =
    match r with Ok (out, layers) -> (Ok out, layers) | Error e -> (Error e, None)
  in
  ( {
      Item.wall;
      words;
      digest = (match out with Ok out -> digest out | Error e -> e);
      failure =
        Option.map (fun why -> label s ^ ": " ^ why) (check s ~reference out);
      layers;
    },
    counts_of out )

let pass p i ~composed:comp : Item.pass =
  let order = Item.order ~seed:p.seed ~pass:i (Array.length p.groups) in
  let jobs =
    Array.map
      (fun g ->
        let group = p.groups.(g) in
        {
          Campaign.label =
            (if Array.length group = 1 then label group.(0)
             else "serial:" ^ group.(0).bug.Bug.id);
          work =
            (fun () ->
              Array.mapi
                (fun k s -> item_of ~comp ~reference:p.reference.(g).(k) s)
                group);
        })
      order
  in
  let (results, stats), pool =
    if comp then (
      let ((_, st) as r), snap =
        Layer.item (fun () ->
            Layer.call Layer.pool (fun () -> Campaign.run_pool ~domains jobs))
      in
      (* the pool's own time: wall clock its workers spent outside job
         bodies (spawn, join, idle tail), per worker *)
      snap.Layer.s_self.(Layer.pool) <-
        st.Campaign.ps_wall
        -. Array.fold_left ( +. ) 0.0 st.Campaign.ps_busy
           /. float_of_int st.Campaign.ps_domains;
      (r, Some snap))
    else (Campaign.run_pool ~domains jobs, None)
  in
  let done_ =
    Array.mapi
      (fun g (r : _ Campaign.job_result) ->
        match r.Campaign.jr_value with
        | Ok items -> items
        | Error e ->
            Array.map
              (fun s ->
                ( {
                    Item.wall = r.Campaign.jr_wall;
                    words = 0.0;
                    digest = e;
                    failure = Some (label s ^ ": raised: " ^ e);
                    layers = None;
                  },
                  [] ))
              p.groups.(order.(g)))
      results
    |> Array.to_list |> Array.concat
  in
  {
    Item.items = Array.map fst done_;
    wall = stats.Campaign.ps_wall;
    busy_share = Some stats.Campaign.ps_utilization;
    pool;
    segments =
      Array.to_list results
      |> List.map (fun (r : _ Campaign.job_result) ->
             (r.Campaign.jr_label, r.Campaign.jr_trace));
    counts = List.concat_map snd (Array.to_list done_);
  }

let setup ~seed =
  let specs =
    Registry.all
    |> List.concat_map (fun bug ->
           List.map
             (fun kind -> { kind; bug })
             [ Repro; Differential; Replay_job; Bisect ])
    |> Array.of_list
  in
  let serial = List.filter shares_state (Array.to_list specs) in
  let groups =
    List.filter_map
      (fun s ->
        if not (shares_state s) then Some [| s |]
        else if s == List.hd serial then Some (Array.of_list serial)
        else None)
      (Array.to_list specs)
    |> Array.of_list
  in
  let reference =
    Array.map
      (Array.map (fun s ->
           match real s with out -> digest out | exception e -> Printexc.to_string e))
      groups
  in
  let p = { seed; groups; reference } in
  ignore (pass p 0 ~composed:false);
  p
