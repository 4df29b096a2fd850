(* Workload benchmark runner (see README.md).

   One run is one workload in its own process. It sets up (inputs,
   reference outputs, a warm-up pass), then runs a fixed number of whole
   passes sized from --seconds, timing and checking every item. --trace
   0 prints the end-to-end metrics. Set-up time is the median over
   [setup_processes] fresh processes, each timed from its spawn to the
   end of its set-up and spread between the passes. Every time is
   scaled to the machine's nominal speed ([Calibrate]): a pass by the
   calibrations on either side of it, set-up (one fresh process is too
   short to be scaled on its own) by the run's median calibration. --trace 1 runs every pass twice, the real items
   untraced and then the same items composed from layer calls under
   tracing; it checks that the two agree, exports and validates the
   first composed pass's trace, and prints the per-layer metrics. The
   last stdout line is the result; the line before it holds the run's
   exact counts and output digest, which repeat for one seed. *)

module Trace = Fpga_telemetry.Telemetry.Trace
module Trace_export = Fpga_telemetry.Trace_export

let setup_processes = 11

let workloads : (string * (module Item.WORKLOAD)) list =
  [
    ("campaign", (module Wl_campaign));
    ("fuzz", (module Wl_fuzz));
    ("debug", (module Wl_debug));
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload campaign|fuzz|debug --seed N --seconds S \
     --trace 0|1 [--counts FILE]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  counts : string option;  (* also write the counts line to this file *)
  setup_only : bool;  (* set up, print the time, exit: a set-up sample *)
}

let parse_args () =
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = int_of v } rest
    | "--trace" :: (("0" | "1") as v) :: rest -> go { a with trace = v = "1" } rest
    | "--counts" :: v :: rest -> go { a with counts = Some v } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | [] -> a
    | _ -> usage ()
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 10;
      trace = false;
      counts = None;
      setup_only = false;
    }
    (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Statistics and output                                                *)
(* ------------------------------------------------------------------ *)

(* nearest-rank percentile of a sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted_of a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let rss_peak_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

(* Set-up time of one fresh process of this program: from just before
   the spawn to the moment the child finishes setting up. *)
let setup_sample a =
  let args =
    [|
      Sys.executable_name;
      "--workload";
      a.workload;
      "--seed";
      string_of_int a.seed;
      "--setup-only";
    |]
  in
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some t1 -> t1 -. t0
  | _ -> failwith "set-up process failed"

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let ratio a b = if b > 0.0 then a /. b else 0.0

type totals = {
  mutable attempted : int;
  mutable failed : int;
  mutable timings : (float * float array) list;
      (* per pass, newest first: its timed window and its item times *)
  mutable words : float;
  mutable digest : string;
  mutable counts : (string * int) list;
  mutable notes : string list;  (* the first few failure reasons *)
}

let note t why = if List.length t.notes < 5 then t.notes <- why :: t.notes

let add_count t (k, n) =
  t.counts <-
    (k, n + Option.value (List.assoc_opt k t.counts) ~default:0)
    :: List.remove_assoc k t.counts

(* Record a pass of real items, its times scaled by [scale]. *)
let take ?(scale = 1.0) t (ps : Item.pass) =
  t.timings <-
    ( ps.Item.wall *. scale,
      Array.map (fun (it : Item.t) -> it.Item.wall *. scale) ps.Item.items )
    :: t.timings;
  Array.iter
    (fun (it : Item.t) ->
      t.attempted <- t.attempted + 1;
      t.words <- t.words +. it.Item.words;
      t.digest <- Digest.to_hex (Digest.string (t.digest ^ it.Item.digest));
      Option.iter
        (fun why ->
          t.failed <- t.failed + 1;
          note t why)
        it.Item.failure)
    ps.Item.items;
  List.iter (add_count t) ps.Item.counts

(* Per-layer totals over the composed items of a traced run. *)
type layers = {
  self : float array;
  alloc : float array;
  calls : int array;  (* bench calls *)
  program_calls : int array;  (* program spans moved to the layer *)
  quantities : int array;
  mutable items : int;
  mutable item_wall : float;  (* composed items *)
  mutable real_wall : float;  (* the same items, real and untraced *)
  mutable busy : float list;
}

let add_snap l (s : Layer.snap) =
  Array.iteri (fun i v -> l.self.(i) <- l.self.(i) +. v) s.Layer.s_self;
  Array.iteri (fun i v -> l.alloc.(i) <- l.alloc.(i) +. v) s.Layer.s_alloc;
  Array.iteri (fun i v -> l.calls.(i) <- l.calls.(i) + v) s.Layer.s_calls;
  Array.iteri
    (fun i v -> l.quantities.(i) <- l.quantities.(i) + v)
    s.Layer.s_quantities

let layer_metrics l ~overhead_words ~attempted ~words =
  let n = float_of_int (max 1 l.items) in
  let q i = float_of_int l.quantities.(i) in
  let per_layer =
    List.concat
      (List.mapi
         (fun i name ->
           let bench = float_of_int l.calls.(i) in
           [
             (name ^ ".self_ms", l.self.(i) *. 1000.0 /. n, "ms");
             ( name ^ ".calls",
               (bench +. float_of_int l.program_calls.(i)) /. n,
               "count" );
             ( name ^ ".alloc_kw",
               (l.alloc.(i) -. (bench *. overhead_words)) /. 1000.0 /. n,
               "kw" );
           ])
         (Array.to_list Layer.names))
  in
  let step = Layer.sim_step and mutants = float_of_int l.calls.(Layer.generate) in
  let busy =
    match l.busy with [] -> 0.0 | b -> List.fold_left ( +. ) 0.0 b /. float_of_int (List.length b)
  in
  per_layer
  @ [
      ("simulator.step.cycles", float_of_int l.calls.(step) /. n, "count");
      ( "simulator.step.ns_per_cycle",
        ratio (l.self.(step) *. 1e9) (float_of_int l.calls.(step)),
        "ns" );
      ( "lowered.skip_share",
        ratio (q Layer.q_closures_skipped)
          (q Layer.q_closures_run +. q Layer.q_closures_skipped),
        "ratio" );
      ( "lowered.commit_boxed_share",
        ratio (q Layer.q_commit_boxed)
          (q Layer.q_commit_imm +. q Layer.q_commit_boxed),
        "ratio" );
      ("vcd.bytes", q Layer.q_vcd_bytes /. n, "B");
      ("checkpoint.bytes", q Layer.q_ck_bytes /. n, "B");
      ("mutate.valid_share", ratio (q Layer.q_valid) mutants, "ratio");
      ("fuzz.sims_per_mutant", ratio (q Layer.q_sims) mutants, "count");
      ("signalcat.log_lines", q Layer.q_log_lines /. n, "count");
      ("campaign.pool.busy_share", busy, "ratio");
      ("gc.minor_kw_per_item", words /. 1000.0 /. float_of_int (max 1 attempted), "kw");
      ( "unattributed_ms",
        (l.item_wall -. Array.fold_left ( +. ) 0.0 l.self
        +. l.self.(Layer.pool))
        *. 1000.0 /. n,
        "ms" );
      ("trace.overhead_share", ratio l.item_wall l.real_wall -. 1.0, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  let (module W : Item.WORKLOAD) =
    match List.assoc_opt a.workload workloads with Some w -> w | None -> usage ()
  in
  let prep = W.setup ~seed:a.seed in
  if a.setup_only then (
    Printf.printf "%.6f\n" (Unix.gettimeofday ());
    exit 0);
  let passes =
    let p =
      max 1 (int_of_float (Float.round (float_of_int a.seconds /. W.pass_seconds)))
    in
    (* a traced pass runs its items twice, once with tracing *)
    if a.trace then max 1 (p * 2 / 5) else p
  in
  let setups = ref [] and cals = ref [] in
  let t =
    {
      attempted = 0;
      failed = 0;
      timings = [];
      words = 0.0;
      digest = "";
      counts = [];
      notes = [];
    }
  in
  let l =
    {
      self = Array.make Layer.count 0.0;
      alloc = Array.make Layer.count 0.0;
      calls = Array.make Layer.count 0;
      program_calls = Array.make Layer.count 0;
      quantities = Array.make (Array.length Layer.quantity_names) 0;
      items = 0;
      item_wall = 0.0;
      real_wall = 0.0;
      busy = [];
    }
  in
  let trace_ok = ref true in
  if not a.trace then
    (* a calibration between every two passes; a pass is scaled by the
       mean of the two around it *)
    let cal = ref (Calibrate.seconds ~domains:W.domains) in
    let scale () =
      let c = Calibrate.seconds ~domains:W.domains in
      cals := c :: !cals;
      let f = 2.0 *. Calibrate.nominal /. (!cal +. c) in
      cal := c;
      f
    in
    for i = 0 to passes - 1 do
      (* the set-up samples due by the end of this pass *)
      while List.length !setups * passes < (i + 1) * setup_processes do
        setups := setup_sample a :: !setups
      done;
      let ps = W.pass prep i ~composed:false in
      take ~scale:(scale ()) t ps
    done
  else (
    Trace.set_clock Unix.gettimeofday;
    for i = 0 to passes - 1 do
      let real = W.pass prep i ~composed:false in
      take t real;
      Trace.enable ();
      Layer.enabled := true;
      let comp =
        Fun.protect
          ~finally:(fun () ->
            Layer.enabled := false;
            Trace.disable ())
          (fun () -> W.pass prep i ~composed:true)
      in
      let main = Trace.capture_all ~consume:true () in
      List.iter
        (Layer.split_program_spans ~self:l.self ~calls:l.program_calls)
        (main :: List.map snd comp.Item.segments);
      if i = 0 then (
        let json =
          Trace_export.to_json ~process:"perfbench" ~clock:Trace.Wall ~main
            ~jobs:comp.Item.segments ()
        in
        match Trace_export.validate json with
        | Ok s ->
            Printf.eprintf "trace: %d events, %d spans on %d tracks\n"
              s.Trace_export.v_events s.Trace_export.v_spans
              s.Trace_export.v_tracks
        | Error e ->
            trace_ok := false;
            note t ("trace export invalid: " ^ e));
      Array.iteri
        (fun k (c : Item.t) ->
          let r = real.Item.items.(k) in
          l.items <- l.items + 1;
          l.item_wall <- l.item_wall +. c.Item.wall;
          l.real_wall <- l.real_wall +. r.Item.wall;
          Option.iter (add_snap l) c.Item.layers;
          if r.Item.failure = None && c.Item.digest <> r.Item.digest then (
            t.failed <- t.failed + 1;
            note t
              (Printf.sprintf "item %d of pass %d: composed output differs%s" k i
                 (match c.Item.failure with Some w -> " (" ^ w ^ ")" | None -> ""))))
        comp.Item.items;
      Option.iter (add_snap l) comp.Item.pool;
      Option.iter (fun b -> l.busy <- b :: l.busy) real.Item.busy_share
    done;
    Array.iteri
      (fun k name -> add_count t ("traced." ^ name, l.quantities.(k)))
      Layer.quantity_names;
    add_count t ("traced.cycles", l.calls.(Layer.sim_step));
    add_count t ("traced.checkpoints", l.program_calls.(Layer.ck_save)));
  let counts =
    Printf.sprintf "{\"counts\": {%s}, \"items\": %d, \"passes\": %d, \"digest\": %S}"
      (String.concat ", "
         (List.map
            (fun (k, n) -> Printf.sprintf "%S: %d" k n)
            (List.sort compare t.counts)))
      t.attempted passes t.digest
  in
  print_endline counts;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc (counts ^ "\n")))
    a.counts;
  List.iter (fun why -> Printf.eprintf "FAILED %s\n" why) (List.rev t.notes);
  let median_cal =
    if !cals = [] then Calibrate.nominal
    else percentile (sorted_of (Array.of_list !cals)) 0.5
  in
  let window = List.fold_left (fun s (w, _) -> s +. w) 0.0 t.timings in
  let walls = sorted_of (Array.concat (List.map snd t.timings)) in
  let metrics =
    if not a.trace then
      [
        ("items_per_s", ratio (float_of_int (Array.length walls)) window, "1/s");
        ("item_p50_ms", percentile walls 0.50 *. 1000.0, "ms");
        ("item_p95_ms", percentile walls 0.95 *. 1000.0, "ms");
        ( "setup_s",
          percentile (sorted_of (Array.of_list !setups)) 0.5
          *. Calibrate.nominal /. median_cal,
          "s" );
        ("rss_peak_mb", rss_peak_mb (), "MiB");
      ]
    else
      layer_metrics l ~overhead_words:(Layer.overhead_words ()) ~attempted:t.attempted
        ~words:t.words
  in
  Printf.eprintf "%s: %d items in %d passes, calibration median %.5f s, set-up %s s\n"
    a.workload t.attempted passes median_cal
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setups));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.failed = 0 && !trace_ok)
    t.attempted t.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics))
