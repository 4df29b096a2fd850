(* Chrome Trace Event Format export of the structured tracing layer
   (Telemetry.Trace), plus the reader-side validator the trace-smoke CI
   gate and `fpga-debug trace-check` run over the emitted files.

   The writer builds a {!Json} value over integer timestamps and prints
   it with [Json.to_string], one event per line: byte-identity of the
   output is part of the contract (same seed + virtual clock => same
   file, at any pool width), so nothing in it may depend on floats,
   hash order, or locale. The validator reads through [Json.parse]. *)

module Trace = Telemetry.Trace
open Json

let schema = "fpga-debug-trace/1"

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* One event. [tid]/[ts]/span ids arrive already laid out. *)
let event_json ~tid ~ts ~id_base (e : Trace.event) =
  let head ph =
    [ ("ph", Str ph); ("pid", Int 1); ("tid", Int tid); ("ts", Int ts) ]
  in
  let name = ("name", Str e.Trace.te_name) in
  let cat = ("cat", Str e.Trace.te_cat) in
  let id = Int (e.Trace.te_id + id_base) in
  let parent =
    Int (if e.Trace.te_parent < 0 then -1 else e.Trace.te_parent + id_base)
  in
  Obj
    (match e.Trace.te_ph with
    | 'B' ->
        head "B"
        @ [ name; cat; ("args", Obj [ ("id", id); ("parent", parent) ]) ]
    | 'i' -> head "i" @ [ name; cat; ("s", Str "t") ]
    | 'C' ->
        head "C" @ [ name; ("args", Obj [ ("value", Int e.Trace.te_value) ]) ]
    | ph -> head (String.make 1 ph))

let seg_duration (seg : Trace.segment) =
  List.fold_left (fun acc e -> max acc e.Trace.te_ts) 0 seg.Trace.sg_events

let count_spans (seg : Trace.segment) =
  List.fold_left
    (fun acc e -> if e.Trace.te_ph = 'B' then acc + 1 else acc)
    0 seg.Trace.sg_events

(* Serialize a whole run.

   [main] is the calling domain's own segment (phase spans and such);
   it renders on track (tid) 0. [jobs] are the per-job segments the
   pool captured, in submission order, each with a label whose prefix
   up to ':' names the job kind.

   Under the [Wall] clock the layout is physical: each job lands on the
   track of the domain that ran it ([sg_track], named "domain-N") at
   the absolute time it ran, so pool idle gaps are visible in Perfetto.
   Under the [Virtual] clock the layout is canonical: jobs are placed
   end-to-end in submission order (1µs apart) on one track per job
   kind — a pure function of the job set, independent of how a pool of
   any width interleaved the work, which is what makes the output
   byte-identical across --jobs 1/2/4. *)
let to_json ?(process = "fpga-debug") ~clock ~(main : Trace.segment)
    ~(jobs : (string * Trace.segment) list) () =
  let virtual_ = clock = Trace.Virtual in
  let kind_of label =
    match String.index_opt label ':' with
    | Some i -> String.sub label 0 i
    | None -> label
  in
  (* track table: 0 is always main; then either one per recorded
     domain (wall) or one per job kind in order of first appearance
     (virtual) *)
  let tracks = ref [ (0, "main") ] in
  let track_of_wall t =
    let tid = max 1 t in
    if not (List.mem_assoc tid !tracks) then
      tracks := !tracks @ [ (tid, Printf.sprintf "domain-%d" (tid - 1)) ];
    tid
  in
  let track_of_kind k =
    match List.find_opt (fun (_, n) -> n = k) !tracks with
    | Some (tid, _) -> tid
    | None ->
        let tid = List.length !tracks in
        tracks := !tracks @ [ (tid, k) ];
        tid
  in
  (* Wall layout re-zeroes on the earliest non-empty segment so a real
     epoch clock doesn't push timestamps out to 10^15 µs. *)
  let wall_base =
    if virtual_ then 0
    else
      List.fold_left
        (fun acc (_, (s : Trace.segment)) ->
          if s.Trace.sg_events = [] then acc
          else
            match acc with
            | None -> Some s.Trace.sg_start
            | Some a -> Some (min a s.Trace.sg_start))
        (if main.Trace.sg_events = [] then None else Some main.Trace.sg_start)
        jobs
      |> Option.value ~default:0
  in
  (* lay out every segment: (tid, ts offset, id offset, segment) *)
  let placed = ref [] in
  let id_base = ref 0 in
  let cursor = ref (if virtual_ then seg_duration main + 1 else 0) in
  let place ~tid ~at seg =
    placed := (tid, at, !id_base, seg) :: !placed;
    id_base := !id_base + count_spans seg
  in
  place ~tid:0 ~at:(if virtual_ then 0 else main.Trace.sg_start - wall_base) main;
  List.iter
    (fun (label, (seg : Trace.segment)) ->
      if virtual_ then (
        let tid = track_of_kind (kind_of label) in
        place ~tid ~at:!cursor seg;
        cursor := !cursor + seg_duration seg + 1)
      else
        place
          ~tid:(track_of_wall seg.Trace.sg_track)
          ~at:(seg.Trace.sg_start - wall_base)
          seg)
    jobs;
  let metadata tid name value =
    Obj
      [ ("ph", Str "M"); ("pid", Int 1); ("tid", Int tid); ("name", Str name);
        ("args", Obj [ ("name", Str value) ]) ]
  in
  let events =
    List.concat_map
      (fun (tid, at, id_base, (seg : Trace.segment)) ->
        List.map
          (fun (e : Trace.event) ->
            event_json ~tid ~ts:(at + e.Trace.te_ts) ~id_base e)
          seg.Trace.sg_events)
      (List.rev !placed)
  in
  (* metadata first: process name, then one thread_name per track *)
  let metadata =
    metadata 0 "process_name" process
    :: List.map (fun (tid, name) -> metadata tid "thread_name" name) !tracks
  in
  to_string
    (Obj
       [ ("schema", Str schema);
         ("clock", Str (if virtual_ then "virtual" else "wall"));
         ("displayTimeUnit", Str "ms");
         ("traceEvents", Arr (metadata @ events)) ])

(* ------------------------------------------------------------------ *)
(* Validator                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  v_events : int;  (* trace events, metadata included *)
  v_spans : int;  (* balanced B/E pairs *)
  v_counters : int;
  v_instants : int;
  v_tracks : int;  (* distinct (pid, tid) pairs *)
}

let as_int name v =
  match v with
  | Some (Int i) -> Ok i
  | Some (Num f) when Float.is_integer f -> Ok (int_of_float f)
  | Some _ -> Error (Printf.sprintf "%S must be an integer" name)
  | None -> Error (Printf.sprintf "missing %S" name)

let validate (text : string) : (stats, string) result =
  let ( let* ) = Result.bind in
  let* root =
    match parse text with
    | exception Bad_json msg -> Error ("not valid JSON: " ^ msg)
    | Obj _ as root -> Ok root
    | _ -> Error "top level must be an object"
  in
  let* () =
    match member "schema" root with
    | Some (Str s) when s = schema -> Ok ()
    | Some (Str s) ->
        Error (Printf.sprintf "schema mismatch: %S, expected %S" s schema)
    | Some _ -> Error "\"schema\" must be a string"
    | None -> Error "missing \"schema\" envelope"
  in
  let* events =
    match member "traceEvents" root with
    | Some (Arr events) -> Ok events
    | Some _ -> Error "\"traceEvents\" must be an array"
    | None -> Error "missing \"traceEvents\""
  in
  (* per-(pid,tid) open-span stacks for B/E balance *)
  let stacks : (int * int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let spans = ref 0 and counters = ref 0 and instants = ref 0 in
  let check ev =
    let* () = match ev with Obj _ -> Ok () | _ -> Error "not an object" in
    let* ph =
      match member "ph" ev with
      | Some (Str p) when String.length p = 1 -> Ok p.[0]
      | Some (Str p) -> Error (Printf.sprintf "bad ph %S" p)
      | Some _ -> Error "ph must be a string"
      | None -> Error "missing ph"
    in
    let* pid = as_int "pid" (member "pid" ev) in
    let* tid = as_int "tid" (member "tid" ev) in
    let stack =
      match Hashtbl.find_opt stacks (pid, tid) with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.replace stacks (pid, tid) r;
          r
    in
    match ph with
    | 'M' -> Ok ()
    | 'B' | 'i' | 'C' ->
        let* ts = as_int "ts" (member "ts" ev) in
        let* () =
          match member "name" ev with
          | Some (Str _) -> Ok ()
          | _ -> Error (Printf.sprintf "%c event needs a string name" ph)
        in
        if ts < 0 then Error "negative ts"
        else (
          (match ph with
          | 'B' -> stack := ts :: !stack
          | 'i' -> incr instants
          | _ -> incr counters);
          Ok ())
    | 'E' -> (
        let* ts = as_int "ts" (member "ts" ev) in
        match !stack with
        | [] -> Error (Printf.sprintf "E without open B on track %d" tid)
        | t0 :: _ when ts < t0 -> Error "E timestamp precedes its B"
        | _ :: rest ->
            stack := rest;
            incr spans;
            Ok ())
    | ph -> Error (Printf.sprintf "unsupported ph %C" ph)
  in
  let rec walk i = function
    | [] -> Ok ()
    | ev :: rest ->
        let* () =
          Result.map_error (Printf.sprintf "event %d: %s" i) (check ev)
        in
        walk (i + 1) rest
  in
  let* () = walk 0 events in
  let open_spans, open_tracks =
    Hashtbl.fold
      (fun (_, tid) stack (n, tids) ->
        if !stack = [] then (n, tids)
        else (n + List.length !stack, tid :: tids))
      stacks (0, [])
  in
  if open_spans > 0 then
    Error
      (Printf.sprintf "unbalanced B/E: %d span(s) never closed on track(s) %s"
         open_spans
         (String.concat ", "
            (List.map string_of_int (List.sort_uniq compare open_tracks))))
  else
    Ok
      {
        v_events = List.length events;
        v_spans = !spans;
        v_counters = !counters;
        v_instants = !instants;
        v_tracks = Hashtbl.length stacks;
      }
