(* Telemetry core: counters / histograms / timing spans.

   All mutable state lives in a per-domain [sink] held in domain-local
   storage. Nothing here is shared between domains, so a pool of
   simulation workers (lib/campaign) can run fully instrumented without
   locks or races: each domain records into its own sink and the pool
   merges the per-domain reports at join time. A freshly spawned domain
   inherits the parent's enabled flags (captured at spawn), but starts
   with empty counters and spans.

   Recording is gated on the sink's enabled flag so that a disabled run
   pays a single predictable branch per recording call and nothing
   else: no allocation, no hashing, no clock reads. *)

(* [Sys.time] keeps the library free of even the unix dependency; a
   harness that wants wall time installs its own clock. Installed once
   from the main domain before any spawning, so the plain ref is safe. *)
let clock = ref Sys.time
let set_clock f = clock := f

(* Wall-time source of the structured tracing layer (below), distinct
   from [clock] so installing a wall clock for traces never changes
   what the flat [span] aggregates measure. Same install-before-spawn
   discipline. *)
let trace_clock = ref Sys.time

(* ------------------------------------------------------------------ *)
(* The per-domain sink                                                 *)
(* ------------------------------------------------------------------ *)

type span_rec = { mutable sp_count : int; mutable sp_total : float }

(* One record per Chrome-trace-shaped occurrence in the structured
   trace buffer: 'B'/'E' bracket a tree span (parent/ids only on 'B'),
   'i' is an instant, 'C' a counter sample. Timestamps are integer
   microseconds so serialization is exact (no float formatting). *)
type trace_event = {
  te_ph : char;  (* 'B' | 'E' | 'i' | 'C' *)
  te_id : int;  (* span id ('B' only; 0 otherwise) *)
  te_parent : int;  (* enclosing span id, -1 at tree root ('B' only) *)
  te_name : string;
  te_cat : string;
  te_track : int;  (* sink's track at emission time *)
  te_ts : int;  (* microseconds *)
  te_value : int;  (* counter value ('C' only) *)
}

type sink = {
  mutable sk_on : bool;
  mutable sk_live : bool;
      (* sk_on || sk_tr_on: the single branch [span]'s disabled fast
         path tests, maintained by every switch flip *)
  sk_counters : (string, int ref) Hashtbl.t;
  sk_spans : (string, span_rec) Hashtbl.t;
  (* structured tracing state (the span-tree layer) *)
  mutable sk_tr_on : bool;
  mutable sk_tr_virtual : bool;  (* deterministic tick clock vs wall *)
  mutable sk_tr_vnow : int;  (* virtual clock, advanced 1µs per read *)
  mutable sk_tr_next_id : int;  (* ids are contiguous per sink *)
  mutable sk_tr_stack : int list;  (* open span ids, innermost first *)
  mutable sk_tr_track : int;
  mutable sk_tr_cap : int;  (* soft event cap; see trace_begin *)
  mutable sk_tr_dropped : int;
  mutable sk_tr_suppressed : int;  (* open spans whose 'B' was dropped *)
  mutable sk_tr_buf : trace_event array;
  mutable sk_tr_len : int;
}

let default_trace_cap = 262144

let dummy_trace_event =
  { te_ph = 'E'; te_id = 0; te_parent = -1; te_name = ""; te_cat = "";
    te_track = 0; te_ts = 0; te_value = 0 }

let fresh_sink () =
  {
    sk_on = false;
    sk_live = false;
    sk_counters = Hashtbl.create 32;
    sk_spans = Hashtbl.create 16;
    sk_tr_on = false;
    sk_tr_virtual = false;
    sk_tr_vnow = 0;
    sk_tr_next_id = 0;
    sk_tr_stack = [];
    sk_tr_track = 0;
    sk_tr_cap = default_trace_cap;
    sk_tr_dropped = 0;
    sk_tr_suppressed = 0;
    sk_tr_buf = [||];
    sk_tr_len = 0;
  }

(* A spawned worker starts with the parent's switch positions and trace
   configuration, but records into its own empty sink
   (fresh buffer, ids from 0, track 0 until the pool assigns one) — so
   worker spans land on the worker's own track and per-sink span ids
   never collide inside one sink. *)
let sink_key : sink Domain.DLS.key =
  Domain.DLS.new_key
    ~split_from_parent:(fun parent ->
      let s = fresh_sink () in
      s.sk_on <- parent.sk_on;
      s.sk_tr_on <- parent.sk_tr_on;
      s.sk_tr_virtual <- parent.sk_tr_virtual;
      s.sk_tr_cap <- parent.sk_tr_cap;
      s.sk_live <- s.sk_on || s.sk_tr_on;
      s)
    fresh_sink

let sink () = Domain.DLS.get sink_key

let enabled () = (sink ()).sk_on

let enable () =
  let sk = sink () in
  sk.sk_on <- true;
  sk.sk_live <- true

let disable () =
  let sk = sink () in
  sk.sk_on <- false;
  sk.sk_live <- sk.sk_tr_on

(* Both switches off around [f], then back to where they were: nothing
   [f] does reaches the counters, spans or trace buffer, and the
   virtual trace clock does not advance. *)
let quietly f =
  let sk = sink () in
  if not sk.sk_live then f ()
  else
    let on = sk.sk_on and tr_on = sk.sk_tr_on in
    sk.sk_on <- false;
    sk.sk_tr_on <- false;
    sk.sk_live <- false;
    Fun.protect
      ~finally:(fun () ->
        sk.sk_on <- on;
        sk.sk_tr_on <- tr_on;
        sk.sk_live <- on || tr_on)
      f

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  (* A counter handle is just its name: producers may create handles at
     module initialization (in whatever domain loads them) and bump
     from any domain — each domain accumulates into its own sink. *)
  type t = string

  let make name = name
  let name c = c

  let cell sk c =
    match Hashtbl.find_opt sk.sk_counters c with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace sk.sk_counters c r;
        r

  let bump c n =
    let sk = sink () in
    if sk.sk_on then (
      let r = cell sk c in
      r := !r + n)

  let incr c = bump c 1

  let value c =
    match Hashtbl.find_opt (sink ()).sk_counters c with
    | Some r -> !r
    | None -> 0

  let all () =
    Hashtbl.fold (fun n r acc -> (n, !r) :: acc) (sink ()).sk_counters []
    |> List.sort compare
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Power-of-two buckets: bucket [k] holds values in
     (2^(k-1) - 1, 2^k - 1]; bucket 0 holds exactly 0. 63 buckets
     cover the full non-negative int range. Histograms are plain values
     owned by their producer (a simulator instance keeps its own), so
     they are domain-safe as long as the producer is. *)
  let nbuckets = 63

  type t = {
    h_name : string;
    mutable h_count : int;
    mutable h_sum : int;
    mutable h_min : int;
    mutable h_max : int;
    h_buckets : int array;
  }

  type snapshot = {
    hs_name : string;
    hs_count : int;
    hs_sum : int;
    hs_min : int;
    hs_max : int;
    hs_buckets : (int * int) list;
  }

  let make name =
    {
      h_name = name;
      h_count = 0;
      h_sum = 0;
      h_min = 0;
      h_max = 0;
      h_buckets = Array.make nbuckets 0;
    }

  (* number of significant bits = the index of the smallest bucket
     whose upper bound (2^k - 1) admits [v] *)
  let bucket_index v =
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    min (bits v 0) (nbuckets - 1)

  let observe h v =
    if (sink ()).sk_on then (
      let v = max v 0 in
      if h.h_count = 0 then (
        h.h_min <- v;
        h.h_max <- v)
      else (
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v);
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum + v;
      let k = bucket_index v in
      h.h_buckets.(k) <- h.h_buckets.(k) + 1)

  let snapshot h =
    let buckets = ref [] in
    for k = nbuckets - 1 downto 0 do
      if h.h_buckets.(k) > 0 then
        buckets := ((1 lsl k) - 1, h.h_buckets.(k)) :: !buckets
    done;
    {
      hs_name = h.h_name;
      hs_count = h.h_count;
      hs_sum = h.h_sum;
      hs_min = h.h_min;
      hs_max = h.h_max;
      hs_buckets = !buckets;
    }

  let clear h =
    h.h_count <- 0;
    h.h_sum <- 0;
    h.h_min <- 0;
    h.h_max <- 0;
    Array.fill h.h_buckets 0 nbuckets 0
end

(* ------------------------------------------------------------------ *)
(* Structured tracing: the span tree                                   *)
(* ------------------------------------------------------------------ *)

(* Trace recording primitives. Each sink owns a flat buffer of
   [trace_event]s appended in occurrence order, which makes every
   captured slice a well-nested B/E stream by construction (spans close
   LIFO under [Fun.protect]); parent/child structure rides on the span
   ids pushed by the per-sink open-span stack.

   The cap is soft: once the buffer holds [sk_tr_cap] events, new 'B',
   'i', and 'C' events are dropped (and counted), but the 'E' of any
   span whose 'B' was recorded is always appended so the stream stays
   balanced — [sk_tr_suppressed] tracks how many open spans had their
   'B' dropped so their 'E's are skipped symmetrically (correct because
   spans close in LIFO order). *)

let trace_now sk =
  if sk.sk_tr_virtual then (
    let t = sk.sk_tr_vnow in
    sk.sk_tr_vnow <- t + 1;
    t)
  else int_of_float (!trace_clock () *. 1e6)

let trace_push sk ev =
  let cap = Array.length sk.sk_tr_buf in
  if sk.sk_tr_len >= cap then (
    let ncap = max 256 (min (max 1 (cap * 2)) (max sk.sk_tr_cap (sk.sk_tr_len + 64))) in
    let nbuf = Array.make ncap dummy_trace_event in
    Array.blit sk.sk_tr_buf 0 nbuf 0 sk.sk_tr_len;
    sk.sk_tr_buf <- nbuf);
  sk.sk_tr_buf.(sk.sk_tr_len) <- ev;
  sk.sk_tr_len <- sk.sk_tr_len + 1

let trace_begin sk name cat =
  if sk.sk_tr_len >= sk.sk_tr_cap then (
    sk.sk_tr_suppressed <- sk.sk_tr_suppressed + 1;
    sk.sk_tr_dropped <- sk.sk_tr_dropped + 1)
  else (
    let id = sk.sk_tr_next_id in
    sk.sk_tr_next_id <- id + 1;
    let parent = match sk.sk_tr_stack with [] -> -1 | p :: _ -> p in
    trace_push sk
      { te_ph = 'B'; te_id = id; te_parent = parent; te_name = name;
        te_cat = cat; te_track = sk.sk_tr_track; te_ts = trace_now sk;
        te_value = 0 };
    sk.sk_tr_stack <- id :: sk.sk_tr_stack)

let trace_end sk =
  if sk.sk_tr_suppressed > 0 then
    sk.sk_tr_suppressed <- sk.sk_tr_suppressed - 1
  else
    match sk.sk_tr_stack with
    | [] -> ()  (* unbalanced close: ignore rather than corrupt *)
    | _ :: tl ->
        sk.sk_tr_stack <- tl;
        trace_push sk
          { dummy_trace_event with
            te_ph = 'E'; te_track = sk.sk_tr_track; te_ts = trace_now sk }

module Trace = struct
  type clock = Wall | Virtual

  type event = trace_event = {
    te_ph : char;
    te_id : int;
    te_parent : int;
    te_name : string;
    te_cat : string;
    te_track : int;
    te_ts : int;
    te_value : int;
  }

  type segment = {
    sg_track : int;  (* track the slice was recorded on *)
    sg_start : int;  (* absolute µs of the slice origin *)
    sg_events : event list;  (* ts rebased to sg_start, span ids to 0 *)
  }

  let empty_segment = { sg_track = 0; sg_start = 0; sg_events = [] }

  let enabled () = (sink ()).sk_tr_on

  let set_clock f = trace_clock := f

  let enable ?(clock = Wall) ?cap () =
    let sk = sink () in
    sk.sk_tr_on <- true;
    sk.sk_live <- true;
    sk.sk_tr_virtual <- (clock = Virtual);
    match cap with
    | Some c -> sk.sk_tr_cap <- max 16 c
    | None -> sk.sk_tr_cap <- default_trace_cap

  let disable () =
    let sk = sink () in
    sk.sk_tr_on <- false;
    sk.sk_live <- sk.sk_on

  let track () = (sink ()).sk_tr_track
  let set_track t = (sink ()).sk_tr_track <- t
  let dropped () = (sink ()).sk_tr_dropped
  let length () = (sink ()).sk_tr_len
  let depth () = List.length (sink ()).sk_tr_stack

  let with_span ?(cat = "task") name f =
    let sk = sink () in
    if not sk.sk_tr_on then f ()
    else (
      trace_begin sk name cat;
      Fun.protect ~finally:(fun () -> trace_end sk) f)

  let instant ?(cat = "mark") name =
    let sk = sink () in
    if sk.sk_tr_on && sk.sk_tr_len < sk.sk_tr_cap then
      trace_push sk
        { dummy_trace_event with
          te_ph = 'i'; te_name = name; te_cat = cat;
          te_track = sk.sk_tr_track; te_ts = trace_now sk }
      else if sk.sk_tr_on then sk.sk_tr_dropped <- sk.sk_tr_dropped + 1

  let counter name v =
    let sk = sink () in
    if sk.sk_tr_on && sk.sk_tr_len < sk.sk_tr_cap then
      trace_push sk
        { dummy_trace_event with
          te_ph = 'C'; te_name = name; te_track = sk.sk_tr_track;
          te_ts = trace_now sk; te_value = v }
      else if sk.sk_tr_on then sk.sk_tr_dropped <- sk.sk_tr_dropped + 1

  let mark () = (sink ()).sk_tr_len

  (* Rebase a buffer slice into a self-contained segment: timestamps
     become offsets from the slice's first event, span ids become
     offsets from the smallest id opened inside the slice (per-sink ids
     are contiguous, so a slice's ids are exactly [base..base+n)), and
     a parent opened before the slice becomes -1 (a slice root). The
     result is a pure value of what happened inside the slice — two
     workers running the same job produce the same segment, which is
     what makes virtual-clock traces independent of pool width. *)
  let capture_since ?(consume = false) m =
    let sk = sink () in
    let m = max 0 (min m sk.sk_tr_len) in
    let n = sk.sk_tr_len - m in
    let seg =
      if n = 0 then { empty_segment with sg_track = sk.sk_tr_track }
      else (
        let t0 = sk.sk_tr_buf.(m).te_ts in
        let base = ref max_int in
        for i = m to sk.sk_tr_len - 1 do
          let e = sk.sk_tr_buf.(i) in
          if e.te_ph = 'B' && e.te_id < !base then base := e.te_id
        done;
        let base = if !base = max_int then 0 else !base in
        let events =
          List.init n (fun k ->
              let e = sk.sk_tr_buf.(m + k) in
              let e = { e with te_ts = e.te_ts - t0 } in
              if e.te_ph = 'B' then
                { e with
                  te_id = e.te_id - base;
                  te_parent =
                    (if e.te_parent >= base then e.te_parent - base else -1) }
              else e)
        in
        { sg_track = sk.sk_tr_track; sg_start = t0; sg_events = events })
    in
    if consume then sk.sk_tr_len <- m;
    seg

  let capture_all ?consume () = capture_since ?consume 0

  let reset () =
    let sk = sink () in
    sk.sk_tr_len <- 0;
    sk.sk_tr_buf <- [||];
    sk.sk_tr_stack <- [];
    sk.sk_tr_next_id <- 0;
    sk.sk_tr_vnow <- 0;
    sk.sk_tr_dropped <- 0;
    sk.sk_tr_suppressed <- 0
end

(* ------------------------------------------------------------------ *)
(* Timing spans                                                        *)
(* ------------------------------------------------------------------ *)

(* One branch on [sk_live] keeps the fully-disabled path as cheap as it
   was before tracing existed; the flat aggregate and the trace tree
   each engage only behind their own switch. *)
let span name f =
  let sk = sink () in
  if not sk.sk_live then f ()
  else (
    let r =
      if not sk.sk_on then None
      else
        match Hashtbl.find_opt sk.sk_spans name with
        | Some r -> Some r
        | None ->
            let r = { sp_count = 0; sp_total = 0.0 } in
            Hashtbl.replace sk.sk_spans name r;
            Some r
    in
    let tracing = sk.sk_tr_on in
    if tracing then trace_begin sk name "span";
    let t0 = if r = None then 0.0 else !clock () in
    Fun.protect
      ~finally:(fun () ->
        (match r with
        | Some r ->
            r.sp_count <- r.sp_count + 1;
            r.sp_total <- r.sp_total +. (!clock () -. t0)
        | None -> ());
        if tracing then trace_end sk)
      f)

let all_spans () =
  Hashtbl.fold
    (fun n r acc -> (n, r.sp_count, r.sp_total) :: acc)
    (sink ()).sk_spans []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type report = {
  r_counters : (string * int) list;
  r_spans : (string * int * float) list;
}

let report () = { r_counters = Counter.all (); r_spans = all_spans () }

let empty_report = { r_counters = []; r_spans = [] }

(* Merge the reports of two sinks (e.g. two worker domains): counters
   and spans are summed by name. *)
let merge a b =
  let sum_assoc xs ys combine =
    let tbl = Hashtbl.create 32 in
    let add (k, v) =
      match Hashtbl.find_opt tbl k with
      | Some prev -> Hashtbl.replace tbl k (combine prev v)
      | None -> Hashtbl.replace tbl k v
    in
    List.iter add xs;
    List.iter add ys;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  let counters =
    sum_assoc a.r_counters b.r_counters (fun x y -> x + y)
  in
  let spans =
    sum_assoc
      (List.map (fun (n, c, t) -> (n, (c, t))) a.r_spans)
      (List.map (fun (n, c, t) -> (n, (c, t))) b.r_spans)
      (fun (c1, t1) (c2, t2) -> (c1 + c2, t1 +. t2))
    |> List.map (fun (n, (c, t)) -> (n, c, t))
  in
  { r_counters = counters; r_spans = spans }

let reset () =
  let sk = sink () in
  Hashtbl.reset sk.sk_counters;
  Hashtbl.reset sk.sk_spans;
  Trace.reset ()
