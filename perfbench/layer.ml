(* Bench-side layer accounting for the traced run.

   Every public layer call a composed item makes goes through [call]:
   it opens a [Telemetry.Trace] span named after the layer (so the
   program's own spans, such as fuzz.validate.* and replay.*, nest
   under it) and charges the call's wall time and minor-heap allocation
   to the layer, minus what nested layer calls took: the layer's self
   time. Inside a library call the program's own spans give the finer
   split ([split_program_spans]). Per-cycle calls (stepping, the harness callbacks, VCD samples)
   go through [tick], which does the same accounting without a span.
   One span per simulated cycle would swamp the trace, so the trace
   shows each cycle loop as one "simulator.step" span while the table
   splits it.

   Allocation is read with [Gc.minor_words], the counter
   [Gc.quick_stat] reports as minor_words, because it is exact for the
   calling domain. Accounting is per domain, since campaign jobs run on
   two; [item] returns one item's totals from whichever domain ran it.
   While [enabled] is false both wrappers are plain calls. *)

module Trace = Fpga_telemetry.Telemetry.Trace

let names =
  [|
    "parser";
    "pp_verilog";
    "elaborate";
    "simulator.create";
    "simulator.step";
    "vcd";
    "checkpoint.save";
    "checkpoint.encode";
    "checkpoint.decode";
    "checkpoint.restore";
    "bug.harness";
    "replay.bisect";
    "replay.record";
    "replay.replay";
    "mutate.generate";
    "mutate.validate";
    "recipe.apply";
    "losscheck.localize";
    "signalcat.reconstruct";
    "campaign.pool";
  |]

let parser = 0
let pp_verilog = 1
let elaborate = 2
let sim_create = 3
let sim_step = 4
let vcd = 5
let ck_save = 6
let ck_encode = 7
let ck_decode = 8
let ck_restore = 9
let harness = 10
let bisect = 11
let record = 12
let replay = 13
let generate = 14
let validate = 15
let recipe = 16
let localize = 17
let reconstruct = 18
let pool = 19
let count = Array.length names

(* Exact quantities the composed items observe besides time. *)
let quantity_names =
  [|
    "vcd_bytes";
    "checkpoint_bytes";
    "sims";
    "valid_mutants";
    "signalcat_log_lines";
    "closures_run";
    "closures_skipped";
    "commit_imm";
    "commit_boxed";
  |]

let q_vcd_bytes = 0
let q_ck_bytes = 1
let q_sims = 2
let q_valid = 3
let q_log_lines = 4
let q_closures_run = 5
let q_closures_skipped = 6
let q_commit_imm = 7
let q_commit_boxed = 8

type acc = {
  self_s : float array;
  alloc_w : float array;
  calls : int array;
  quantities : int array;
  child : float array;
      (* [| seconds; words |] of the finished calls nested directly in
         the innermost open call *)
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        self_s = Array.make count 0.0;
        alloc_w = Array.make count 0.0;
        calls = Array.make count 0;
        quantities = Array.make (Array.length quantity_names) 0;
        child = [| 0.0; 0.0 |];
      })

(* Set from the main domain between passes, never while a pool runs. *)
let enabled = ref false

let now = Unix.gettimeofday

let[@inline always] close a id t0 w0 ct cw =
  let dt = now () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  let child = a.child in
  a.self_s.(id) <- a.self_s.(id) +. dt -. child.(0);
  a.alloc_w.(id) <- a.alloc_w.(id) +. dw -. child.(1);
  a.calls.(id) <- a.calls.(id) + 1;
  child.(0) <- ct +. dt;
  child.(1) <- cw +. dw

let measure id f =
  let a = Domain.DLS.get key in
  let child = a.child in
  let ct = child.(0) and cw = child.(1) in
  child.(0) <- 0.0;
  child.(1) <- 0.0;
  let t0 = now () in
  let w0 = Gc.minor_words () in
  match f () with
  | v ->
      close a id t0 w0 ct cw;
      v
  | exception e ->
      close a id t0 w0 ct cw;
      raise e

let tick id f = if !enabled then measure id f else f ()

let call id f =
  if !enabled then
    Trace.with_span ~cat:"layer" names.(id) (fun () -> measure id f)
  else f ()

let add q n =
  if !enabled then
    let a = Domain.DLS.get key in
    a.quantities.(q) <- a.quantities.(q) + n

(* One item's accounting, copied out of the domain that ran it. *)
type snap = {
  s_self : float array;  (* seconds *)
  s_alloc : float array;  (* minor words *)
  s_calls : int array;
  s_quantities : int array;
}

let item f =
  let a = Domain.DLS.get key in
  Array.fill a.self_s 0 count 0.0;
  Array.fill a.alloc_w 0 count 0.0;
  Array.fill a.calls 0 count 0;
  Array.fill a.quantities 0 (Array.length a.quantities) 0;
  a.child.(0) <- 0.0;
  a.child.(1) <- 0.0;
  let v = f () in
  ( v,
    {
      s_self = Array.copy a.self_s;
      s_alloc = Array.copy a.alloc_w;
      s_calls = Array.copy a.calls;
      s_quantities = Array.copy a.quantities;
    } )

(* Words one empty [measure] charges to its own layer, subtracted per
   call when the table is built. *)
let overhead_words () =
  let n = 1000 in
  let was = !enabled in
  enabled := true;
  let (), s = item (fun () -> for _ = 1 to n do tick parser ignore done) in
  enabled := was;
  Float.round (s.s_alloc.(parser) /. float_of_int n)

(* The program's own spans that belong to a layer. *)
let of_program_span = function
  | "compile" -> Some sim_create
  | "fuzz.validate.reparse" -> Some parser (* pretty-print, then parse *)
  | "fuzz.validate.elaborate" -> Some elaborate
  | "checkpoint.save" -> Some ck_save
  | "checkpoint.encode" -> Some ck_encode
  | "checkpoint.decode" -> Some ck_decode
  | "checkpoint.restore" -> Some ck_restore
  | "replay.bisect" -> Some bisect
  | "replay.record" -> Some record
  | "replay.replay" -> Some replay
  | _ -> None

let index_of name =
  let rec go i =
    if i = count then None else if names.(i) = name then Some i else go (i + 1)
  in
  go 0

type frame = {
  f_ts : int;
  f_bench : int option;  (* a bench span: its layer *)
  f_program : int option;  (* a program span: the layer it belongs to *)
  mutable f_child : int;  (* microseconds in finished child spans *)
}

(* A program span that belongs to one layer but ran inside a bench call
   of another (Mutate.validate's re-parse, the simulator builds and
   checkpoint I/O inside Replay.*, the builds inside Losscheck) was
   charged to the bench call. Move its self time, read from the trace,
   to its own layer and count the call there. Its allocation stays with
   the bench call: the trace does not record it. *)
let split_program_spans ~self ~calls (sg : Trace.segment) =
  let stack = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match (e.Trace.te_ph, !stack) with
      | 'B', st ->
          let bench = if e.Trace.te_cat = "layer" then index_of e.Trace.te_name else None in
          let program =
            if e.Trace.te_cat = "span" then of_program_span e.Trace.te_name else None
          in
          stack := { f_ts = e.Trace.te_ts; f_bench = bench; f_program = program; f_child = 0 } :: st
      | 'E', f :: rest -> (
          stack := rest;
          let dur = e.Trace.te_ts - f.f_ts in
          (match rest with p :: _ -> p.f_child <- p.f_child + dur | [] -> ());
          match f.f_program with
          | Some x ->
              let enclosing = List.find_map (fun p -> p.f_bench) rest in
              if enclosing <> Some x then (
                let s = float_of_int (dur - f.f_child) *. 1e-6 in
                self.(x) <- self.(x) +. s;
                calls.(x) <- calls.(x) + 1;
                Option.iter (fun y -> self.(y) <- self.(y) -. s) enclosing)
          | None -> ())
      | _ -> ())
    sg.Trace.sg_events
