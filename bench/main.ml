(* Machine-readable micro-benchmark of the simulator substrate, with
   hard same-run gates. The paper's tables and figures come from
   [fpga-debug report all], not from here.

     dune exec bench/main.exe -- --json BENCH.json --baseline BENCH_baseline.json

   It measures parse / elaborate / simulate throughput over several
   testbed designs plus synthetic low-activity and sequential-heavy
   designs, for both simulator kernels; the lowering pass's statics;
   word-level Bits ops; kernel telemetry and its cost; campaign
   throughput at 1/2/4 domains; and simulator reuse. It writes them to
   the JSON file ([--json] alone, or no flag, writes BENCH.json) and
   prints the same JSON.

   Three gates fail the run (exit 1): the default (lowered-dirty)
   kernel never loses to the brute-force sweep it replaces, two
   campaign domains do not lose to one (on 3+ cores), and resetting a
   simulator is at least 3x cheaper than building it. With
   [--baseline PATH] it also compares same-run ratios with a checked-in
   file (warn-only): each design's lowered-dirty over brute-force
   speedup, and each Bits op's rate over a fixed reference op. *)

module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Bits = Fpga_bits.Bits
module Simulator = Fpga_sim.Simulator
module Telemetry = Fpga_telemetry.Telemetry
module Json = Fpga_telemetry.Json

type bench_design = {
  bd_id : string;
  bd_top : string;
  bd_src : string;
  bd_stim : Fpga_sim.Testbench.stimulus;
  bd_elaborate : unit -> Fpga_sim.Elaborate.flat;
      (* elaborates afresh on every call (see [elaborator]) *)
  bd_flat : Fpga_sim.Elaborate.flat;  (* the flat every run steps *)
}

(* A deep pipeline fed a constant input: after it fills, no signal
   changes, so the lowered-dirty kernel's comb worklist runs empty and
   each of the 64 register statements, a statement group of its own,
   sleeps too. This is the low-activity design its dirty scheduling is
   meant to win on. *)
let idle_design_src stages =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "module idle (input clk, input [7:0] d, output [7:0] q);\n";
  for i = 1 to stages do
    Buffer.add_string buf (Printf.sprintf "  reg [7:0] r%d;\n" i);
    Buffer.add_string buf (Printf.sprintf "  wire [7:0] w%d;\n" i)
  done;
  Buffer.add_string buf "  assign w1 = r1 + 8'd1;\n";
  for i = 2 to stages do
    Buffer.add_string buf
      (Printf.sprintf "  assign w%d = w%d ^ r%d;\n" i (i - 1) i)
  done;
  Buffer.add_string buf (Printf.sprintf "  assign q = w%d;\n" stages);
  Buffer.add_string buf "  always @(posedge clk) begin\n    r1 <= d;\n";
  for i = 2 to stages do
    Buffer.add_string buf (Printf.sprintf "    r%d <= r%d;\n" i (i - 1))
  done;
  Buffer.add_string buf "  end\nendmodule\n";
  Buffer.contents buf

(* A register ring with essentially no combinational plan: one always
   block rewrites all [regs] registers every cycle, so the run is pure
   sequential-edge work through the flat NBA commit buffer. Every
   register changes on every edge, so each statement group runs on
   every edge and the dirty lowered kernel has nothing to skip, in the
   comb plan or the sequential phase: every commit still sets the
   flags of the groups that read the register it changed. The design
   measures what the dirty machinery costs when it cannot help; the
   kernel gate holds it to at least brute-force speed. *)
let seq_design_src regs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "module seqheavy (input clk, input [7:0] d, output [7:0] q);\n";
  for i = 1 to regs do
    Buffer.add_string buf (Printf.sprintf "  reg [7:0] r%d;\n" i)
  done;
  Buffer.add_string buf (Printf.sprintf "  assign q = r%d;\n" regs);
  Buffer.add_string buf "  always @(posedge clk) begin\n";
  Buffer.add_string buf (Printf.sprintf "    r1 <= r%d + d;\n" regs);
  for i = 2 to regs do
    Buffer.add_string buf
      (if i mod 2 = 0 then
         Printf.sprintf "    r%d <= r%d ^ 8'd%d;\n" i (i - 1) (i land 0xFF)
       else Printf.sprintf "    r%d <= r%d + 8'd%d;\n" i (i - 1) (i land 0xFF))
  done;
  Buffer.add_string buf "  end\nendmodule\n";
  Buffer.contents buf

(* [Elaborate.elaborate] returns its last flat again for the same
   physical design, so timing it on one design would time that memo.
   This elaborates two distinct parses of [src] in turn: every call
   really elaborates. *)
let elaborator src ~top =
  let designs =
    [| Fpga_hdl.Parser.parse_design src; Fpga_hdl.Parser.parse_design src |]
  in
  let k = ref 0 in
  fun () ->
    k := 1 - !k;
    Fpga_sim.Elaborate.elaborate designs.(!k) ~top

let bench_design bd_id bd_top bd_src bd_stim =
  let bd_elaborate = elaborator bd_src ~top:bd_top in
  { bd_id; bd_top; bd_src; bd_stim; bd_elaborate; bd_flat = bd_elaborate () }

(* D2 with the debug recipe's on-FPGA instrumentation, printed back to
   Verilog: SignalCat's recorder stages one wide concat of every
   monitor's constraint and arguments per cycle, beside a per-cycle
   counter. *)
let recorder_src (bug : Bug.t) =
  let r = Fpga_testbed.Recipe.apply ~buffer_depth:2048 bug in
  let design = Bug.design_of bug ~buggy:true in
  let top = Option.get (Fpga_hdl.Ast.find_module design bug.Bug.top) in
  Fpga_hdl.Pp_verilog.design_to_string
    (Fpga_hdl.Ast.replace_module design top r.Fpga_testbed.Recipe.on_fpga)

let bench_designs () =
  let of_bug id =
    let bug = Option.get (Registry.find id) in
    bench_design id bug.Bug.top bug.Bug.buggy_src bug.Bug.stimulus
  in
  let d2 = Option.get (Registry.find "D2") in
  let const_d v =
    Fpga_sim.Testbench.const_stimulus [ ("d", Bits.of_int ~width:8 v) ]
  in
  [
    of_bug "D2";  (* grayscale converter *)
    bench_design "D2-REC" d2.Bug.top (recorder_src d2) d2.Bug.stimulus;
    of_bug "D4";  (* frame FIFO *)
    of_bug "D8";  (* AXI-stream switch (packet router) *)
    bench_design "IDLE64" "idle" (idle_design_src 64) (const_d 42);
    bench_design "SEQ64" "seqheavy" (seq_design_src 64) (const_d 7);
  ]

(* Run [f] repeatedly until [min_elapsed] wall seconds accumulate and
   report iterations per second. *)
let runs_per_sec ?(min_elapsed = 0.2) f =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < min_elapsed do
    f ();
    incr n
  done;
  float_of_int !n /. (Unix.gettimeofday () -. t0)

(* One batch: build a simulator of the design and drive it through up
   to 2000 cycles of its stimulus. Returns the simulator and its
   simulated cycles per wall second, timing only the stepping loop. *)
let batch ~kernel (d : bench_design) =
  let sim = Simulator.create ~kernel d.bd_flat in
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while !n < 2000 && not (Simulator.finished sim) do
    List.iter (fun (nm, v) -> Simulator.set_input sim nm v) (d.bd_stim !n);
    Simulator.step sim;
    incr n
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (sim, if dt > 0.0 then float_of_int !n /. dt else 0.0)

let batch_cps ~kernel d () = snd (batch ~kernel d)

(* Noise-immune same-run comparison: sweep every measurement of every
   group (each returns one batch's rate) in turn until [seconds] of
   wall time pass, and keep each one's fastest batch. Interference on a
   shared host only ever slows a batch, never speeds it, so the fastest
   batch converges on the unloaded machine's speed. Within a group the
   batches run side by side, so their ratio holds where aggregate
   windows flap by tens of percent; and each group's batches spread
   over the whole window, so a burst of host load spoils only the
   sweeps it overlaps, not one group's whole measurement. *)
let best_interleaved ~seconds groups =
  let best = List.map (fun fs -> Array.make (Array.length fs) 0.0) groups in
  let stop = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < stop do
    List.iter2
      (fun fs best ->
        Array.iteri (fun i f -> best.(i) <- Float.max best.(i) (f ())) fs)
      groups best
  done;
  best

(* Word-level Bits micro-benchmarks: the hot ops the limb-wise rewrite
   targets, at widths straddling the 32-bit limb boundary. Each op's
   batches alternate with those of one fixed reference op, a 32-bit
   add, and its ratio is the median of its rate over the reference's
   across those pairs: a burst of host load that slows a few batches
   moves a median far less than it can move a best batch of the much
   shorter Bits runs. Every batch lasts about 200 us, whatever the op's
   speed, so both sides of a pair see the same host, and starts on an
   empty minor heap, so no batch pays for a collection another skipped. *)
type bits_bench = {
  bb_op : string;
  bb_width : int;
  bb_ops_per_sec : float;  (* the op's best batch *)
  bb_ratio : float;  (* over the reference op's rate *)
}

let bits_batch op =
  let rate iters =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (op ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt > 0.0 then float_of_int iters /. dt else 0.0
  in
  let iters = max 100 (int_of_float (2e-4 *. rate 1000)) in
  fun () -> rate iters

let bits_bench_one ~reference name width op =
  let op = bits_batch op in
  let pairs = ref [] in
  let stop = Unix.gettimeofday () +. 0.2 in
  while Unix.gettimeofday () < stop do
    let rate = op () in
    pairs := (rate, rate /. reference ()) :: !pairs
  done;
  let rates, ratios = List.split !pairs in
  let ratios = Array.of_list ratios in
  Array.sort Float.compare ratios;
  {
    bb_op = name;
    bb_width = width;
    bb_ops_per_sec = List.fold_left Float.max 0.0 rates;
    bb_ratio = ratios.(Array.length ratios / 2);
  }

let bits_benches () =
  let operands w =
    let pattern = Bits.of_int ~width:32 0xDEADBEEF in
    let a = Bits.resize (Bits.repeat ((w + 31) / 32) pattern) w in
    (a, Bits.lognot a)
  in
  let reference =
    let a, b = operands 32 in
    bits_batch (fun () -> Bits.add a b)
  in
  List.concat_map
    (fun w ->
      let a, b = operands w in
      let k = (w / 3) + 1 in
      let hi = w - 1 - (w / 4) and lo = w / 4 in
      let cases =
        [
          ("shift_left", fun () -> Bits.shift_left a k);
          ("shift_right", fun () -> Bits.shift_right a k);
          ("slice", fun () -> Bits.slice a ~hi ~lo);
          ("concat", fun () -> Bits.concat [ a; b; a ]);
          ("mul", fun () -> Bits.mul a b);
        ]
      in
      List.map (fun (name, op) -> bits_bench_one ~reference name w op) cases)
    [ 8; 32; 64; 128 ]

(* Per design: parse and elaborate rates, and the two kernels' best
   batches, interleaved. [br_brute_cps] and [br_ldirty_cps] are the
   numbers both the kernel gate and the baseline's speedup read. *)
type bench_result = {
  br_id : string;
  br_top : string;
  br_parse_per_sec : float;
  br_elaborate_per_sec : float;
  br_brute_cps : float;
  br_ldirty_cps : float;
}

let bench_results designs =
  let cps =
    best_interleaved ~seconds:3.75
      (List.map
         (fun d ->
           [|
             batch_cps ~kernel:Simulator.Brute_force d;
             batch_cps ~kernel:Simulator.Lowered_dirty d;
           |])
         designs)
  in
  List.map2
    (fun (d : bench_design) cps ->
      {
        br_id = d.bd_id;
        br_top = d.bd_top;
        br_parse_per_sec =
          runs_per_sec (fun () ->
              ignore (Fpga_hdl.Parser.parse_design d.bd_src));
        br_elaborate_per_sec =
          runs_per_sec (fun () -> ignore (d.bd_elaborate ()));
        br_brute_cps = cps.(0);
        br_ldirty_cps = cps.(1);
      })
    designs cps

(* Lowering-pass statics per bench design: how long one lowered
   construction takes and what the closure compiler emitted. The counts
   are exact facts of the compiled plan (not timings), so they are safe
   for byte-level baseline diffs. *)
type lowering_bench = {
  lo_design : string;
  lo_compile_ms : float;
  lo_nodes : int;
  lo_closures : int;
  lo_fused : int;
  lo_imm : int;
  lo_boxed : int;
  lo_seq : int;
}

(* [Simulator.create] reuses the last plan it compiled for the same
   physical flat, so this creates on the flats of two distinct parses
   in turn: every timed call compiles its plan cold. *)
let lowering_bench_one (d : bench_design) =
  let flats = [| d.bd_flat; d.bd_elaborate () |] in
  let k = ref 0 in
  let creates_per_sec =
    runs_per_sec (fun () ->
        k := 1 - !k;
        ignore (Simulator.create ~kernel:Simulator.Lowered_dirty flats.(!k)))
  in
  let sim = Simulator.create ~kernel:Simulator.Lowered_dirty flats.(0) in
  let st = Option.get (Simulator.lowering_stats sim) in
  {
    lo_design = d.bd_id;
    lo_compile_ms = 1000.0 /. creates_per_sec;
    lo_nodes = st.Fpga_sim.Lowered.lw_nodes;
    lo_closures = st.Fpga_sim.Lowered.lw_closures;
    lo_fused = st.Fpga_sim.Lowered.lw_fused;
    lo_imm = st.Fpga_sim.Lowered.lw_imm;
    lo_boxed = st.Fpga_sim.Lowered.lw_boxed;
    lo_seq = st.Fpga_sim.Lowered.lw_seq;
  }

(* Kernel-telemetry readout: one instrumented 2000-cycle run per bench
   design, reporting how much of the full-sweep work the default kernel
   actually performed (in fused closures). *)
type telemetry_stats = {
  ts_design : string;
  ts_settles : int;
  ts_node_rounds : int;
  ts_nodes_evaluated : int;
  ts_efficiency : float;
}

let telemetry_stats_one (d : bench_design) =
  Telemetry.reset ();
  let sim, _ = batch ~kernel:Simulator.default_kernel d in
  let st = Simulator.stats sim in
  {
    ts_design = d.bd_id;
    ts_settles = st.rs_settles;
    ts_node_rounds = st.rs_closures_run + st.rs_closures_skipped;
    ts_nodes_evaluated = st.rs_closures_run;
    ts_efficiency = Option.value (Simulator.kernel_efficiency sim) ~default:1.0;
  }

let telemetry_benches designs =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  List.map telemetry_stats_one designs

(* Cost of the single-branch disabled guard and of full recording: the
   same stepping workload, under the default kernel, with telemetry off
   and on, best batches interleaved. The kernel counters are kept
   either way, so "on" adds only the per-signal toggle counts and the
   trace counter sampling. *)
type overhead = {
  to_design : string;
  to_cps_off : float;
  to_cps_on : float;
  to_overhead_pct : float;
  (* same workload with structured tracing on (telemetry off): the
     span-tree buffer plus the window-sampled counter series *)
  to_cps_trace : float;
  to_trace_overhead_pct : float;
}

let telemetry_overheads designs =
  let modes d =
    let off = batch_cps ~kernel:Simulator.default_kernel d in
    let on () =
      Telemetry.enable ();
      Telemetry.reset ();
      Fun.protect ~finally:Telemetry.disable off
    in
    let traced () =
      Telemetry.Trace.enable ~clock:Telemetry.Trace.Virtual ();
      Telemetry.Trace.reset ();
      Fun.protect
        ~finally:(fun () ->
          Telemetry.Trace.reset ();
          Telemetry.Trace.disable ())
        off
    in
    [| off; on; traced |]
  in
  List.map2
    (fun (d : bench_design) cps ->
      let pct c = 100.0 *. (1.0 -. (c /. cps.(0))) in
      {
        to_design = d.bd_id;
        to_cps_off = cps.(0);
        to_cps_on = cps.(1);
        to_overhead_pct = pct cps.(1);
        to_cps_trace = cps.(2);
        to_trace_overhead_pct = pct cps.(2);
      })
    designs
    (best_interleaved ~seconds:1.8 (List.map modes designs))

(* Instance reuse: per Table 2 design (buggy source), what building a
   simulator costs (elaborate + create, as a cold [Bug.run_design]
   pays; [elaborator] alternates two parses, so neither the elaboration
   memo nor [create]'s plan memo ever hits) against returning a built
   one to its initial state ([Simulator.reset], as a warm one pays).
   Batches of 20 builds and 20 resets alternate, and each side keeps its
   least time per call: like [best_interleaved], the least-disturbed
   batch, so host noise cannot drag the same-run ratio [reuse_gate]
   checks. *)
type reuse_bench = {
  rb_design : string;
  rb_build_us : float;
  rb_reset_us : float;
}

let reuse_bench_one ?(min_elapsed = 0.1) (bug : Bug.t) =
  let elaborate = elaborator bug.Bug.buggy_src ~top:bug.Bug.top in
  let sim = Simulator.create (elaborate ()) in
  Simulator.run sim 20;
  let batch f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 20 do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. 20.0 *. 1e6
  in
  let build = ref infinity and reset = ref infinity in
  let stop = Unix.gettimeofday () +. min_elapsed in
  while Unix.gettimeofday () < stop do
    build :=
      Float.min !build
        (batch (fun () -> ignore (Simulator.create (elaborate ()))));
    reset := Float.min !reset (batch (fun () -> Simulator.reset sim))
  done;
  { rb_design = bug.Bug.id; rb_build_us = !build; rb_reset_us = !reset }

(* Campaign throughput: the full Table 2 repro set executed on a
   domain pool of growing width. jobs/sec and cycles/sec are the
   headline numbers; utilization shows how evenly the queue drained.
   Speedup is relative to the 1-domain (inline) run. Its size is
   machine-dependent, so it stays out of the warn-only baseline
   comparison; [campaign_gate] only demands that 2 domains do not lose
   to 1 on a host with a core for each worker and the caller. *)
type campaign_bench = {
  cb_domains : int;
  cb_wall : float;
  cb_jobs_per_sec : float;
  cb_cycles_per_sec : float;
  cb_utilization : float;
  cb_speedup : float;
}

let campaign_benches () =
  let open Fpga_campaign.Campaign in
  let bugs = Registry.all in
  let run_at domains =
    (* best of three: the first pass also warms the minor heap *)
    let best = ref (run ~domains bugs) in
    for _ = 1 to 2 do
      let c = run ~domains bugs in
      if c.c_stats.ps_wall < !best.c_stats.ps_wall then best := c
    done;
    !best
  in
  let serial = run_at 1 in
  let serial_wall = serial.c_stats.ps_wall in
  List.map
    (fun domains ->
      let c = if domains = 1 then serial else run_at domains in
      let wall = c.c_stats.ps_wall in
      {
        cb_domains = domains;
        cb_wall = wall;
        cb_jobs_per_sec = float_of_int c.c_stats.ps_jobs /. wall;
        cb_cycles_per_sec = float_of_int c.c_cycles /. wall;
        cb_utilization = c.c_stats.ps_utilization;
        cb_speedup = serial_wall /. wall;
      })
    [ 1; 2; 4 ]

(* The schema [json_of_results] writes; [compare_to_baseline] warns
   when the baseline was written under another. *)
let schema = "fpga-debug-bench/13"

let json_of_results results lowerings bits telem overheads campaigns reuses =
  let open Json in
  Obj
    [ ("schema", Str schema);
      (* "speedup" is lowered-dirty, the kernel [Simulator.create]
         builds, over brute force, both best batches of one run *)
      ( "designs",
        rows
          (fun r ->
            [ ("id", Str r.br_id); ("top", Str r.br_top);
              ("parse_per_sec", fixed 1 r.br_parse_per_sec);
              ("elaborate_per_sec", fixed 1 r.br_elaborate_per_sec);
              ("sim_cycles_per_sec_brute", fixed 1 r.br_brute_cps);
              ("sim_cycles_per_sec_lowered_dirty", fixed 1 r.br_ldirty_cps);
              ("speedup", fixed 2 (r.br_ldirty_cps /. r.br_brute_cps)) ])
          results );
      ( "lowering",
        rows
          (fun l ->
            [ ("design", Str l.lo_design);
              ("compile_ms", fixed 3 l.lo_compile_ms);
              ("nodes", Int l.lo_nodes); ("closures", Int l.lo_closures);
              ("fused", Int l.lo_fused); ("imm_signals", Int l.lo_imm);
              ("boxed_signals", Int l.lo_boxed); ("seq_blocks", Int l.lo_seq) ])
          lowerings );
      (* "ratio" is the op's rate over the 32-bit add's, same run *)
      ( "bits_ops",
        rows
          (fun b ->
            [ ("op", Str b.bb_op); ("width", Int b.bb_width);
              ("ops_per_sec", fixed 1 b.bb_ops_per_sec);
              ("ratio", fixed 4 b.bb_ratio) ])
          bits );
      ( "telemetry",
        rows
          (fun t ->
            [ ("design", Str t.ts_design); ("settles", Int t.ts_settles);
              ("node_rounds", Int t.ts_node_rounds);
              ("nodes_evaluated", Int t.ts_nodes_evaluated);
              ("kernel_efficiency", fixed 4 t.ts_efficiency) ])
          telem );
      ( "telemetry_overhead",
        rows
          (fun o ->
            [ ("design", Str o.to_design); ("cps_off", fixed 1 o.to_cps_off);
              ("cps_on", fixed 1 o.to_cps_on);
              ("overhead_pct", fixed 1 o.to_overhead_pct);
              ("cps_trace_on", fixed 1 o.to_cps_trace);
              ("trace_overhead_pct", fixed 1 o.to_trace_overhead_pct) ])
          overheads );
      ( "campaign",
        rows
          (fun c ->
            [ ("domains", Int c.cb_domains);
              ("wall_seconds", fixed 4 c.cb_wall);
              ("jobs_per_sec", fixed 1 c.cb_jobs_per_sec);
              ("cycles_per_sec", fixed 1 c.cb_cycles_per_sec);
              ("pool_utilization", fixed 3 c.cb_utilization);
              ("speedup", fixed 2 c.cb_speedup) ])
          campaigns );
      ( "reuse",
        rows
          (fun r ->
            [ ("design", Str r.rb_design); ("build_us", fixed 2 r.rb_build_us);
              ("reset_us", fixed 2 r.rb_reset_us);
              ("build_over_reset", fixed 2 (r.rb_build_us /. r.rb_reset_us)) ])
          reuses ) ]

(* --------------------------------------------------------------- *)
(* Baseline comparison (--baseline)                                 *)
(* --------------------------------------------------------------- *)

(* The ratios a bench JSON holds, by label: "D2" for a design's
   speedup, "mul@8" for a Bits op's ratio. An entry without a positive,
   finite ratio is left out, so the check names it as missing. *)
let labelled_ratios json =
  let ratios section ~label ~ratio =
    match Json.member section json with
    | Some (Json.Arr entries) ->
        List.filter_map
          (fun e ->
            match (label e, Json.member ratio e) with
            | Some l, Some (Json.Num r) when Float.is_finite r && r > 0.0 ->
                Some (l, r)
            | _ -> None)
          entries
    | _ -> []
  in
  ratios "designs" ~ratio:"speedup" ~label:(fun e ->
      match Json.member "id" e with Some (Json.Str id) -> Some id | _ -> None)
  @ ratios "bits_ops" ~ratio:"ratio" ~label:(fun e ->
        match (Json.member "op" e, Json.member "width" e) with
        | Some (Json.Str op), Some (Json.Int w) ->
            Some (Printf.sprintf "%s@%d" op w)
        | _ -> None)

(* A ratio below this share of its baseline value draws a warning. *)
let ratio_tolerance = 0.8

(* Warn-only regression check of this run's report [current]
   against the baseline file: every label must be on both sides, and
   no ratio may fall below [ratio_tolerance] of its baseline value.
   Both sides are same-run ratios, so a slower or busier host moves
   them far less than absolute rates; still, the check never exits
   non-zero, and the warning lines are what reviewers grep for. A
   baseline that cannot be read, is not JSON, or was written under
   another schema gets one warning and no comparison. *)
let compare_to_baseline ~current ~baseline_path =
  let warn fmt = Printf.printf ("BENCH WARNING: " ^^ fmt ^^ "\n") in
  match
    Json.parse (In_channel.with_open_bin baseline_path In_channel.input_all)
  with
  | exception Sys_error msg -> warn "cannot read baseline: %s" msg
  | exception Json.Bad_json msg ->
      warn "baseline %s is not valid JSON: %s" baseline_path msg
  | base -> (
      match Json.member "schema" base with
      | Some (Json.Str s) when s = schema ->
          let base = labelled_ratios base
          and now = labelled_ratios current in
          let warnings = ref 0 in
          let warn fmt = incr warnings; warn fmt in
          List.iter
            (fun (label, b) ->
              match List.assoc_opt label now with
              | None ->
                  warn "%s is in baseline %s but not in this run" label
                    baseline_path
              | Some r when r < ratio_tolerance *. b ->
                  warn "%s ratio regressed: %.4g vs baseline %.4g (%.0f%%)"
                    label r b (100.0 *. r /. b)
              | Some _ -> ())
            base;
          List.iter
            (fun (label, _) ->
              if not (List.mem_assoc label base) then
                warn "%s is not in baseline %s" label baseline_path)
            now;
          if !warnings = 0 then
            Printf.printf
              "baseline check: %d ratios within %.0f%% of %s\n"
              (List.length base)
              (100.0 *. (1.0 -. ratio_tolerance))
              baseline_path
      | s ->
          warn "baseline %s has schema %s, this run writes %s" baseline_path
            (match s with Some (Json.Str s) -> s | _ -> "none")
            schema)

(* The default kernel is a pure optimization of the full sweep: it
   must never lose to the brute-force reference it replaces, on the
   same machine, in the same run. Unlike the warn-only baseline
   comparison (cross-machine, cross-run), this same-run relative gate
   is immune to host speed, so bench-smoke fails hard on it. *)
let kernel_gate results =
  let failures =
    List.filter_map
      (fun r ->
        if r.br_ldirty_cps < r.br_brute_cps then
          Some
            (Printf.sprintf "%s slower under lowered-dirty than brute \
                             (%.1f vs %.1f cycles/s)"
               r.br_id r.br_ldirty_cps r.br_brute_cps)
        else None)
      results
  in
  List.iter (Printf.printf "KERNEL GATE FAILURE: %s\n") failures;
  if failures = [] then
    Printf.printf
      "kernel gate: lowered-dirty >= brute-force on all %d designs\n"
      (List.length results);
  failures = []

(* The campaign pool must pay for itself: the 2-domain campaign's
   best-of-3 wall may not exceed the 1-domain one measured in the same
   run. A 2-wide pool is three domains, two workers and the waiting
   caller, and all three meet at every minor collection; on a host with
   fewer cores than that the ratio is only printed. *)
let campaign_gate campaigns =
  match List.find_opt (fun c -> c.cb_domains = 2) campaigns with
  | None -> true
  | Some c ->
      let cores = Domain.recommended_domain_count () in
      let ok = cores < 3 || c.cb_speedup >= 1.0 in
      Printf.printf "campaign gate: 2 domains at %.2fx of 1 domain (%d cores)%s\n"
        c.cb_speedup cores
        (if ok then "" else " -- CAMPAIGN GATE FAILURE: below 1.00x");
      ok

(* Reusing a simulator must pay for itself: a reset may cost at most a
   third of the elaborate + create it replaces, on every Table 2
   design, measured in the same run. *)
let reuse_min_ratio = 3.0

let reuse_gate reuses =
  let ratio r = r.rb_build_us /. r.rb_reset_us in
  let failures = List.filter (fun r -> ratio r < reuse_min_ratio) reuses in
  List.iter
    (fun r ->
      Printf.printf
        "REUSE GATE FAILURE: %s reset %.1f us is only %.2fx cheaper than \
         elaborate+create %.1f us\n"
        r.rb_design r.rb_reset_us (ratio r) r.rb_build_us)
    failures;
  (match failures, reuses with
  | [], r0 :: rest ->
      let least =
        List.fold_left (fun a r -> if ratio r < ratio a then r else a) r0 rest
      in
      Printf.printf
        "reuse gate: reset >= %.0fx cheaper than elaborate+create on all %d \
         designs (least %.1fx, %s)\n"
        reuse_min_ratio (List.length reuses) (ratio least) least.rb_design
  | _ -> ());
  failures = []

let run_json_bench path baseline =
  let designs = bench_designs () in
  let results = bench_results designs in
  let lowerings = List.map lowering_bench_one designs in
  let bits = bits_benches () in
  let telem = telemetry_benches designs in
  let overheads =
    telemetry_overheads
      (List.filter (fun d -> d.bd_id = "IDLE64" || d.bd_id = "D2") designs)
  in
  let campaigns = campaign_benches () in
  let reuses = List.map reuse_bench_one Registry.all in
  let report =
    json_of_results results lowerings bits telem overheads campaigns reuses
  in
  let json = Json.to_string report in
  Out_channel.with_open_bin path (fun oc -> output_string oc json);
  print_string json;
  Printf.printf "\nwrote %s\n" path;
  Option.iter
    (fun baseline_path -> compare_to_baseline ~current:report ~baseline_path)
    baseline;
  let kernel_ok = kernel_gate results in
  let campaign_ok = campaign_gate campaigns in
  let reuse_ok = reuse_gate reuses in
  if not (kernel_ok && campaign_ok && reuse_ok) then exit 1

(* [--json PATH] names the output file (BENCH.json by default);
   [--baseline PATH] names the checked-in file to compare with. *)
let flag name =
  let rec go = function
    | f :: v :: _ when f = name && v <> "--json" && v <> "--baseline" -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let () =
  run_json_bench
    (Option.value (flag "--json") ~default:"BENCH.json")
    (flag "--baseline")
