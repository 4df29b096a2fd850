(* Kernel profiling: one instrumented run of a testbed bug, reported as
   a human table or schema-stable JSON. See profile.mli. *)

module Bug = Fpga_testbed.Bug
module Simulator = Fpga_sim.Simulator
module Telemetry = Fpga_telemetry.Telemetry

(* Lowered-kernel profile: static lowering shape + runtime skip/commit
   behaviour, present only when the run used the lowered kernel. *)
type lowered_profile = {
  lp_stats : Fpga_sim.Lowered.stats;
  lp_runs : Fpga_sim.Lowered.run_stats;
}

type t = {
  p_bug_id : string;
  p_top : string;
  p_kernel : string;
  p_cycles_requested : int;
  p_cycles_run : int;
  p_finished : bool;
  p_stats : Simulator.stats;
  p_efficiency : float;
  p_lowered : lowered_profile option;
  p_hottest : (string * int) list;
  p_spans : (string * int * float) list;
  p_counters : (string * int) list;
}

let kernel_name = Simulator.kernel_name

let run ?kernel ?(cycles = 200) ?(top_k = 10) (bug : Bug.t) : t =
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Telemetry.reset ();
  (* restore only the switch: the collected run stays readable afterwards *)
  Fun.protect ~finally:(fun () -> if not was_enabled then Telemetry.disable ())
  @@ fun () ->
  let design =
    Telemetry.span "parse" (fun () -> Bug.design_of bug ~buggy:true)
  in
  let flat =
    Telemetry.span "elaborate" (fun () ->
        Fpga_sim.Elaborate.elaborate design ~top:bug.Bug.top)
  in
  (* [Simulator.create] records the "compile" span itself; an omitted
     [kernel] keeps its automatic plan-shape selection *)
  let sim =
    match kernel with
    | Some kernel -> Simulator.create ~kernel flat
    | None -> Simulator.create flat
  in
  let i = ref 0 in
  while !i < cycles && not (Simulator.finished sim) do
    List.iter
      (fun (n, v) -> Simulator.set_input sim n v)
      (bug.Bug.stimulus !i);
    Simulator.step sim;
    incr i
  done;
  let stats =
    match Simulator.stats sim with
    | Some s -> s
    | None -> assert false (* telemetry was enabled at create *)
  in
  let report = Telemetry.report () in
  {
    p_bug_id = bug.Bug.id;
    p_top = bug.Bug.top;
    p_kernel = kernel_name (Simulator.kernel sim);
    p_cycles_requested = cycles;
    p_cycles_run = !i;
    p_finished = Simulator.finished sim;
    p_stats = stats;
    p_efficiency = Option.value (Simulator.kernel_efficiency sim) ~default:1.0;
    p_lowered =
      (match (Simulator.lowering_stats sim, Simulator.lowered_run_stats sim) with
      | Some lp_stats, Some lp_runs -> Some { lp_stats; lp_runs }
      | _ -> None);
    p_hottest = Simulator.hottest_signals ~k:top_k sim;
    p_spans = report.Telemetry.r_spans;
    p_counters = report.Telemetry.r_counters;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* Share of sequential statement groups skipped as clean. *)
let seq_skip_rate (r : Fpga_sim.Lowered.run_stats) =
  let total = r.rs_seq_run + r.rs_seq_skipped in
  if total = 0 then 0.0 else float_of_int r.rs_seq_skipped /. float_of_int total

let to_json (p : t) : string =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let st = p.p_stats in
  let hist = st.Simulator.st_settle_hist in
  add "{\n  \"schema\": \"fpga-debug-profile/5\",\n";
  add "  \"bug\": %S, \"top\": %S, \"kernel\": %S,\n" p.p_bug_id p.p_top
    p.p_kernel;
  add "  \"cycles_requested\": %d, \"cycles_run\": %d, \"finished\": %b,\n"
    p.p_cycles_requested p.p_cycles_run p.p_finished;
  add "  \"phases\": [\n";
  List.iteri
    (fun i (name, calls, secs) ->
      add "    {\"name\": %S, \"calls\": %d, \"seconds\": %.6f}%s\n" name calls
        secs
        (if i = List.length p.p_spans - 1 then "" else ","))
    p.p_spans;
  add "  ],\n";
  add "  \"kernel_stats\": {\n";
  add "    \"steps\": %d, \"settles\": %d,\n" st.Simulator.st_steps
    st.Simulator.st_settles;
  add "    \"node_rounds\": %d, \"nodes_evaluated\": %d, \
       \"nodes_skipped\": %d,\n"
    st.Simulator.st_node_rounds st.Simulator.st_nodes_evaluated
    st.Simulator.st_nodes_skipped;
  add "    \"kernel_efficiency\": %.4f,\n" p.p_efficiency;
  add "    \"dirty_total\": %d, \"dirty_peak\": %d,\n"
    st.Simulator.st_dirty_total st.Simulator.st_dirty_peak;
  add "    \"nba_commits\": %d, \"prim_steps\": %d, \"displays\": %d\n"
    st.Simulator.st_nba_commits st.Simulator.st_prim_steps
    st.Simulator.st_displays;
  add "  },\n";
  (* the lowered kernel's closure and statement-group skip rates and
     commit-buffer occupancy; absent for brute force *)
  (match p.p_lowered with
  | None -> ()
  | Some { lp_stats = lw; lp_runs = r } ->
      let module L = Fpga_sim.Lowered in
      let skip_rate =
        let total = r.L.rs_closures_run + r.L.rs_closures_skipped in
        if total = 0 then 0.0
        else float_of_int r.L.rs_closures_skipped /. float_of_int total
      in
      let seq_skip_rate = seq_skip_rate r in
      let commit_per_edge =
        if r.L.rs_edges = 0 then 0.0
        else
          float_of_int (r.L.rs_commit_imm + r.L.rs_commit_boxed)
          /. float_of_int r.L.rs_edges
      in
      add "  \"lowered\": {\n";
      add "    \"closures\": %d, \"fused\": %d,\n" lw.L.lw_closures
        lw.L.lw_fused;
      add "    \"imm_signals\": %d, \"boxed_signals\": %d, \"seq_blocks\": %d,\n"
        lw.L.lw_imm lw.L.lw_boxed lw.L.lw_seq;
      add "    \"settles\": %d, \"closures_run\": %d, \"closures_skipped\": %d,\n"
        r.L.rs_settles r.L.rs_closures_run r.L.rs_closures_skipped;
      add "    \"skip_rate\": %.4f,\n" skip_rate;
      add "    \"seq_groups_run\": %d, \"seq_groups_skipped\": %d,\n"
        r.L.rs_seq_run r.L.rs_seq_skipped;
      add "    \"seq_skip_rate\": %.4f,\n" seq_skip_rate;
      add "    \"edge_runs\": %d, \"commit_imm\": %d, \"commit_boxed\": %d,\n"
        r.L.rs_edges r.L.rs_commit_imm r.L.rs_commit_boxed;
      add "    \"commit_per_edge\": %.2f\n" commit_per_edge;
      add "  },\n");
  add
    "  \"settle_rounds\": {\"count\": %d, \"min\": %d, \"max\": %d, \
     \"mean\": %.2f},\n"
    hist.Telemetry.Histogram.hs_count hist.Telemetry.Histogram.hs_min
    hist.Telemetry.Histogram.hs_max
    (if hist.Telemetry.Histogram.hs_count = 0 then 0.0
     else
       float_of_int hist.Telemetry.Histogram.hs_sum
       /. float_of_int hist.Telemetry.Histogram.hs_count);
  add "  \"hottest_signals\": [\n";
  List.iteri
    (fun i (name, n) ->
      add "    {\"signal\": %S, \"toggles\": %d}%s\n" name n
        (if i = List.length p.p_hottest - 1 then "" else ","))
    p.p_hottest;
  add "  ],\n";
  add "  \"counters\": [\n";
  List.iteri
    (fun i (name, v) ->
      add "    {\"name\": %S, \"value\": %d}%s\n" name v
        (if i = List.length p.p_counters - 1 then "" else ","))
    p.p_counters;
  add "  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Human output                                                        *)
(* ------------------------------------------------------------------ *)

let print (p : t) =
  let st = p.p_stats in
  let hist = st.Simulator.st_settle_hist in
  Printf.printf "profile of %s (top %s, %s kernel): %d/%d cycles%s\n"
    p.p_bug_id p.p_top p.p_kernel p.p_cycles_run p.p_cycles_requested
    (if p.p_finished then ", design finished" else "");
  if p.p_spans <> [] then (
    Printf.printf "\nphases:\n";
    List.iter
      (fun (name, calls, secs) ->
        Printf.printf "  %-12s %6.3f s  (%d call%s)\n" name secs calls
          (if calls = 1 then "" else "s"))
      p.p_spans);
  Printf.printf "\nkernel:\n";
  Printf.printf "  steps              %8d\n" st.Simulator.st_steps;
  Printf.printf "  settles            %8d\n" st.Simulator.st_settles;
  Printf.printf "  node rounds        %8d\n" st.Simulator.st_node_rounds;
  Printf.printf "  nodes evaluated    %8d\n" st.Simulator.st_nodes_evaluated;
  Printf.printf "  nodes skipped      %8d\n" st.Simulator.st_nodes_skipped;
  Printf.printf "  kernel efficiency  %8.1f%% of full-sweep work\n"
    (100.0 *. p.p_efficiency);
  Printf.printf "  dirty-set peak     %8d\n" st.Simulator.st_dirty_peak;
  Printf.printf "  NBA commits        %8d\n" st.Simulator.st_nba_commits;
  Printf.printf "  primitive steps    %8d\n" st.Simulator.st_prim_steps;
  Printf.printf "  displays           %8d\n" st.Simulator.st_displays;
  if hist.Telemetry.Histogram.hs_count > 0 then
    Printf.printf "  nodes/settle       min %d, mean %.1f, max %d\n"
      hist.Telemetry.Histogram.hs_min
      (float_of_int hist.Telemetry.Histogram.hs_sum
      /. float_of_int hist.Telemetry.Histogram.hs_count)
      hist.Telemetry.Histogram.hs_max;
  (match p.p_lowered with
  | None -> ()
  | Some { lp_stats = lw; lp_runs = r } ->
      let module L = Fpga_sim.Lowered in
      Printf.printf "\nlowered kernel (dirty-set):\n";
      Printf.printf "  plan closures      %8d  (%d fused)\n" lw.L.lw_closures
        lw.L.lw_fused;
      Printf.printf "  seq blocks         %8d\n" lw.L.lw_seq;
      Printf.printf "  closures run       %8d\n" r.L.rs_closures_run;
      Printf.printf "  closures skipped   %8d\n" r.L.rs_closures_skipped;
      let total = r.L.rs_closures_run + r.L.rs_closures_skipped in
      if total > 0 then
        Printf.printf "  skip rate          %8.1f%%\n"
          (100.0 *. float_of_int r.L.rs_closures_skipped /. float_of_int total);
      Printf.printf "  seq groups run     %8d\n" r.L.rs_seq_run;
      Printf.printf "  seq groups skipped %8d\n" r.L.rs_seq_skipped;
      if r.L.rs_seq_run + r.L.rs_seq_skipped > 0 then
        Printf.printf "  seq skip rate      %8.1f%%\n" (100.0 *. seq_skip_rate r);
      Printf.printf "  commits (imm/box)  %8d / %d\n" r.L.rs_commit_imm
        r.L.rs_commit_boxed;
      if r.L.rs_edges > 0 then
        Printf.printf "  commits per edge   %8.2f\n"
          (float_of_int (r.L.rs_commit_imm + r.L.rs_commit_boxed)
          /. float_of_int r.L.rs_edges));
  match p.p_hottest with
  | [] -> ()
  | hottest ->
      Printf.printf "\nhottest signals (toggles):\n";
      List.iter
        (fun (name, n) -> Printf.printf "  %-32s %8d\n" name n)
        hottest
