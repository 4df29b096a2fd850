(* Kernel profiling: one instrumented run of a testbed bug, reported as
   a human table or schema-stable JSON. See profile.mli. *)

module Bug = Fpga_testbed.Bug
module L = Fpga_sim.Lowered
module Simulator = Fpga_sim.Simulator
module Json = Fpga_telemetry.Json
module Telemetry = Fpga_telemetry.Telemetry
module Trace = Telemetry.Trace

type t = {
  p_bug_id : string;
  p_top : string;
  p_kernel : string;
  p_cycles_requested : int;
  p_cycles_run : int;
  p_finished : bool;
  p_stats : L.run_stats;
  p_prim_steps : int;
  p_efficiency : float;
  p_lowered : L.stats option;
  p_hottest : (string * int) list;
  p_spans : (string * int * float) list;
  p_counters : (string * int) list;
}

let kernel_name = Simulator.kernel_name

(* The category-"span" spans of a captured trace as (name, calls,
   seconds), sorted by name. Each 'E' closes the innermost open 'B',
   whatever its category. *)
let phases (sg : Trace.segment) =
  let totals = Hashtbl.create 8 in
  let close (is_span, name, t0) (e : Trace.event) =
    if is_span then
      let calls, us =
        Option.value (Hashtbl.find_opt totals name) ~default:(0, 0)
      in
      Hashtbl.replace totals name (calls + 1, us + e.te_ts - t0)
  in
  ignore
    (List.fold_left
       (fun open_ (e : Trace.event) ->
         match (e.te_ph, open_) with
         | 'B', _ -> (e.te_cat = "span", e.te_name, e.te_ts) :: open_
         | 'E', b :: outer ->
             close b e;
             outer
         | _ -> open_)
       [] sg.Trace.sg_events);
  Hashtbl.fold
    (fun name (calls, us) acc -> (name, calls, float_of_int us /. 1e6) :: acc)
    totals []
  |> List.sort compare

let run ?kernel ?(cycles = 200) ?(top_k = 10) (bug : Bug.t) : t =
  let was_enabled = Telemetry.enabled () and was_tracing = Trace.enabled () in
  Telemetry.enable ();
  Telemetry.reset ();
  (* the phases are read from the run's trace: trace it unless the
     caller already does *)
  if not was_tracing then Trace.enable ();
  let mark = Trace.mark () in
  (* restore only the switches: the counters stay readable afterwards,
     and a tracing caller keeps the run's events for its export *)
  Fun.protect
    ~finally:(fun () ->
      if not was_tracing then (
        Trace.reset ();
        Trace.disable ());
      if not was_enabled then Telemetry.disable ())
  @@ fun () ->
  let design =
    Telemetry.span "parse" (fun () -> Bug.design_of bug ~buggy:true)
  in
  let flat =
    Telemetry.span "elaborate" (fun () ->
        Fpga_sim.Elaborate.elaborate design ~top:bug.Bug.top)
  in
  (* [Simulator.create] records the "compile" span itself *)
  let sim = Simulator.create ?kernel flat in
  ignore (Fpga_sim.Testbench.run ~max_cycles:cycles sim bug.Bug.stimulus);
  let stats = Simulator.stats sim in
  {
    p_bug_id = bug.Bug.id;
    p_top = bug.Bug.top;
    p_kernel = kernel_name (Simulator.kernel sim);
    p_cycles_requested = cycles;
    p_cycles_run = Simulator.cycle sim;
    p_finished = Simulator.finished sim;
    p_stats = stats;
    (* every step fires each primitive once, on the rising edge *)
    p_prim_steps =
      stats.rs_steps
      * List.length (Simulator.flat sim).Fpga_sim.Elaborate.f_prims;
    p_efficiency = Option.value (Simulator.kernel_efficiency sim) ~default:1.0;
    p_lowered = Simulator.lowering_stats sim;
    p_hottest = Simulator.hottest_signals ~k:top_k sim;
    p_spans = phases (Trace.capture_since mark);
    p_counters = (Telemetry.report ()).Telemetry.r_counters;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* [part] over [total], 0 for an empty [total] *)
let share part total =
  if total = 0 then 0.0 else float_of_int part /. float_of_int total

let to_json (p : t) : string =
  let open Json in
  let r = p.p_stats in
  let rounds = r.rs_closures_run + r.rs_closures_skipped in
  let commits = r.rs_commit_imm + r.rs_commit_boxed in
  (* the lowered kernel's closure and statement-group skip rates and
     commit-buffer occupancy; absent for brute force *)
  let lowered =
    match p.p_lowered with
    | None -> []
    | Some lw ->
        let seq_rate =
          share r.rs_seq_skipped (r.rs_seq_run + r.rs_seq_skipped)
        in
        [ ( "lowered",
            Obj
              [ ("closures", Int lw.lw_closures); ("fused", Int lw.lw_fused);
                ("imm_signals", Int lw.lw_imm);
                ("boxed_signals", Int lw.lw_boxed);
                ("seq_blocks", Int lw.lw_seq); ("settles", Int r.rs_settles);
                ("closures_run", Int r.rs_closures_run);
                ("closures_skipped", Int r.rs_closures_skipped);
                ("skip_rate", fixed 4 (share r.rs_closures_skipped rounds));
                ("seq_groups_run", Int r.rs_seq_run);
                ("seq_groups_skipped", Int r.rs_seq_skipped);
                ("seq_skip_rate", fixed 4 seq_rate);
                ("edge_runs", Int r.rs_edges);
                ("commit_imm", Int r.rs_commit_imm);
                ("commit_boxed", Int r.rs_commit_boxed);
                ("commit_per_edge", fixed 2 (share commits r.rs_edges)) ] ) ]
  in
  to_string
    (Obj
       ([ ("schema", Str "fpga-debug-profile/5"); ("bug", Str p.p_bug_id);
          ("top", Str p.p_top); ("kernel", Str p.p_kernel);
          ("cycles_requested", Int p.p_cycles_requested);
          ("cycles_run", Int p.p_cycles_run); ("finished", Bool p.p_finished);
          ( "phases",
            rows
              (fun (name, calls, secs) ->
                [ ("name", Str name); ("calls", Int calls);
                  ("seconds", fixed 6 secs) ])
              p.p_spans );
          ( "kernel_stats",
            Obj
              [ ("steps", Int r.rs_steps); ("settles", Int r.rs_settles);
                ("node_rounds", Int rounds);
                ("nodes_evaluated", Int r.rs_closures_run);
                ("nodes_skipped", Int r.rs_closures_skipped);
                ("kernel_efficiency", fixed 4 p.p_efficiency);
                ("dirty_total", Int r.rs_dirty_total);
                ("dirty_peak", Int r.rs_dirty_peak);
                ("nba_commits", Int commits);
                ("prim_steps", Int p.p_prim_steps);
                ("displays", Int r.rs_displays) ] ) ]
       @ lowered
       @ [ ( "settle_rounds",
             Obj
               [ ("count", Int r.rs_settles); ("min", Int r.rs_run_min);
                 ("max", Int r.rs_run_max);
                 ("mean", fixed 2 (share r.rs_closures_run r.rs_settles)) ] );
           ( "hottest_signals",
             rows
               (fun (name, n) -> [ ("signal", Str name); ("toggles", Int n) ])
               p.p_hottest );
           ( "counters",
             rows
               (fun (name, v) -> [ ("name", Str name); ("value", Int v) ])
               p.p_counters ) ]))

(* ------------------------------------------------------------------ *)
(* Human output                                                        *)
(* ------------------------------------------------------------------ *)

let print (p : t) =
  let r = p.p_stats in
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
  Printf.printf "  steps              %8d\n" r.rs_steps;
  Printf.printf "  settles            %8d\n" r.rs_settles;
  Printf.printf "  node rounds        %8d\n"
    (r.rs_closures_run + r.rs_closures_skipped);
  Printf.printf "  nodes evaluated    %8d\n" r.rs_closures_run;
  Printf.printf "  nodes skipped      %8d\n" r.rs_closures_skipped;
  Printf.printf "  kernel efficiency  %8.1f%% of full-sweep work\n"
    (100.0 *. p.p_efficiency);
  Printf.printf "  dirty-set peak     %8d\n" r.rs_dirty_peak;
  Printf.printf "  NBA commits        %8d\n"
    (r.rs_commit_imm + r.rs_commit_boxed);
  Printf.printf "  primitive steps    %8d\n" p.p_prim_steps;
  Printf.printf "  displays           %8d\n" r.rs_displays;
  if r.rs_settles > 0 then
    Printf.printf "  nodes/settle       min %d, mean %.1f, max %d\n" r.rs_run_min
      (share r.rs_closures_run r.rs_settles) r.rs_run_max;
  (match p.p_lowered with
  | None -> ()
  | Some lw ->
      Printf.printf "\nlowered kernel (dirty-set):\n";
      Printf.printf "  plan closures      %8d  (%d fused)\n" lw.lw_closures
        lw.lw_fused;
      Printf.printf "  seq blocks         %8d\n" lw.lw_seq;
      Printf.printf "  closures run       %8d\n" r.rs_closures_run;
      Printf.printf "  closures skipped   %8d\n" r.rs_closures_skipped;
      let total = r.rs_closures_run + r.rs_closures_skipped in
      if total > 0 then
        Printf.printf "  skip rate          %8.1f%%\n"
          (100.0 *. float_of_int r.rs_closures_skipped /. float_of_int total);
      Printf.printf "  seq groups run     %8d\n" r.rs_seq_run;
      Printf.printf "  seq groups skipped %8d\n" r.rs_seq_skipped;
      let seq_total = r.rs_seq_run + r.rs_seq_skipped in
      if seq_total > 0 then
        Printf.printf "  seq skip rate      %8.1f%%\n"
          (100.0 *. share r.rs_seq_skipped seq_total);
      Printf.printf "  commits (imm/box)  %8d / %d\n" r.rs_commit_imm
        r.rs_commit_boxed;
      if r.rs_edges > 0 then
        Printf.printf "  commits per edge   %8.2f\n"
          (share (r.rs_commit_imm + r.rs_commit_boxed) r.rs_edges));
  match p.p_hottest with
  | [] -> ()
  | hottest ->
      Printf.printf "\nhottest signals (toggles):\n";
      List.iter
        (fun (name, n) -> Printf.printf "  %-32s %8d\n" name n)
        hottest
