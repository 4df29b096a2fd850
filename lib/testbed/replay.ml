(* Checkpoint streams and time-travel replay over the testbed. See
   replay.mli for the workflow contract.

   The bisection strategy mirrors checkpoint-based FPGA debuggers: the
   coarse search touches only checkpoint *metadata* (the harness state
   each snapshot carries), so it never deserializes values or
   simulates; only the final inter-checkpoint window is re-simulated,
   one cycle at a time, to pin the exact first failing cycle. *)

module Checkpoint = Fpga_sim.Checkpoint
module Simulator = Fpga_sim.Simulator
module Telemetry = Fpga_telemetry.Telemetry

let probes_counter = Telemetry.Counter.make "replay.bisect_probes"
let recorded_counter = Telemetry.Counter.make "replay.checkpoints_recorded"

type recording = {
  rec_checkpoints : Checkpoint.t list;
  rec_report : Bug.report;
}

let record ?kernel ?(every = 50) ?max_cycles (bug : Bug.t) : recording =
  Telemetry.span "replay.record" @@ fun () ->
  let cps = ref [] in
  let report =
    Bug.run_design ?kernel ?max_cycles ~checkpoint_every:every
      ~on_checkpoint:(fun c ->
        Telemetry.Counter.incr recorded_counter;
        cps := c :: !cps)
      bug
      (Bug.design_of bug ~buggy:true)
  in
  { rec_checkpoints = List.rev !cps; rec_report = report }

let replay ?kernel ?(vcd = true) ?window ~(from : Checkpoint.t) (bug : Bug.t) :
    Bug.report =
  Telemetry.span "replay.replay" @@ fun () ->
  let max_cycles =
    match window with
    | Some w -> from.Checkpoint.ck_cycle + w
    | None -> max bug.Bug.max_cycles from.Checkpoint.ck_cycle
  in
  Bug.run_design ?kernel ~vcd ~from_checkpoint:from ~max_cycles bug
    (Bug.design_of bug ~buggy:true)

type bisect_result = {
  bi_first_failing : int option;
  bi_checkpoints : int;
  bi_probes : int;
  bi_replayed_cycles : int;
  bi_detail : string;
}

let bisect ?kernel ?(every = 50) (bug : Bug.t) : bisect_result =
  Telemetry.span "replay.bisect" @@ fun () ->
  let fixed = Bug.run_design ?kernel bug (Bug.design_of bug ~buggy:false) in
  let fixed_end = fixed.Bug.cycles in
  let fixed_done = bug.Bug.done_when <> None && not fixed.Bug.stuck in
  let { rec_checkpoints; rec_report = buggy } = record ?kernel ~every bug in
  let cps = Array.of_list rec_checkpoints in
  let n = Array.length cps in
  (* Failure at cycle C: the buggy run's observable state within the
     first C cycles has diverged from the fixed reference. All three
     clauses are monotone in C over a recorded stream: rows only
     append (a prefix mismatch persists), the monitor flag latches, and
     the completion clause compares against a run that has already
     stopped. *)
  let pre limit rows = List.filter (fun (c, _) -> c < limit) rows in
  let failed ~cycle ~rows ~ext ~satisfied =
    ext
    || (let limit = min cycle fixed_end in
        pre limit rows <> pre limit fixed.Bug.rows)
    || (fixed_done && (not satisfied) && cycle >= fixed_end)
  in
  let probes = ref 0 in
  let failed_ck (ck : Checkpoint.t) =
    incr probes;
    Telemetry.Counter.incr probes_counter;
    Telemetry.Trace.instant ~cat:"replay" "bisect.probe";
    let h = Bug.harness_of_meta ck.Checkpoint.ck_meta in
    failed ~cycle:ck.Checkpoint.ck_cycle ~rows:h.Bug.h_rows ~ext:h.Bug.h_ext
      ~satisfied:h.Bug.h_satisfied
  in
  (* The horizon is the last virtual cycle worth probing: observable
     state freezes when the buggy run stops, but the completion clause
     can still flip as reference time passes fixed_end. *)
  let horizon = max buggy.Bug.cycles fixed_end in
  let end_satisfied = bug.Bug.done_when <> None && not buggy.Bug.stuck in
  incr probes;
  if
    not
      (failed ~cycle:horizon ~rows:buggy.Bug.rows ~ext:buggy.Bug.ext_error
         ~satisfied:end_satisfied)
  then
    {
      bi_first_failing = None;
      bi_checkpoints = n;
      bi_probes = !probes;
      bi_replayed_cycles = 0;
      bi_detail =
        Printf.sprintf
          "no divergence: the buggy run matches the fixed reference over %d \
           cycles"
          horizon;
    }
  else (
    (* coarse: binary-search the stream for the first failing snapshot *)
    let lo = ref 0 and hi = ref n in
    Telemetry.span "replay.bisect.search" (fun () ->
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if failed_ck cps.(mid) then hi := mid else lo := mid + 1
        done);
    let from = if !lo = 0 then None else Some cps.(!lo - 1) in
    let until = if !lo < n then cps.(!lo).Checkpoint.ck_cycle else horizon in
    (* fine: re-simulate from the last good snapshot, testing the
       predicate after every completed cycle *)
    Bug.with_simulator ?kernel bug (Bug.design_of bug ~buggy:true)
    @@ fun sim ->
    let p, start = Bug.resume sim from in
    let replayed = ref 0 in
    let first = ref None in
    let c = ref (start + 1) in
    Telemetry.span "replay.bisect.resim" @@ fun () ->
    while !first = None && !c <= until do
      (* advance the simulation through cycle [c-1] unless the run has
         already stopped (then only reference time advances) *)
      if
        (not (Simulator.finished sim))
        && (not p.Bug.p_satisfied)
        && !c - 1 < bug.Bug.max_cycles
      then (
        List.iter
          (fun (nm, v) -> Simulator.set_input sim nm v)
          (bug.Bug.stimulus (!c - 1));
        Simulator.step sim;
        incr replayed;
        Bug.observe bug sim p (!c - 1));
      if
        failed ~cycle:!c ~rows:(List.rev p.Bug.p_rows) ~ext:p.Bug.p_ext
          ~satisfied:p.Bug.p_satisfied
      then first := Some !c
      else incr c
    done;
    {
      bi_first_failing = !first;
      bi_checkpoints = n;
      bi_probes = !probes;
      bi_replayed_cycles = !replayed;
      bi_detail =
        (match !first with
        | Some c ->
            Printf.sprintf
              "first failing cycle %d: %d-checkpoint stream (every %d \
               cycles), %d metadata probes, %d cycles re-simulated from \
               cycle %d"
              c n every !probes !replayed start
        | None ->
            Printf.sprintf
              "divergence detected at the horizon but not localized \
               (searched cycles %d..%d)"
              (start + 1) until);
    })
