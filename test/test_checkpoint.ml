(* Checkpoint/replay engine: wire-format round-trips, rejection of
   corrupt / version-skewed / wrong-design checkpoints, the central
   replay-determinism property (save -> serialize -> load -> restore ->
   continue is observationally identical to the straight run, waveform
   included), and checkpoint-stream bisection against a linear-scan
   reference. *)

module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Replay = Fpga_testbed.Replay
module Checkpoint = Fpga_sim.Checkpoint
module Simulator = Fpga_sim.Simulator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bug id = Option.get (Registry.find id)

(* The bugs the determinism property sweeps: data-loss (D2, D4),
   incorrect-output (D8), and a FIFO-backed control bug (C4) — together
   they exercise registers, memories, and both builtin primitives. *)
let property_bugs = [ "D2"; "D4"; "D8"; "C4" ]

let mid_checkpoint ?(every = 50) b =
  let rc = Replay.record ~every b in
  match rc.Replay.rec_checkpoints with
  | [] -> Alcotest.failf "%s produced no checkpoints" b.Bug.id
  | cps -> List.nth cps ((List.length cps - 1) / 2)

(* --- wire-format round-trips ----------------------------------------- *)

let test_string_roundtrip () =
  let ck = mid_checkpoint (bug "D2") in
  let ck' = Checkpoint.of_string (Checkpoint.to_string ck) in
  check_string "design hash" ck.Checkpoint.ck_design ck'.Checkpoint.ck_design;
  check_string "tag" ck.Checkpoint.ck_tag ck'.Checkpoint.ck_tag;
  check_int "cycle" ck.Checkpoint.ck_cycle ck'.Checkpoint.ck_cycle;
  check_bool "finished" ck.Checkpoint.ck_finished ck'.Checkpoint.ck_finished;
  check_bool "values" true (ck.Checkpoint.ck_values = ck'.Checkpoint.ck_values);
  check_bool "prims" true (ck.Checkpoint.ck_prims = ck'.Checkpoint.ck_prims);
  check_bool "log" true (ck.Checkpoint.ck_log = ck'.Checkpoint.ck_log);
  check_bool "meta" true (ck.Checkpoint.ck_meta = ck'.Checkpoint.ck_meta);
  check_string "content hash stable" (Checkpoint.content_hash ck)
    (Checkpoint.content_hash ck')

let test_file_roundtrip () =
  let ck = mid_checkpoint (bug "C4" ) ~every:10 in
  let path = Filename.temp_file "fpga-ckpt" ".fdc" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Checkpoint.save path ck;
      let ck' = Checkpoint.load path in
      check_bool "file round-trip preserves everything" true
        (Checkpoint.to_string ck = Checkpoint.to_string ck'))

let test_meta_escaping () =
  (* metadata values with the separators the format itself uses *)
  let ck = mid_checkpoint (bug "D2") in
  let ck =
    { ck with Checkpoint.ck_meta =
        [ ("k1", "line\nbreak"); ("k2", "tab\tand back\\slash"); ("k3", "") ] }
  in
  let ck' = Checkpoint.of_string (Checkpoint.to_string ck) in
  check_bool "hostile metadata survives" true
    (ck.Checkpoint.ck_meta = ck'.Checkpoint.ck_meta)

(* --- rejection of bad inputs ----------------------------------------- *)

let rejects what s =
  match Checkpoint.of_string s with
  | exception Checkpoint.Checkpoint_error _ -> ()
  | _ -> Alcotest.failf "%s was accepted" what

let test_rejects_corruption () =
  let text = Checkpoint.to_string (mid_checkpoint (bug "D2")) in
  rejects "garbage" "not a checkpoint at all\n";
  rejects "empty input" "";
  (* truncation: drop the trailer line *)
  let no_trailer =
    String.sub text 0 (String.rindex (String.trim text) '\n')
  in
  rejects "truncated checkpoint" no_trailer;
  (* single flipped byte in the middle of the body *)
  let flipped = Bytes.of_string text in
  let i = String.length text / 2 in
  Bytes.set flipped i (if Bytes.get flipped i = '0' then '1' else '0');
  rejects "bit-rotted checkpoint" (Bytes.to_string flipped)

let test_rejects_version_skew () =
  let text = Checkpoint.to_string (mid_checkpoint (bug "D2")) in
  (* swap the header line for a future version and re-hash the body, so
     the probe fails on the version check rather than on the hash *)
  let nl = String.index text '\n' in
  let rest = String.sub text (nl + 1) (String.length text - nl - 1) in
  let middle =
    String.sub rest 0 (String.rindex (String.trim rest) '\n' + 1)
  in
  let body =
    Printf.sprintf "fpga-debug-checkpoint/%d\n%s" (Checkpoint.version + 1)
      middle
  in
  let rehashed =
    body ^ Printf.sprintf "sha %s\n" (Digest.to_hex (Digest.string body))
  in
  match Checkpoint.of_string rehashed with
  | exception Checkpoint.Checkpoint_error msg ->
      check_bool "error names the version" true
        (let rec contains i =
           i + 7 <= String.length msg
           && (String.sub msg i 7 = "version" || contains (i + 1))
         in
         contains 0)
  | _ -> Alcotest.fail "future version accepted"

let test_rejects_wrong_design () =
  let ck = mid_checkpoint (bug "D2") in
  let other = bug "D4" in
  let flat =
    Fpga_sim.Elaborate.elaborate
      (Bug.design_of other ~buggy:true)
      ~top:other.Bug.top
  in
  let sim = Simulator.create flat in
  match Simulator.restore_checkpoint sim ck with
  | exception Checkpoint.Checkpoint_error _ -> ()
  | () -> Alcotest.fail "D2 checkpoint restored into the D4 design"

(* A checkpoint whose harness rows do not decode is a checkpoint error,
   not a stray [Failure] out of [int_of_string]. *)
let test_rejects_malformed_harness () =
  let b = bug "D2" in
  let ck = mid_checkpoint b in
  let ck =
    { ck with
      Checkpoint.ck_meta =
        ("harness.rows", "x:y=1")
        :: List.remove_assoc "harness.rows" ck.Checkpoint.ck_meta }
  in
  match
    Bug.run_design ~from_checkpoint:ck b (Bug.design_of b ~buggy:true)
  with
  | exception Checkpoint.Checkpoint_error _ -> ()
  | _ -> Alcotest.fail "malformed harness rows accepted"

let test_load_missing_file () =
  match Checkpoint.load "/nonexistent/dir/nope.fdc" with
  | exception Checkpoint.Checkpoint_error _ -> ()
  | _ -> Alcotest.fail "loading a missing file did not raise cleanly"

(* --- replay determinism ---------------------------------------------- *)

(* The heart of the subsystem: restoring a serialized snapshot and
   continuing is observationally identical to never having stopped —
   output rows, $display log, stop flags, end cycle, and the VCD of the
   replayed window, byte for byte. *)
let replay_matches_straight ~kernel ~every (b : Bug.t) =
  let rc = Replay.record ~kernel ~every b in
  match rc.Replay.rec_checkpoints with
  | [] -> true (* run shorter than the interval: nothing to check *)
  | cps ->
      List.for_all
        (fun ck ->
          let ck = Checkpoint.of_string (Checkpoint.to_string ck) in
          let straight =
            Bug.run_design ~kernel ~vcd:true ~vcd_from:ck.Checkpoint.ck_cycle b
              (Bug.design_of b ~buggy:true)
          in
          let replayed = Replay.replay ~kernel ~from:ck b in
          straight.Bug.vcd = replayed.Bug.vcd
          && straight.Bug.rows = replayed.Bug.rows
          && straight.Bug.log = replayed.Bug.log
          && straight.Bug.stuck = replayed.Bug.stuck
          && straight.Bug.finished = replayed.Bug.finished
          && straight.Bug.cycles = replayed.Bug.cycles)
        cps

let prop_replay_deterministic =
  QCheck2.Test.make ~count:12
    ~name:"replay from any serialized checkpoint == straight run"
    QCheck2.Gen.(
      triple
        (oneofl property_bugs)
        (oneofl [ Simulator.Brute_force; Simulator.Lowered_dirty ])
        (int_range 5 60))
    (fun (id, kernel, every) ->
      replay_matches_straight ~kernel ~every (bug id))

(* Every checkpoint of the D2 stream replays identically under every
   kernel - the fixed set the CI gate pins down. *)
let test_replay_d2_both_kernels () =
  List.iter
    (fun kernel ->
      check_bool "D2 deterministic" true
        (replay_matches_straight ~kernel ~every:50 (bug "D2")))
    [ Simulator.Brute_force; Simulator.Lowered_dirty ]

(* Checkpoints are kernel-agnostic: a snapshot taken under one settle
   kernel restores into a simulator built with another, and the
   continued run is byte-identical to that kernel's straight run. This
   is what lets a lowered-kernel campaign hand a checkpoint to a
   brute-force reference session (and back). *)
let test_checkpoint_crosses_kernels () =
  let cross ~record_kernel ~replay_kernel (b : Bug.t) =
    let rc = Replay.record ~kernel:record_kernel ~every:10 b in
    match rc.Replay.rec_checkpoints with
    | [] -> Alcotest.failf "%s produced no checkpoints" b.Bug.id
    | cps ->
        let ck = List.nth cps ((List.length cps - 1) / 2) in
        let ck = Checkpoint.of_string (Checkpoint.to_string ck) in
        let straight =
          Bug.run_design ~kernel:replay_kernel ~vcd:true
            ~vcd_from:ck.Checkpoint.ck_cycle b
            (Bug.design_of b ~buggy:true)
        in
        let replayed = Replay.replay ~kernel:replay_kernel ~from:ck b in
        check_bool
          (Printf.sprintf "%s: %s checkpoint restored under %s" b.Bug.id
             (Simulator.kernel_name record_kernel)
             (Simulator.kernel_name replay_kernel))
          true
          (straight.Bug.vcd = replayed.Bug.vcd
          && straight.Bug.rows = replayed.Bug.rows
          && straight.Bug.log = replayed.Bug.log
          && straight.Bug.stuck = replayed.Bug.stuck
          && straight.Bug.finished = replayed.Bug.finished
          && straight.Bug.cycles = replayed.Bug.cycles)
  in
  let kernels = [ Simulator.Brute_force; Simulator.Lowered_dirty ] in
  List.iter
    (fun id ->
      let b = bug id in
      List.iter
        (fun record_kernel ->
          List.iter
            (fun replay_kernel ->
              if record_kernel <> replay_kernel then
                cross ~record_kernel ~replay_kernel b)
            kernels)
        kernels)
    [ "D2"; "C4" ]

(* --- bisection ------------------------------------------------------- *)

(* Linear-scan reference for the first failing cycle, computed from the
   two full straight-run reports alone. *)
let first_failing_linear (b : Bug.t) =
  let fixed = Bug.run_design b (Bug.design_of b ~buggy:false) in
  let buggy = Bug.run_design b (Bug.design_of b ~buggy:true) in
  let fixed_done = b.Bug.done_when <> None && not fixed.Bug.stuck in
  let buggy_done = b.Bug.done_when <> None && not buggy.Bug.stuck in
  let pre limit rows = List.filter (fun (c, _) -> c < limit) rows in
  let horizon = max buggy.Bug.cycles fixed.Bug.cycles in
  let rec scan c =
    if c > horizon then None
    else
      let limit = min c fixed.Bug.cycles in
      if
        pre limit buggy.Bug.rows <> pre limit fixed.Bug.rows
        || (fixed_done && (not buggy_done) && c >= fixed.Bug.cycles)
      then Some c
      else scan (c + 1)
  in
  scan 1

let test_bisect_matches_linear_reference () =
  List.iter
    (fun id ->
      let b = bug id in
      let expected = first_failing_linear b in
      let r = Replay.bisect ~every:16 b in
      check_bool
        (Printf.sprintf "%s bisect = linear scan" id)
        true
        (r.Replay.bi_first_failing = expected))
    property_bugs

let test_bisect_interval_invariance () =
  (* the answer is a property of the bug, not of the checkpoint grid *)
  let b = bug "D2" in
  let r50 = Replay.bisect ~every:50 b in
  let r7 = Replay.bisect ~every:7 b in
  check_bool "has an answer" true (r50.Replay.bi_first_failing <> None);
  check_bool "interval-invariant" true
    (r50.Replay.bi_first_failing = r7.Replay.bi_first_failing);
  (* a denser grid re-simulates a shorter tail *)
  check_bool "fine scan bounded by interval" true
    (r7.Replay.bi_replayed_cycles <= 7 + 1)

let suite =
  [
    Alcotest.test_case "serialize round-trip" `Quick test_string_roundtrip;
    Alcotest.test_case "file save/load round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "metadata escaping" `Quick test_meta_escaping;
    Alcotest.test_case "rejects corruption and truncation" `Quick
      test_rejects_corruption;
    Alcotest.test_case "rejects version skew" `Quick test_rejects_version_skew;
    Alcotest.test_case "rejects wrong-design restore" `Quick
      test_rejects_wrong_design;
    Alcotest.test_case "load missing file fails cleanly" `Quick
      test_load_missing_file;
    Alcotest.test_case "rejects malformed harness metadata" `Quick
      test_rejects_malformed_harness;
    QCheck_alcotest.to_alcotest prop_replay_deterministic;
    Alcotest.test_case "D2 replay deterministic on both kernels" `Quick
      test_replay_d2_both_kernels;
    Alcotest.test_case "checkpoints cross settle kernels" `Quick
      test_checkpoint_crosses_kernels;
    Alcotest.test_case "bisect matches linear reference" `Quick
      test_bisect_matches_linear_reference;
    Alcotest.test_case "bisect is interval-invariant" `Quick
      test_bisect_interval_invariance;
  ]
