(* The prevention-and-inspection side of the toolbox on one bug:

   1. the structural linter flags the overflow-prone indexing of D1's
      codeword buffer before any simulation runs,
   2. waveform differencing against the fixed design pinpoints the
      first cycle at which the buggy run departs,
   3. a checkpoint taken just before the divergence replays the
      interesting window without re-running the prefix.

   Run with:  dune exec examples/prevention_toolkit.exe *)

module Ast = Fpga_hdl.Ast
module Bug = Fpga_testbed.Bug
module Lint = Fpga_analysis.Lint
module Waveform = Fpga_sim.Waveform
module Simulator = Fpga_sim.Simulator

let bug = Fpga_testbed.App_rsd.bug

let () =
  print_endline "== 1. Lint the design before running anything ==";
  let design = Bug.design_of bug ~buggy:true in
  List.iter
    (fun (mod_name, findings) ->
      List.iter
        (fun f ->
          Printf.printf "%s: %s\n" mod_name (Lint.finding_to_string f))
        findings)
    (Lint.check_design ~only:[ "overflow-prone"; "truncation" ] design);
  print_endline
    "-> the 5-bit padded index into the 12-entry codeword buffer is \
     exactly where D1's overflow lives\n";

  print_endline "== 2. Waveform diff against the fixed design ==";
  let signals = [ "out_valid"; "out_data"; "host_addr"; "state_out" ] in
  let cap ~buggy =
    Waveform.capture ~max_cycles:bug.Bug.max_cycles ~top:bug.Bug.top ~signals
      (Bug.design_of bug ~buggy) bug.Bug.stimulus
  in
  let buggy_wave = cap ~buggy:true and fixed_wave = cap ~buggy:false in
  (match Waveform.first_divergence buggy_wave fixed_wave with
  | Some d ->
      Printf.printf "first divergence: %s\n" (Waveform.divergence_to_string d);
      print_endline "buggy run around the divergence:";
      print_string
        (Waveform.render ~from_cycle:(max 0 (d.Waveform.cycle - 2)) ~cycles:12
           buggy_wave)
  | None -> print_endline "no divergence (unexpected)");
  print_newline ();

  print_endline "== 3. Checkpoint and replay the interesting window ==";
  let sim = Fpga_sim.Testbench.of_design ~top:bug.Bug.top design in
  let run ?until max_cycles =
    ignore (Fpga_sim.Testbench.run ~max_cycles ?until sim bug.Bug.stimulus)
  in
  run 7;
  let cp = Simulator.save_checkpoint ~tag:bug.Bug.id sim in
  Printf.printf "checkpoint taken at cycle %d\n" (Simulator.cycle sim);
  run 21;
  Printf.printf "ran ahead to cycle %d (host_addr = %d)\n" (Simulator.cycle sim)
    (Simulator.read_int sim "host_addr");
  Simulator.restore_checkpoint sim cp;
  Printf.printf "restored to cycle %d; replaying with extra visibility...\n"
    (Simulator.cycle sim);
  (* the run resumes at the checkpoint's cycle; [until] only observes *)
  run 21 ~until:(fun sim ->
      let addr = Simulator.read_int sim "host_addr" in
      if addr >= 12 then
        Printf.printf "  cycle %d: host_addr = %d leaves the 12-word region!\n"
          (Simulator.cycle sim) addr;
      false)
