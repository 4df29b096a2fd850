(* fpga-debug: command-line front end for the testbed and the tools.

   Mirrors the paper artifact's push-button workflow:

     fpga-debug list                      enumerate the testbed
     fpga-debug repro D2                  reproduce a bug's symptoms
     fpga-debug fsm D2                    FSM Monitor trace
     fpga-debug stats D2                  Statistics Monitor counters
     fpga-debug deps D5                   Dependency Monitor chain
     fpga-debug losscheck D2              LossCheck localization
     fpga-debug instrument D2 -o out.v    emit the instrumented Verilog
     fpga-debug vcd D2 -o wave.vcd        dump a waveform of the buggy run
     fpga-debug checkpoint D2 --every 50  capture a checkpoint stream
     fpga-debug replay D2 --from CKPT     time-travel replay with full VCD
     fpga-debug replay D2 --bisect        first-failing-cycle search
     fpga-debug profile D2 --cycles 200   kernel-profiling telemetry run
     fpga-debug report table1|table2|fig2|fig3|effectiveness|freq *)

open Cmdliner
module Ast = Fpga_hdl.Ast
module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Taxonomy = Fpga_study.Taxonomy

let find_bug id =
  let id = String.uppercase_ascii id in
  match
    List.find_opt
      (fun (b : Bug.t) -> b.Bug.id = id)
      Registry.all_with_extended
  with
  | Some bug -> bug
  | None ->
      Printf.eprintf "unknown bug %s; try `fpga-debug list`\n" id;
      exit 1

let bug_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BUG" ~doc:"Testbed bug id (e.g. D2)")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file")

let buffer_arg =
  Arg.(value & opt int 8192 & info [ "buffer" ] ~docv:"DEPTH" ~doc:"Recording buffer depth (power of two)")

(* Shared structured-tracing surface: --trace FILE turns the
   Telemetry.Trace layer on around the command's computation and
   serializes the span tree to Chrome-trace JSON (open in Perfetto).
   [jobs_of] extracts the campaign pool's per-job segments from the
   traced value; single-domain commands leave it at []. *)
module Trace = Fpga_telemetry.Telemetry.Trace
module Trace_export = Fpga_telemetry.Trace_export

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome-trace (Perfetto) JSON timeline of the \
                 run to FILE")

let trace_clock_arg =
  Arg.(value
       & opt (enum [ ("wall", Trace.Wall); ("virtual", Trace.Virtual) ])
           Trace.Wall
       & info [ "trace-clock" ] ~docv:"CLOCK"
           ~doc:"Trace timestamp source: wall (physical timeline, idle \
                 gaps visible) or virtual (deterministic; the file is \
                 byte-identical at any --jobs width)")

(* --- output files ----------------------------------------------------- *)

(* A file or directory the command cannot read or write exits with this
   status, listed in the command's --help, and a PATH: message. *)
let exit_input = 7

let io_exit ~doc = Cmd.Exit.info exit_input ~doc :: Cmd.Exit.defaults

(* Report an I/O error about [path] and exit; the message names the
   path once whether or not the runtime already put it first. *)
let io_fail path msg =
  flush stdout;
  if String.starts_with ~prefix:path msg then prerr_endline msg
  else Printf.eprintf "%s: %s\n" path msg;
  exit exit_input

let write_file path text =
  try Out_channel.with_open_text path (fun oc -> output_string oc text)
  with Sys_error msg -> io_fail path msg

let traced ~trace ~clock ?(jobs_of = fun _ -> []) run =
  match trace with
  | None -> run ()
  | Some path ->
      (match clock with
      | Trace.Wall -> Trace.set_clock Unix.gettimeofday
      | Trace.Virtual -> ());
      Trace.enable ~clock ();
      let v = Fun.protect ~finally:Trace.disable run in
      let main = Trace.capture_all ~consume:true () in
      write_file path (Trace_export.to_json ~clock ~main ~jobs:(jobs_of v) ());
      Printf.printf "wrote %s\n" path;
      v

(* Settle-kernel selector of `sim` and `profile`: [None] keeps
   [Simulator.default_kernel]. *)
let kernel_arg =
  Arg.(value
       & opt (enum [ ("auto", None);
                     ("brute", Some Fpga_sim.Simulator.Brute_force);
                     ("lowered-dirty", Some Fpga_sim.Simulator.Lowered_dirty) ])
           None
       & info [ "kernel" ] ~docv:"KERNEL"
           ~doc:"Settle kernel: auto|brute|lowered-dirty (auto is \
                 lowered-dirty, the default kernel)")

(* Pool width of `campaign` and `fuzz`. *)
let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains, kept parked between batches while the \
                 calling domain waits (default: the machine's \
                 recommended count)")

(* --- user designs ------------------------------------------------------ *)

(* The commands that take a user's Verilog file (`sim`, `lint`,
   `losscheck`) load it through [read_design] and [design_errors]. Each
   class of design error gets its own exit status, listed in their
   --help, so a script can tell a typo from an unsupported design
   without parsing the message. [exit_input] is shared with the
   commands that write files. *)
let exit_syntax = 3
let exit_elaboration = 4
let exit_comb_cycle = 5
let exit_eval = 6

(* A file, stimulus line or signal name the design cannot take; the
   message carries the location. *)
exception Bad_input of string

let bad_input fmt = Printf.ksprintf (fun s -> raise (Bad_input s)) fmt

(* A file's contents; a read error names the file (reading a directory
   reports only "Is a directory"). *)
let read_input path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error msg ->
    if String.starts_with ~prefix:path msg then bad_input "%s" msg
    else bad_input "%s: %s" path msg

let sim_exits =
  Cmd.Exit.info exit_syntax
    ~doc:"on a lexical or syntax error in $(i,FILE) (reported as \
          FILE:LINE: message)."
  :: Cmd.Exit.info exit_elaboration
       ~doc:"on an elaboration error, e.g. an unknown module or a \
             missing top (reported as FILE: message)."
  :: Cmd.Exit.info exit_comb_cycle
       ~doc:"when continuous assignments or combinational blocks form \
             a dependency cycle."
  :: Cmd.Exit.info exit_eval
       ~doc:"on an evaluation error, e.g. a reference to an \
             undeclared signal."
  :: Cmd.Exit.info exit_input
       ~doc:"when a file cannot be read or written, a stimulus line \
             is malformed (reported as STIM:LINE: message), or a \
             stimulus, $(b,--watch), $(b,--source), $(b,--valid) or \
             $(b,--sink) name is not a signal of the design."
  :: Cmd.Exit.defaults

let read_design path = Fpga_hdl.Parser.parse_design (read_input path)

(* Every stimulus and watched name must be a vector signal: the
   simulator's accessors reject anything else mid-run. *)
let check_signal (flat : Fpga_sim.Elaborate.flat) ~source name =
  match Hashtbl.find_opt flat.Fpga_sim.Elaborate.f_signals name with
  | Some { Fpga_sim.Elaborate.fs_depth = None; _ } -> ()
  | Some _ -> bad_input "%s: %s is a memory, not a signal" source name
  | None -> bad_input "%s: no signal %s in the design" source name

(* A stimulus file: lines '@CYCLE sig=value ...', '#' comments *)
let parse_stim flat path =
  read_input path
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (lineno, line) ->
         let line = String.trim line in
         let source = Printf.sprintf "%s:%d" path lineno in
         let number what s =
           match int_of_string_opt s with
           | Some v -> v
           | None -> bad_input "%s: bad %s %S" source what s
         in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line with
           | at :: bindings when String.length at > 1 && at.[0] = '@' ->
               let cycle =
                 number "cycle" (String.sub at 1 (String.length at - 1))
               in
               let parsed =
                 List.filter_map
                   (fun b ->
                     match String.split_on_char '=' b with
                     | [ k; v ] when k <> "" ->
                         check_signal flat ~source k;
                         Some (k, number "value" v)
                     | _ -> None)
                   bindings
               in
               Some (cycle, parsed)
           | _ -> None)

(* Run [f] over the design in [file]: each design error exits with its
   status and a message naming the file. *)
let design_errors file f =
  let fail code fmt =
    Printf.ksprintf
      (fun msg ->
        flush stdout;
        prerr_endline msg;
        exit code)
      fmt
  in
  try f () with
  | Fpga_hdl.Lexer.Lex_error (msg, line) | Fpga_hdl.Parser.Parse_error (msg, line)
    ->
      fail exit_syntax "%s:%d: %s" file line msg
  | Fpga_sim.Elaborate.Elaboration_error msg ->
      fail exit_elaboration "%s: %s" file msg
  | Fpga_sim.Simulator.Combinational_cycle sigs ->
      fail exit_comb_cycle "%s: combinational cycle through %s" file
        (String.concat ", " sigs)
  | Fpga_sim.Compiled.Eval_error msg -> fail exit_eval "%s: %s" file msg
  | Bad_input msg | Sys_error msg -> fail exit_input "%s" msg

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let doc = "List the reproducible bugs of the testbed." in
  let run () =
    List.iter
      (fun (b : Bug.t) ->
        Printf.printf "%-4s %-28s %-22s %s\n" b.Bug.id
          (Taxonomy.subclass_name b.Bug.subclass)
          b.Bug.application b.Bug.description)
      Registry.all_with_extended
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- repro ---------------------------------------------------------- *)

let repro_cmd =
  let doc = "Reproduce a bug push-button and report its symptoms." in
  let run id =
    let bug = find_bug id in
    Printf.printf "%s: %s (%s)\n" bug.Bug.id bug.Bug.description
      bug.Bug.application;
    let buggy = Bug.run bug ~buggy:true in
    let fixed = Bug.run bug ~buggy:false in
    Printf.printf "expected symptoms: %s\n"
      (String.concat ", " (List.map Taxonomy.symptom_name bug.Bug.symptoms));
    Printf.printf "observed symptoms: %s\n"
      (String.concat ", "
         (List.map Taxonomy.symptom_name (Bug.symptoms_of ~buggy ~fixed)));
    Printf.printf "reproduces: %b\n" (Bug.reproduces_of ~bug ~buggy ~fixed);
    if buggy.Bug.log <> [] then (
      print_endline "design log:";
      List.iter
        (fun (c, t) -> Printf.printf "  [cycle %d] %s\n" c t)
        buggy.Bug.log)
  in
  Cmd.v (Cmd.info "repro" ~doc) Term.(const run $ bug_arg)

(* --- fsm ------------------------------------------------------------ *)

let fsm_cmd =
  let doc =
    "Run FSM Monitor on a bug's design and print the trace. --extra \
     forces registers the heuristics missed in; --exclude filters false \
     or irrelevant detections out (the section 4.2 patch facility)."
  in
  let extra_arg =
    Arg.(value & opt_all string [] & info [ "extra" ] ~docv:"SIG" ~doc:"Force a register in")
  in
  let exclude_arg =
    Arg.(value & opt_all string [] & info [ "exclude" ] ~docv:"SIG" ~doc:"Filter a detection out")
  in
  let run id extra exclude =
    let bug = find_bug id in
    let design = Bug.design_of bug ~buggy:true in
    let m = Option.get (Ast.find_module design bug.Bug.top) in
    let plan = Fpga_debug.Fsm_monitor.plan ~extra ~exclude m in
    if plan.Fpga_debug.Fsm_monitor.fsms = [] then
      print_endline "no FSMs detected in this design"
    else (
      let instrumented = Fpga_debug.Fsm_monitor.instrument plan m in
      let design' =
        { Ast.modules =
            List.map (fun x -> if x == m then instrumented else x) design.Ast.modules }
      in
      let report = Bug.run_design bug design' in
      List.iter
        (fun tr ->
          print_endline (Fpga_debug.Fsm_monitor.transition_to_string tr))
        (Fpga_debug.Fsm_monitor.transitions plan report.Bug.log);
      List.iter
        (fun (v, s) -> Printf.printf "final state of %s: %s\n" v s)
        (Fpga_debug.Fsm_monitor.final_states plan report.Bug.log))
  in
  Cmd.v (Cmd.info "fsm" ~doc) Term.(const run $ bug_arg $ extra_arg $ exclude_arg)

(* --- stats ---------------------------------------------------------- *)

let stats_cmd =
  let doc = "Run Statistics Monitor with the bug's event set." in
  let run id =
    let bug = find_bug id in
    let design = Bug.design_of bug ~buggy:true in
    let m = Option.get (Ast.find_module design bug.Bug.top) in
    let events =
      List.map
        (fun (name, signal) ->
          { Fpga_debug.Stat_monitor.event_name = name; trigger = Ast.Ident signal })
        bug.Bug.stat_events
    in
    let plan = Fpga_debug.Stat_monitor.plan m events in
    let instrumented = Fpga_debug.Stat_monitor.instrument plan m in
    let design' =
      { Ast.modules =
          List.map (fun x -> if x == m then instrumented else x) design.Ast.modules }
    in
    let sim = Fpga_sim.Testbench.of_design ~top:bug.Bug.top design' in
    let _ = Fpga_sim.Testbench.run ~max_cycles:bug.Bug.max_cycles sim bug.Bug.stimulus in
    List.iter
      (fun (name, n) -> Printf.printf "%-20s %d\n" name n)
      (Fpga_debug.Stat_monitor.counts plan sim)
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ bug_arg)

(* --- deps ----------------------------------------------------------- *)

let deps_cmd =
  let doc = "Print the dependency chain of the bug's target signal." in
  let target_arg =
    Arg.(value & opt (some string) None & info [ "target" ] ~docv:"SIGNAL" ~doc:"Target signal (defaults to the bug's)")
  in
  let cycles_arg =
    Arg.(value & opt int 8 & info [ "cycles" ] ~docv:"K" ~doc:"Backward cycle budget")
  in
  let data_only_arg =
    Arg.(value & flag & info [ "data-only" ] ~doc:"Ignore control dependencies")
  in
  let slices_arg =
    Arg.(value & flag
         & info [ "slices" ] ~doc:"Split partially-assigned variables (section 4.3)")
  in
  let run id target cycles data_only slice_precise =
    let bug = find_bug id in
    let design = Bug.design_of bug ~buggy:true in
    let m = Option.get (Ast.find_module design bug.Bug.top) in
    let target =
      match (target, bug.Bug.dep_target) with
      | Some t, _ -> t
      | None, Some t -> t
      | None, None ->
          prerr_endline "no dependency target; pass --target";
          exit 1
    in
    let plan =
      Fpga_debug.Dep_monitor.analyze ~design ~data_only ~slice_precise ~target
        ~cycles m
    in
    Printf.printf "dependency chain of %s within %d cycles:\n" target cycles;
    List.iter (fun s -> Printf.printf "  %s\n" s) plan.Fpga_debug.Dep_monitor.chain;
    (* run with monitoring and show the update trace *)
    let instrumented = Fpga_debug.Dep_monitor.instrument plan m in
    let design' =
      { Ast.modules =
          List.map (fun x -> if x == m then instrumented else x) design.Ast.modules }
    in
    let report = Bug.run_design bug design' in
    print_endline "update trace:";
    List.iter
      (fun u -> Printf.printf "  %s\n" (Fpga_debug.Dep_monitor.update_to_string u))
      (Fpga_debug.Dep_monitor.updates plan report.Bug.log)
  in
  Cmd.v (Cmd.info "deps" ~doc)
    Term.(const run $ bug_arg $ target_arg $ cycles_arg $ data_only_arg $ slices_arg)

(* --- losscheck ------------------------------------------------------ *)

let losscheck_cmd =
  let doc =
    "Localize data loss with LossCheck. The target is a testbed bug id, \
     or a Verilog file together with --top, --source, --valid, --sink \
     and a --stim file (the '@CYCLE sig=value' format of the sim \
     command)."
  in
  let top_arg =
    Arg.(value & opt string "top" & info [ "top" ] ~docv:"MODULE" ~doc:"Top module (file mode)")
  in
  let source_arg =
    Arg.(value & opt (some string) None & info [ "source" ] ~docv:"SIG" ~doc:"Source register/input")
  in
  let valid_arg =
    Arg.(value & opt (some string) None & info [ "valid" ] ~docv:"SIG" ~doc:"Source valid signal")
  in
  let sink_arg =
    Arg.(value & opt (some string) None & info [ "sink" ] ~docv:"SIG" ~doc:"Sink register")
  in
  let stim_arg =
    Arg.(value & opt (some file) None & info [ "stim" ] ~docv:"FILE" ~doc:"Stimulus file (file mode)")
  in
  let cycles_arg =
    Arg.(value & opt int 200 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to run (file mode)")
  in
  let print_result (r : Fpga_debug.Losscheck.result) =
    Printf.printf "generated checking logic: %d lines\n"
      (Fpga_debug.Losscheck.generated_loc r);
    List.iter
      (fun (c, reg) -> Printf.printf "raw alarm at cycle %d: %s\n" c reg)
      r.Fpga_debug.Losscheck.raw_alarms;
    List.iter
      (fun reg -> Printf.printf "suppressed (intentional drop): %s\n" reg)
      r.Fpga_debug.Losscheck.suppressed;
    match r.Fpga_debug.Losscheck.reported with
    | [] -> print_endline "no data loss reported"
    | regs ->
        List.iter
          (fun reg -> Printf.printf "potential data loss at: %s\n" reg)
          regs
  in
  let run target top source valid sink stim cycles =
    if Sys.file_exists target then (
      match (source, valid, sink) with
      | Some source, Some valid, Some sink ->
          design_errors target @@ fun () ->
          let design = read_design target in
          let flat = Fpga_sim.Elaborate.elaborate design ~top in
          check_signal flat ~source:"--source" source;
          check_signal flat ~source:"--valid" valid;
          check_signal flat ~source:"--sink" sink;
          let table = match stim with Some p -> parse_stim flat p | None -> [] in
          let stimulus cycle =
            match List.assoc_opt cycle table with
            | Some bindings ->
                List.map
                  (fun (k, v) ->
                    let s = Hashtbl.find flat.Fpga_sim.Elaborate.f_signals k in
                    (k, Fpga_bits.Bits.of_int ~width:s.Fpga_sim.Elaborate.fs_width v))
                  bindings
            | None -> []
          in
          let spec =
            { Fpga_debug.Losscheck.source; valid = Ast.Ident valid; sink }
          in
          print_result
            (Fpga_debug.Losscheck.localize ~max_cycles:cycles ~top ~spec
               ~stimulus design)
      | _ ->
          prerr_endline "file mode needs --source, --valid, and --sink";
          exit 1)
    else
      let bug = find_bug target in
      match bug.Bug.loss_spec with
      | None ->
          Printf.eprintf "%s is not a data-loss bug\n" bug.Bug.id;
          exit 1
      | Some spec ->
          let design = Bug.design_of bug ~buggy:true in
          print_result
            (Fpga_debug.Losscheck.localize ~ground_truth:bug.Bug.ground_truth
               ~max_cycles:bug.Bug.max_cycles ~top:bug.Bug.top ~spec
               ~stimulus:bug.Bug.stimulus design)
  in
  Cmd.v (Cmd.info "losscheck" ~doc ~exits:sim_exits)
    Term.(
      const run $ bug_arg $ top_arg $ source_arg $ valid_arg $ sink_arg
      $ stim_arg $ cycles_arg)

(* --- instrument ----------------------------------------------------- *)

let instrument_cmd =
  let doc =
    "Apply the bug's debug recipe (monitors + SignalCat) and emit the \
     instrumented Verilog."
  in
  let run id out buffer =
    let bug = find_bug id in
    let r = Fpga_testbed.Recipe.apply ~buffer_depth:buffer bug in
    let text = Fpga_hdl.Pp_verilog.module_to_string r.Fpga_testbed.Recipe.on_fpga in
    (match out with
    | Some path ->
        write_file path text;
        let monitor, recording = Fpga_testbed.Recipe.loc r in
        Printf.printf "wrote %s (%d lines; %d monitor + %d recording lines added)\n"
          path
          (List.length (String.split_on_char '\n' text))
          monitor recording
    | None -> print_string text)
  in
  Cmd.v
    (Cmd.info "instrument" ~doc
       ~exits:(io_exit ~doc:"when the output file cannot be written."))
    Term.(const run $ bug_arg $ out_arg $ buffer_arg)

(* --- vcd ------------------------------------------------------------ *)

let vcd_cmd =
  let doc =
    "Run the buggy design and dump a VCD waveform. --from starts \
     waveform sampling at a cycle index, producing the windowed \
     straight-run reference that `fpga-debug replay` output is diffed \
     against."
  in
  let cycle =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "%S is not a cycle (an integer >= 0)" s))
    in
    Arg.conv ~docv:"CYCLE" (parse, Format.pp_print_int)
  in
  let from_arg =
    Arg.(value & opt cycle 0
         & info [ "from" ] ~docv:"CYCLE"
             ~doc:"Start sampling at this cycle. Past the end of the run, \
                   the file holds only the header (with a note on \
                   standard error).")
  in
  let run id out from =
    let bug = find_bug id in
    let report =
      Bug.run_design ~vcd:true ~vcd_from:from bug (Bug.design_of bug ~buggy:true)
    in
    let path = Option.value out ~default:(bug.Bug.id ^ ".vcd") in
    write_file path (Option.value report.Bug.vcd ~default:"");
    if from >= report.Bug.cycles then (
      Printf.eprintf
        "vcd: --from %d is past the last simulated cycle, %d; the \
         waveform has a header and no samples\n"
        from (report.Bug.cycles - 1);
      Printf.printf "wrote %s (header only)\n" path)
    else Printf.printf "wrote %s (cycles %d..%d)\n" path from report.Bug.cycles
  in
  Cmd.v
    (Cmd.info "vcd" ~doc
       ~exits:(io_exit ~doc:"when the output file cannot be written."))
    Term.(const run $ bug_arg $ out_arg $ from_arg)

(* --- checkpoint ------------------------------------------------------ *)

let checkpoint_cmd =
  let doc =
    "Run the buggy design while capturing a periodic checkpoint stream \
     to disk. Each snapshot is a versioned, content-hashed file that \
     `fpga-debug replay` can restore bit-identically."
  in
  let every_arg =
    Arg.(value & opt int 50
         & info [ "every" ] ~docv:"K" ~doc:"Checkpoint every K cycles")
  in
  let dir_arg =
    Arg.(value & opt string "checkpoints"
         & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory")
  in
  let run id every dir =
    let bug = find_bug id in
    if every <= 0 then (
      prerr_endline "--every must be positive";
      exit 1);
    let module Replay = Fpga_testbed.Replay in
    let module Checkpoint = Fpga_sim.Checkpoint in
    let rc = Replay.record ~every bug in
    (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
     with Sys_error msg -> io_fail dir msg);
    if not (Sys.is_directory dir) then io_fail dir "not a directory";
    List.iter
      (fun (ck : Checkpoint.t) ->
        let path =
          Filename.concat dir
            (Printf.sprintf "%s-c%d.fdc" bug.Bug.id ck.Checkpoint.ck_cycle)
        in
        (try Checkpoint.save path ck with Sys_error msg -> io_fail path msg);
        Printf.printf "wrote %s (cycle %d, %s)\n" path ck.Checkpoint.ck_cycle
          (Checkpoint.content_hash ck))
      rc.Replay.rec_checkpoints;
    Printf.printf "%d checkpoints over %d cycles\n"
      (List.length rc.Replay.rec_checkpoints)
      rc.Replay.rec_report.Bug.cycles
  in
  Cmd.v
    (Cmd.info "checkpoint" ~doc
       ~exits:
         (io_exit
            ~doc:"when the output directory or a checkpoint file in it \
                  cannot be created or written."))
    Term.(const run $ bug_arg $ every_arg $ dir_arg)

(* --- replay ---------------------------------------------------------- *)

let replay_cmd =
  let doc =
    "Time-travel replay: restore a checkpoint and re-simulate the \
     window with a full waveform of all signals (byte-identical to the \
     straight run), or --bisect the checkpoint stream for the first \
     failing cycle."
  in
  let from_arg =
    Arg.(value & opt (some string) None
         & info [ "from" ] ~docv:"CKPT"
             ~doc:"Checkpoint file to restore (from `fpga-debug checkpoint`)")
  in
  let window_arg =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~docv:"N"
             ~doc:"Replay at most N cycles past the snapshot (default: the \
                   bug's own cycle budget)")
  in
  let bisect_arg =
    Arg.(value & flag
         & info [ "bisect" ]
             ~doc:"Binary-search the checkpoint stream for the first cycle \
                   at which the buggy run diverges from the fixed \
                   reference")
  in
  let every_arg =
    Arg.(value & opt int 50
         & info [ "every" ] ~docv:"K"
             ~doc:"Checkpoint interval for --bisect")
  in
  let run id from window bisect every out trace trace_clock =
    let bug = find_bug id in
    let module Replay = Fpga_testbed.Replay in
    let module Checkpoint = Fpga_sim.Checkpoint in
    try
      if bisect then (
        let r =
          traced ~trace ~clock:trace_clock (fun () -> Replay.bisect ~every bug)
        in
        print_endline r.Replay.bi_detail;
        match r.Replay.bi_first_failing with
        | Some c -> Printf.printf "first failing cycle: %d\n" c
        | None ->
            print_endline "no divergence found";
            exit 1)
      else
        match from with
        | None ->
            prerr_endline "replay needs --from CKPT (or --bisect)";
            exit 1
        | Some path ->
            let ck = Checkpoint.load path in
            let report =
              traced ~trace ~clock:trace_clock (fun () ->
                  Replay.replay ?window ~from:ck bug)
            in
            let out =
              Option.value out
                ~default:
                  (Printf.sprintf "%s-replay-c%d.vcd" bug.Bug.id
                     ck.Checkpoint.ck_cycle)
            in
            write_file out (Option.value report.Bug.vcd ~default:"");
            Printf.printf "restored %s at cycle %d (tag %s)\n" path
              ck.Checkpoint.ck_cycle ck.Checkpoint.ck_tag;
            Printf.printf "replayed cycles %d..%d; wrote %s\n"
              ck.Checkpoint.ck_cycle report.Bug.cycles out
    with Checkpoint.Checkpoint_error msg ->
      Printf.eprintf "checkpoint error: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "replay" ~doc
       ~exits:
         (io_exit
            ~doc:"when the output waveform or the $(b,--trace) file \
                  cannot be written."))
    Term.(const run $ bug_arg $ from_arg $ window_arg $ bisect_arg
          $ every_arg $ out_arg $ trace_arg $ trace_clock_arg)

(* --- profile -------------------------------------------------------- *)

let profile_cmd =
  let doc =
    "Run a bug's buggy design with telemetry enabled and report kernel \
     statistics: phase timings, settle rounds, nodes evaluated vs. \
     skipped, and the hottest signals by toggle count."
  in
  let cycles_arg =
    Arg.(value & opt int 200 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to run")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the JSON report")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Hottest signals to show")
  in
  let run id cycles json top_k trace trace_clock kernel =
    let bug = find_bug id in
    let p =
      traced ~trace ~clock:trace_clock (fun () ->
          Fpga_report.Profile.run ?kernel ~cycles ~top_k bug)
    in
    Fpga_report.Profile.print p;
    match json with
    | None -> ()
    | Some path ->
        write_file path (Fpga_report.Profile.to_json p);
        Printf.printf "\nwrote %s\n" path
  in
  Cmd.v
    (Cmd.info "profile" ~doc
       ~exits:(io_exit ~doc:"when the $(b,--json) or $(b,--trace) file \
                             cannot be written."))
    Term.(const run $ bug_arg $ cycles_arg $ json_arg $ top_arg $ trace_arg
          $ trace_clock_arg $ kernel_arg)

(* --- lint ------------------------------------------------------------ *)

let lint_cmd =
  let doc = "Run the structural linter over a testbed bug or a Verilog file." in
  let target_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BUG|FILE" ~doc:"Testbed bug id or path to a .v file")
  in
  let run target =
    let design =
      if Sys.file_exists target then
        design_errors target (fun () -> read_design target)
      else Bug.design_of (find_bug target) ~buggy:true
    in
    List.iter
      (fun (mod_name, findings) ->
        if findings <> [] then (
          Printf.printf "module %s:\n" mod_name;
          List.iter
            (fun f ->
              Printf.printf "  %s\n" (Fpga_analysis.Lint.finding_to_string f))
            findings))
      (Fpga_analysis.Lint.check_design design)
  in
  Cmd.v (Cmd.info "lint" ~doc ~exits:sim_exits) Term.(const run $ target_arg)

(* --- wavediff --------------------------------------------------------- *)

let wavediff_cmd =
  let doc =
    "Capture waveforms of the buggy and fixed runs and report where they \
     first diverge."
  in
  let run id =
    let bug = find_bug id in
    let signals =
      (* observe the design's output ports *)
      let design = Bug.design_of bug ~buggy:true in
      let m = Option.get (Ast.find_module design bug.Bug.top) in
      List.filter_map
        (fun (p : Ast.port) ->
          if p.Ast.dir = Ast.Output then Some p.Ast.port_name else None)
        m.Ast.ports
    in
    let cap ~buggy =
      Fpga_sim.Waveform.capture ~max_cycles:bug.Bug.max_cycles ~top:bug.Bug.top
        ~signals (Bug.design_of bug ~buggy) bug.Bug.stimulus
    in
    let buggy = cap ~buggy:true and fixed = cap ~buggy:false in
    (match Fpga_sim.Waveform.first_divergence buggy fixed with
    | Some d ->
        Printf.printf "first divergence (buggy vs fixed): %s\n"
          (Fpga_sim.Waveform.divergence_to_string d);
        let from_cycle = max 0 (d.Fpga_sim.Waveform.cycle - 4) in
        print_endline "buggy run around the divergence:";
        print_string (Fpga_sim.Waveform.render ~from_cycle ~cycles:16 buggy);
        print_endline "fixed run around the divergence:";
        print_string (Fpga_sim.Waveform.render ~from_cycle ~cycles:16 fixed)
    | None -> print_endline "the runs never diverge on the output ports")
  in
  Cmd.v (Cmd.info "wavediff" ~doc) Term.(const run $ bug_arg)

(* --- snippets ---------------------------------------------------------- *)

let snippets_cmd =
  let doc = "Show the explanatory buggy/fixed snippet for a bug subclass." in
  let which_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SUBCLASS" ~doc:"Subclass name fragment (e.g. overflow); omit to list all")
  in
  let run which =
    let module S = Fpga_study.Snippets in
    let contains hay needle =
      let hay = String.lowercase_ascii hay and needle = String.lowercase_ascii needle in
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    match which with
    | None ->
        List.iter
          (fun (s : S.t) ->
            Printf.printf "%-28s %s\n"
              (Fpga_study.Taxonomy.subclass_name s.S.subclass)
              s.S.title)
          S.all
    | Some fragment -> (
        match
          List.find_opt
            (fun (s : S.t) ->
              contains (Fpga_study.Taxonomy.subclass_name s.S.subclass) fragment)
            S.all
        with
        | None -> Printf.eprintf "no snippet matches %s\n" fragment
        | Some s ->
            Printf.printf "== %s: %s ==\n%s\n" 
              (Fpga_study.Taxonomy.subclass_name s.S.subclass) s.S.title
              s.S.explanation;
            print_endline "--- buggy ---";
            print_string s.S.buggy;
            print_endline "--- fixed ---";
            print_string s.S.fixed)
  in
  Cmd.v (Cmd.info "snippets" ~doc) Term.(const run $ which_arg)

(* --- sim --------------------------------------------------------------- *)

let sim_cmd =
  let doc =
    "Simulate a Verilog file. The optional stimulus file has lines of \
     the form '@CYCLE sig=value sig=value ...' (values decimal or 0x \
     hex); bindings persist until overwritten. Watched signals print on \
     change."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Verilog source")
  in
  let top_arg =
    Arg.(value & opt string "top" & info [ "top" ] ~docv:"MODULE" ~doc:"Top module")
  in
  let cycles_arg =
    Arg.(value & opt int 100 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to run")
  in
  let stim_arg =
    Arg.(value & opt (some file) None & info [ "stim" ] ~docv:"FILE" ~doc:"Stimulus file")
  in
  let watch_arg =
    Arg.(value & opt (some string) None
         & info [ "watch" ] ~docv:"SIGS" ~doc:"Comma-separated signals to print (default: outputs)")
  in
  let vcd_arg =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc:"Dump a VCD waveform")
  in
  let simulate file top cycles stim watch vcd_out trace trace_clock kernel =
    traced ~trace ~clock:trace_clock @@ fun () ->
    let module Telemetry = Fpga_telemetry.Telemetry in
    let design =
      Telemetry.span "parse" @@ fun () -> read_design file
    in
    let flat =
      Telemetry.span "elaborate" @@ fun () ->
      Fpga_sim.Elaborate.elaborate design ~top
    in
    let sim = Fpga_sim.Simulator.create ?kernel flat in
    let vcd = Option.map (fun _ -> Fpga_sim.Vcd.create flat) vcd_out in
    let stim_table = match stim with Some p -> parse_stim flat p | None -> [] in
    let watched =
      match watch with
      | Some s -> String.split_on_char ',' s |> List.map String.trim
      | None -> List.map fst flat.Fpga_sim.Elaborate.f_outputs
    in
    List.iter (check_signal flat ~source:"--watch") watched;
    Fpga_sim.Simulator.on_display sim (fun c t ->
        Printf.printf "[cycle %d] %s\n" c t);
    let prev = Hashtbl.create 8 in
    for i = 0 to cycles - 1 do
      (match List.assoc_opt i stim_table with
      | Some bindings ->
          List.iter
            (fun (k, v) -> Fpga_sim.Simulator.set_input_int sim k v)
            bindings
      | None -> ());
      Fpga_sim.Simulator.step sim;
      Option.iter (fun w -> Fpga_sim.Vcd.sample w sim) vcd;
      List.iter
        (fun sig_ ->
          let v = Fpga_sim.Simulator.read_int sim sig_ in
          let changed =
            match Hashtbl.find_opt prev sig_ with
            | Some p -> p <> v
            | None -> true
          in
          if changed then (
            Hashtbl.replace prev sig_ v;
            Printf.printf "cycle %3d: %s = %d\n" i sig_ v))
        watched
    done;
    (match (vcd, vcd_out) with
    | Some w, Some path ->
        Fpga_sim.Vcd.save w path;
        Printf.printf "wrote %s\n" path
    | _ -> ());
    if Fpga_sim.Simulator.finished sim then print_endline "design executed $finish"
  in
  let run file top cycles stim watch vcd_out trace trace_clock kernel =
    design_errors file (fun () ->
        simulate file top cycles stim watch vcd_out trace trace_clock kernel)
  in
  Cmd.v (Cmd.info "sim" ~doc ~exits:sim_exits)
    Term.(const run $ file_arg $ top_arg $ cycles_arg $ stim_arg $ watch_arg
          $ vcd_arg $ trace_arg $ trace_clock_arg $ kernel_arg)

(* --- export ----------------------------------------------------------- *)

let export_cmd =
  let doc =
    "Write every testbed bug's buggy and fixed Verilog (and the subclass \
     snippets) to a directory, like the paper's artifact layout."
  in
  let dir_arg =
    Arg.(value & opt string "testbed-export"
         & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory")
  in
  let run dir =
    let mkdir d =
      try if not (Sys.file_exists d) then Sys.mkdir d 0o755
      with Sys_error msg -> io_fail d msg
    in
    mkdir dir;
    List.iter
      (fun (b : Bug.t) ->
        write_file (Filename.concat dir (b.Bug.id ^ "_buggy.v")) b.Bug.buggy_src;
        write_file (Filename.concat dir (b.Bug.id ^ "_fixed.v")) b.Bug.fixed_src)
      Registry.all_with_extended;
    let snip_dir = Filename.concat dir "snippets" in
    mkdir snip_dir;
    List.iter
      (fun (s : Fpga_study.Snippets.t) ->
        let slug =
          String.map
            (fun c -> if c = ' ' || c = '-' then '_' else Char.lowercase_ascii c)
            (Fpga_study.Taxonomy.subclass_name s.Fpga_study.Snippets.subclass)
        in
        write_file (Filename.concat snip_dir (slug ^ "_buggy.v"))
          s.Fpga_study.Snippets.buggy;
        write_file (Filename.concat snip_dir (slug ^ "_fixed.v"))
          s.Fpga_study.Snippets.fixed)
      Fpga_study.Snippets.all;
    Printf.printf "wrote %d designs and %d snippets under %s/\n"
      (2 * List.length Registry.all_with_extended)
      (2 * List.length Fpga_study.Snippets.all)
      dir
  in
  Cmd.v
    (Cmd.info "export" ~doc
       ~exits:
         (io_exit
            ~doc:"when the output directory or a file in it cannot be \
                  created or written."))
    Term.(const run $ dir_arg)

(* --- campaign ------------------------------------------------------- *)

let campaign_cmd =
  let doc =
    "Run a batch simulation campaign over the testbed on a pool of \
     domains: differential reproduction of every selected bug (with \
     waveform capture), optional default-vs-brute kernel differentials, \
     and optional cycle-budget sweeps. Results are collected in job \
     order and are identical to a serial run."
  in
  let bugs_arg =
    Arg.(value & opt (some string) None
         & info [ "bugs" ] ~docv:"LIST"
             ~doc:"Comma-separated bug ids (default: all 20 Table 2 bugs)")
  in
  let differential_arg =
    Arg.(value & flag
         & info [ "differential" ]
             ~doc:"Also run default-vs-brute kernel differential jobs")
  in
  let sweep_arg =
    let budget =
      let parse s =
        match int_of_string_opt (String.trim s) with
        | Some n when n > 0 -> Ok n
        | _ ->
            Error (`Msg (Printf.sprintf "%S is not a cycle budget (an integer > 0)" s))
      in
      Arg.conv ~docv:"CYCLES" (parse, Format.pp_print_int)
    in
    Arg.(value & opt (list budget) []
         & info [ "sweep" ] ~docv:"LIST"
             ~doc:"Comma-separated cycle budgets; one sweep job per \
                   (bug, budget)")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the fpga-debug-campaign/1 JSON report")
  in
  let replay_arg =
    Arg.(value & opt (some int) None
         & info [ "replay" ] ~docv:"K"
             ~doc:"Also run a checkpoint/replay determinism job per bug \
                   (checkpoint every K cycles)")
  in
  let run jobs bugs differential sweeps json replay_every trace trace_clock =
    let bugs =
      match bugs with
      | None -> Registry.all
      | Some list -> (
          let ids = String.split_on_char ',' list |> List.map String.trim in
          match Registry.find_many ids with
          | found, [] -> found
          | _, unknown ->
              Printf.eprintf "unknown bug id%s: %s\n"
                (if List.length unknown = 1 then "" else "s")
                (String.concat ", " unknown);
              exit 1)
    in
    let c =
      traced ~trace ~clock:trace_clock
        ~jobs_of:Fpga_campaign.Campaign.trace_segments (fun () ->
          Fpga_campaign.Campaign.run ?domains:jobs ~differential ~sweeps
            ?replay_every bugs)
    in
    Fpga_campaign.Campaign.print c;
    (match json with
    | None -> ()
    | Some path ->
        write_file path (Fpga_campaign.Campaign.to_json c);
        Printf.printf "\nwrote %s\n" path);
    if not (Fpga_campaign.Campaign.ok c) then exit 1
  in
  Cmd.v
    (Cmd.info "campaign" ~doc
       ~exits:(io_exit ~doc:"when the $(b,--json) or $(b,--trace) file \
                             cannot be written."))
    Term.(const run $ jobs_arg $ bugs_arg $ differential_arg $ sweep_arg
          $ json_arg $ replay_arg $ trace_arg $ trace_clock_arg)

(* --- fuzz ----------------------------------------------------------- *)

let fuzz_cmd =
  let doc =
    "Run a differential fuzzing campaign: deterministic seed-driven \
     mutants of the testbed designs, each valid mutant simulated under \
     the default (lowered-dirty) vs brute-force kernels and with \
     telemetry on vs off on a pool of domains. Any disagreement is a \
     kernel bug found by the system itself; it is greedily minimized \
     and dumped as a plain-Verilog reproducer. The same seed replays the same corpus, \
     classifications, and JSON byte-identically at any --jobs width."
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (mutant index i \
                                           uses sub-seed derive(N, i))")
  in
  let mutants_arg =
    Arg.(value & opt int 200
         & info [ "mutants" ] ~docv:"K" ~doc:"Number of mutants to generate")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the fpga-debug-fuzz/2 JSON report")
  in
  let repro_arg =
    Arg.(value & opt (some string) None
         & info [ "repro-dir" ] ~docv:"DIR"
             ~doc:"Write a .v reproducer per kernel mismatch into DIR")
  in
  let run seed mutants jobs json repro_dir trace trace_clock =
    if mutants <= 0 then (
      Printf.eprintf "--mutants must be positive\n";
      exit 1);
    let fc =
      traced ~trace ~clock:trace_clock
        ~jobs_of:Fpga_campaign.Campaign.fuzz_trace_segments (fun () ->
          Fpga_campaign.Campaign.run_fuzz ?domains:jobs ~seed ~mutants ())
    in
    Fpga_campaign.Campaign.print_fuzz fc;
    (match json with
    | None -> ()
    | Some path ->
        write_file path (Fpga_campaign.Campaign.fuzz_to_json fc);
        Printf.printf "\nwrote %s\n" path);
    (match repro_dir with
    | None -> ()
    | Some dir ->
        let findings = Fpga_campaign.Campaign.fuzz_findings fc in
        if findings <> [] then (
          (try Unix.mkdir dir 0o755 with
          | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
          | Unix.Unix_error (e, _, _) -> io_fail dir (Unix.error_message e));
          List.iter
            (fun (f : Fpga_fuzz.Fuzz.result) ->
              match f.Fpga_fuzz.Fuzz.r_repro with
              | None -> ()
              | Some src ->
                  let path =
                    Filename.concat dir
                      (Printf.sprintf "fuzz-%s-seed%d-%d.v"
                         f.Fpga_fuzz.Fuzz.r_bug seed f.Fpga_fuzz.Fuzz.r_index)
                  in
                  write_file path src;
                  Printf.printf "wrote %s\n" path)
            findings));
    if not (Fpga_campaign.Campaign.fuzz_ok fc) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc
       ~exits:
         (io_exit
            ~doc:"when the $(b,--json) or $(b,--trace) file, the \
                  $(b,--repro-dir) directory or a reproducer in it \
                  cannot be created or written."))
    Term.(const run $ seed_arg $ mutants_arg $ jobs_arg $ json_arg $ repro_arg
          $ trace_arg $ trace_clock_arg)

(* --- trace-check ----------------------------------------------------- *)

let trace_check_cmd =
  let doc =
    "Validate a --trace JSON file: parses it (strictly), checks the \
     fpga-debug-trace/1 envelope and every event's ph/pid/tid/ts \
     shape, and verifies B/E span balance per track. Exits non-zero on \
     any malformed input — the reader-side gate the trace-smoke CI job \
     runs over freshly exported traces."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Trace JSON file (from --trace)")
  in
  let run file =
    let text = In_channel.with_open_text file In_channel.input_all in
    match Trace_export.validate text with
    | Ok s ->
        Printf.printf
          "%s: valid %s (%d events: %d spans, %d counter samples, %d \
           instants, %d tracks)\n"
          file Trace_export.schema s.Trace_export.v_events
          s.Trace_export.v_spans s.Trace_export.v_counters
          s.Trace_export.v_instants s.Trace_export.v_tracks
    | Error e ->
        Printf.eprintf "%s: invalid trace: %s\n" file e;
        exit 1
  in
  Cmd.v (Cmd.info "trace-check" ~doc) Term.(const run $ file_arg)

(* --- report --------------------------------------------------------- *)

let report_cmd =
  let doc = "Regenerate a table or figure from the paper's evaluation." in
  let which_arg =
    Arg.(
      required
      & pos 0 (some (enum
                       [ ("table1", `T1); ("table2", `T2); ("fig2", `F2);
                         ("fig3", `F3); ("effectiveness", `Eff); ("freq", `Freq);
                         ("ablations", `Abl); ("all", `All) ]))
          None
      & info [] ~docv:"REPORT"
          ~doc:"table1|table2|fig2|fig3|effectiveness|freq|ablations|all")
  in
  let run which =
    let module R = Fpga_report.Report in
    match which with
    | `T1 -> R.table1 ()
    | `T2 -> R.table2 ()
    | `F2 -> R.figure2 ()
    | `F3 -> R.figure3 ()
    | `Eff -> R.effectiveness ()
    | `Freq -> R.frequency ()
    | `Abl -> R.ablations ()
    | `All ->
        R.table1 ();
        R.table2 ();
        R.extended_testbed ();
        R.figure2 ();
        R.figure3 ();
        R.effectiveness ();
        R.frequency ();
        R.ablations ()
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ which_arg)

let () =
  let doc = "software-style debugging tools for FPGA designs (ASPLOS '22 reproduction)" in
  let info = Cmd.info "fpga-debug" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; repro_cmd; fsm_cmd; stats_cmd; deps_cmd; losscheck_cmd;
            instrument_cmd; vcd_cmd; checkpoint_cmd; replay_cmd; profile_cmd;
            lint_cmd; wavediff_cmd; snippets_cmd; export_cmd; sim_cmd;
            report_cmd; campaign_cmd; fuzz_cmd; trace_check_cmd;
          ]))
