(* The reproducible-bug testbed (section 6.1, Table 2).

   Each bug carries the buggy Verilog source, the fixed source (the
   upstream patch reduced to our subset), a stimulus that triggers the
   symptom push-button, observation hooks, and metadata connecting it to
   the study taxonomy and to the tools that help localize it.

   Reproduction is differential: the same stimulus drives the buggy and
   the fixed design; symptoms are derived from how the two runs diverge
   (missing output rows = data loss, different rows = incorrect output,
   unmet completion = stuck, tripped shell monitor = external error). *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Simulator = Fpga_sim.Simulator
module Testbench = Fpga_sim.Testbench
module Taxonomy = Fpga_study.Taxonomy

type tool = SC | FSM | Stat | Dep | LC

let tool_name = function
  | SC -> "SignalCat"
  | FSM -> "FSM Monitor"
  | Stat -> "Statistics Monitor"
  | Dep -> "Dependency Monitor"
  | LC -> "LossCheck"

type t = {
  id : string;  (* Table 2 identifier, e.g. "D1" *)
  subclass : Taxonomy.subclass;
  application : string;
  platform : Fpga_resources.Platforms.kind;
  symptoms : Taxonomy.symptom list;  (* expected, from Table 2 *)
  helpful_tools : tool list;
  description : string;
  top : string;
  buggy_src : string;
  fixed_src : string;
  stimulus : Testbench.stimulus;
  max_cycles : int;
  (* a valid output row of the design, when one is present this cycle *)
  sample : Simulator.t -> (string * int) list option;
  (* completion condition; unmet = the "stuck" symptom *)
  done_when : (Simulator.t -> bool) option;
  (* FPGA-shell-style external monitor (protocol checker, address range
     checker); tripping it is the "Ext" symptom *)
  ext_monitor : (Simulator.t -> bool) option;
  (* LossCheck inputs, for the data-loss bugs *)
  loss_spec : Fpga_debug.Losscheck.spec option;
  (* the register LossCheck is expected to localize (the loss root) *)
  loss_root : string option;
  (* passing stimuli used as ground truth for false-positive filtering *)
  ground_truth : (Testbench.stimulus * int) list;
  (* manually identified FSM state variables, for the section 4.2
     detection-accuracy experiment *)
  manual_fsms : string list;
  (* events for Statistics Monitor debugging recipes *)
  stat_events : (string * string) list;  (* event name * 1-bit signal *)
  (* target for Dependency Monitor recipes *)
  dep_target : string option;
  target_mhz : int;
}

type report = {
  stuck : bool;
  finished : bool;
  rows : (int * (string * int) list) list;
  ext_error : bool;
  log : (int * string) list;
  cycles : int;
  vcd : string option;
}

(* Every campaign job, replay, bisection and fuzz base wants the same
   few designs, so each source is parsed once per process and the
   immutable AST is shared by every domain. The key is the physical
   source string: sources are module-level constants, so the memo is
   bounded by the registry, and a [{ bug with ... }] copy shares its
   parent's entry. Lookups are lock-free. A miss parses outside any
   lock and publishes with [compare_and_set]; a domain that loses the
   race returns the winner's design, so every caller sees one physical
   AST. A source that fails to parse is not cached. *)
let parsed : (string * Ast.design) list Atomic.t = Atomic.make []

let design_of bug ~buggy =
  let src = if buggy then bug.buggy_src else bug.fixed_src in
  match List.assq_opt src (Atomic.get parsed) with
  | Some design -> design
  | None ->
      let design = Fpga_hdl.Parser.parse_design src in
      let rec publish () =
        let seen = Atomic.get parsed in
        match List.assq_opt src seen with
        | Some winner -> winner
        | None ->
            if Atomic.compare_and_set parsed seen ((src, design) :: seen) then design
            else publish ()
      in
      publish ()

(* ------------------------------------------------------------------ *)
(* Harness state in checkpoint metadata                                 *)
(* ------------------------------------------------------------------ *)

(* A checkpoint captures the simulator; the testbed harness around it
   (observed output rows, the external-monitor flag, the completion
   flag) lives in the checkpoint's metadata section so a replayed run
   reports exactly what an uninterrupted run would. Row names are
   Verilog identifiers and values are ints, so a flat
   "cycle:name=value,...;..." encoding round-trips losslessly. *)

let encode_rows (rows : (int * (string * int) list) list) : string =
  String.concat ";"
    (List.map
       (fun (c, row) ->
         Printf.sprintf "%d:%s" c
           (String.concat ","
              (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) row)))
       rows)

let decode_rows (s : string) : (int * (string * int) list) list =
  if s = "" then []
  else
    String.split_on_char ';' s
    |> List.map (fun entry ->
           match String.split_on_char ':' entry with
           | [ c; row ] ->
               ( int_of_string c,
                 if row = "" then []
                 else
                   String.split_on_char ',' row
                   |> List.map (fun kv ->
                          match String.split_on_char '=' kv with
                          | [ k; v ] -> (k, int_of_string v)
                          | _ -> failwith "malformed row binding") )
           | _ -> failwith "malformed row entry")

type harness = {
  h_rows : (int * (string * int) list) list;  (* oldest first *)
  h_ext : bool;
  h_satisfied : bool;
}

let meta_of_harness h =
  [
    ("harness.rows", encode_rows h.h_rows);
    ("harness.ext", if h.h_ext then "1" else "0");
    ("harness.satisfied", if h.h_satisfied then "1" else "0");
  ]

let harness_of_meta meta =
  let get k = List.assoc_opt k meta in
  try
    {
      h_rows = (match get "harness.rows" with Some s -> decode_rows s | None -> []);
      h_ext = get "harness.ext" = Some "1";
      h_satisfied = get "harness.satisfied" = Some "1";
    }
  with Failure _ ->
    (* [int_of_string] and [decode_rows] signal malformed text *)
    raise
      (Fpga_sim.Checkpoint.Checkpoint_error
         "checkpoint carries malformed harness metadata")

let run_design ?(vcd = false) ?(vcd_from = 0) ?kernel ?max_cycles
    ?checkpoint_every ?on_checkpoint ?from_checkpoint (bug : t)
    (design : Ast.design) : report =
  let max_cycles = Option.value max_cycles ~default:bug.max_cycles in
  let flat = Fpga_sim.Elaborate.elaborate design ~top:bug.top in
  let sim =
    match kernel with
    | Some kernel -> Simulator.create ~kernel flat
    | None -> Simulator.create flat
  in
  let rows = ref [] in
  let ext = ref false in
  let satisfied = ref false in
  (* Resuming from a checkpoint restores both halves of the state: the
     simulator itself and the harness observations accumulated up to
     the capture cycle, so the loop continues exactly where the
     original run was. *)
  let start =
    match from_checkpoint with
    | None -> 0
    | Some ck ->
        Simulator.restore_checkpoint sim ck;
        let h = harness_of_meta ck.Fpga_sim.Checkpoint.ck_meta in
        rows := List.rev h.h_rows;
        ext := h.h_ext;
        satisfied := h.h_satisfied;
        ck.Fpga_sim.Checkpoint.ck_cycle
  in
  let dump = if vcd then Some (Fpga_sim.Vcd.create flat) else None in
  let capture_checkpoint () =
    match on_checkpoint with
    | None -> ()
    | Some f ->
        f
          (Simulator.save_checkpoint ~tag:bug.id
             ~meta:
               (meta_of_harness
                  { h_rows = List.rev !rows; h_ext = !ext;
                    h_satisfied = !satisfied })
             sim)
  in
  let i = ref start in
  while !i < max_cycles && (not (Simulator.finished sim)) && not !satisfied do
    List.iter (fun (n, v) -> Simulator.set_input sim n v) (bug.stimulus !i);
    Simulator.step sim;
    (match dump with
    | Some d when !i >= vcd_from -> Fpga_sim.Vcd.sample d sim
    | _ -> ());
    (match bug.sample sim with
    | Some row -> rows := (!i, row) :: !rows
    | None -> ());
    (match bug.ext_monitor with
    | Some f when f sim -> ext := true
    | _ -> ());
    (match bug.done_when with
    | Some cond when cond sim -> satisfied := true
    | _ -> ());
    (match checkpoint_every with
    | Some every when every > 0 && (!i + 1) mod every = 0 ->
        capture_checkpoint ()
    | _ -> ());
    incr i
  done;
  {
    stuck = (match bug.done_when with Some _ -> not !satisfied | None -> false);
    finished = Simulator.finished sim;
    rows = List.rev !rows;
    ext_error = !ext;
    log = Simulator.log sim;
    cycles = !i;
    vcd = Option.map Fpga_sim.Vcd.contents dump;
  }

let run (bug : t) ~buggy : report = run_design bug (design_of bug ~buggy)

(* Symptoms derived from an already-executed differential pair: how the
   buggy run diverges from the fixed one. Factored out of
   [observed_symptoms] so a campaign job that already holds both
   reports (e.g. with VCD capture on the buggy side) need not simulate
   again. *)
let symptoms_of ~(buggy : report) ~(fixed : report) : Taxonomy.symptom list =
  let stuck = buggy.stuck && not fixed.stuck in
  let loss = List.length buggy.rows < List.length fixed.rows in
  let incorrect =
    List.length buggy.rows = List.length fixed.rows
    && List.exists2 (fun (_, a) (_, b) -> a <> b) buggy.rows fixed.rows
  in
  let ext = buggy.ext_error && not fixed.ext_error in
  List.filter_map
    (fun (flag, sym) -> if flag then Some sym else None)
    [
      (stuck, Taxonomy.App_stuck);
      (loss, Taxonomy.Data_loss);
      (incorrect, Taxonomy.Incorrect_output);
      (ext, Taxonomy.External_error);
    ]

(* Symptoms observed by differential execution. *)
let observed_symptoms (bug : t) : Taxonomy.symptom list =
  let buggy = run bug ~buggy:true in
  let fixed = run bug ~buggy:false in
  symptoms_of ~buggy ~fixed

(* Push-button reproduction: the expected symptoms all manifest. *)
let reproduces (bug : t) : bool =
  let observed = observed_symptoms bug in
  List.for_all (fun s -> List.mem s observed) bug.symptoms

let reproduces_of ~(bug : t) ~buggy ~fixed : bool =
  let observed = symptoms_of ~buggy ~fixed in
  List.for_all (fun s -> List.mem s observed) bug.symptoms

(* Convenience constructors for stimuli. *)
let b = Bits.of_int
let hi = b ~width:1 1
let lo = b ~width:1 0

(* Signals whose driving logic differs between the buggy and fixed
   versions - the registers a localization tool should lead the
   developer to. *)
let changed_signals (bug : t) : string list =
  let assignments ~buggy =
    match Ast.find_module (design_of bug ~buggy) bug.top with
    | None -> []
    | Some m ->
        let decl_sigs =
          List.map
            (fun (d : Ast.decl) -> (d.Ast.name, `Decl (d.Ast.width, d.Ast.depth)))
            m.Ast.decls
        in
        let assign_sigs =
          List.concat_map
            (fun (a : Ast.always) ->
              List.map
                (fun (l, rhs, cond) ->
                  ( String.concat "," (Ast.lvalue_bases l),
                    `Assign (l, rhs, cond) ))
                (Fpga_analysis.Path_constraint.assignments_of_always a))
            m.Ast.always_blocks
          @ List.map
              (fun (l, rhs) ->
                (String.concat "," (Ast.lvalue_bases l), `Assign (l, rhs, Ast.true_expr)))
              m.Ast.assigns
        in
        (* a fix can also rewire an instance: key each connection by
           instance and formal so swapped operands surface as changes *)
        let conn_sigs =
          List.concat_map
            (fun (i : Ast.instance) ->
              List.map
                (fun (c : Ast.connection) ->
                  ( String.concat ","
                      (Ast.dedup (Ast.expr_reads c.Ast.actual)),
                    `Conn (i.Ast.inst_name, c.Ast.formal, c.Ast.actual) ))
                i.Ast.conns)
            m.Ast.instances
        in
        decl_sigs @ assign_sigs @ conn_sigs
  in
  let buggy = assignments ~buggy:true and fixed = assignments ~buggy:false in
  let diff a b =
    List.filter_map
      (fun (name, payload) ->
        if List.exists (fun (n, p) -> n = name && p = payload) b then None
        else Some name)
      a
  in
  (diff buggy fixed @ diff fixed buggy)
  |> List.concat_map (String.split_on_char ',')
  |> Ast.dedup
