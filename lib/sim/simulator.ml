(* Cycle-accurate two-phase simulator over an elaborated design.

   Each [step] performs one clock cycle:
     1. settle combinational logic (continuous assigns and always-star blocks),
     2. execute sequential blocks against the settled pre-edge state,
        collecting non-blocking writes,
     3. step builtin IP primitives (FIFOs, RAMs),
     4. commit non-blocking writes and primitive outputs,
     5. settle combinational logic again so outputs reflect the new
        state; $display statements in combinational blocks fire once
        during this final settle.

   Combinational nodes are topologically ordered at construction;
   combinational cycles raise [Combinational_cycle].

   All executable code is compiled at construction into the interned
   form of [Compiled]: signal references become dense integer ids into a
   [value array] and widths are pre-resolved, so the per-cycle hot path
   performs no string hashing or name resolution.

   Two settle kernels share this plan. [Lowered_dirty], the default,
   hands it to [Lowered], which derives its own scheduling plan from it
   once: fused closures over an unboxed value bank, scheduled by
   per-closure dirty bits fed from a sensitivity map (signal id ->
   reading closures), and the sequential blocks split into statement
   groups that are skipped when nothing they read or write changed.
   [Brute_force] interprets the compiled nodes with a full topological
   sweep on every settle, the seed behavior, kept as the independent
   differential-testing reference. Node evaluation is a pure function
   of the environment, so skipping clean nodes yields exactly the state
   the sweep computes; nodes containing $display are forced onto the
   dirty set during display-enabled settles so logs stay identical
   too. *)

module Bits = Fpga_bits.Bits
module Telemetry = Fpga_telemetry.Telemetry
open Elaborate

exception Combinational_cycle of string list

type kernel = Brute_force | Lowered_dirty | Event_driven

let default_kernel = Lowered_dirty

let kernel_name = function
  | Brute_force -> "brute"
  | Lowered_dirty | Event_driven -> "lowered-dirty"

type fifo_state = {
  f_depth : int;
  f_width : int;
  f_data : Bits.t array;
  mutable f_head : int;
  mutable f_count : int;
}

type ram_state = { r_words : Bits.t array; mutable r_q : Bits.t }

(* IP instances with their ports resolved at construction: each input
   a compiled reader closure (bound to whichever kernel's value banks
   are live; a constant zero when unconnected), each output a signal id
   (-1 when unconnected). *)
type fifo_ports = {
  fp_wrreq : unit -> Bits.t;
  fp_rdreq : unit -> Bits.t;
  fp_data : unit -> Bits.t;
  fp_q : int;
  fp_full : int;
  fp_empty : int;
  fp_usedw : int;
}

type ram_ports = {
  rp_address : unit -> Bits.t;
  rp_wren : unit -> Bits.t;
  rp_data : unit -> Bits.t;
  rp_q : int;
}

type prim_state =
  | Pfifo of fprim * fifo_ports * fifo_state
  | Pram of fprim * ram_ports * ram_state

type t = {
  flat : flat;
  env : Compiled.env;  (* signal values indexed by dense id *)
  kernel : kernel;
  (* [nodes] and [seq] serve the brute-force sweep only: the lowered
     kernel runs its own closures, so an instance that may sit on a free
     list between runs does not keep them ([||] and [] there) *)
  nodes : Compiled.cnode array;  (* topological order: writers before readers *)
  notify : int -> unit;  (* change callback: toggle counting, or [ignore] *)
  seq : (Elaborate.clock_edge * Compiled.cstmt list) list;
  has_negedge : bool;  (* any negedge block: [step] runs the falling edge *)
  prims : prim_state list;
  low : Lowered.t option;  (* present iff [kernel] is [Lowered_dirty] *)
  mutable cycle : int;
  finished : bool ref;  (* shared with the lowered kernel's $finish *)
  mutable log : (int * string) list;  (* newest first *)
  mutable log_len : int;
  mutable log_memo : int * (int * string) list;
      (* oldest-first view cached at a given length, so repeated [log]
         reads between new displays cost O(1) instead of re-reversing *)
  mutable display_hook : (int -> string -> unit) option;
  runs : Lowered.run_stats;  (* both kernels count here; shared with [low] *)
  toggles : int array option;
      (* per-signal change counts by dense id, kept only when profiling
         at [create]: they cost a callback per write *)
  mutable trace_mark : int;  (* closures run at the last trace sample *)
  mutable signature : string;
      (* [Checkpoint.design_hash flat], computed at first use; "" until
         then *)
  (* by-name accessor cache: the last [name_slots] names looked up,
     matched by physical equality, with their dense ids; see [id_of] *)
  name_keys : string array;
  name_ids : int array;
  mutable name_next : int;  (* slot the next miss fills *)
}

(* ------------------------------------------------------------------ *)
(* Combinational scheduling                                            *)
(* ------------------------------------------------------------------ *)

(* A topological order of the nodes whose read and write sets are
   [reads] and [writes], as node indices: every writer before all of its
   readers. A cycle raises with the names of the node the search
   re-entered, in string order. *)
let topo_sort tab ~(reads : int list array) ~(writes : int list array) :
    int array =
  let n = Array.length reads in
  (* reader index for every read signal, built once: successor lookup is
     then linear in the actual edges rather than rescanning every node's
     read set for every written signal *)
  let readers = Array.make (Compiled.n_signals tab) [] in
  Array.iteri (fun j rs -> List.iter (fun r -> readers.(r) <- j :: readers.(r)) rs) reads;
  let succs i =
    (* nodes that read what node i writes *)
    List.concat_map (fun w -> readers.(w)) writes.(i)
    |> List.filter (fun j -> j <> i)
    |> List.sort_uniq Int.compare
  in
  let state = Array.make n 0 (* 0 unvisited, 1 in-stack, 2 done *) in
  let order = ref [] in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 ->
        let names = List.map (Compiled.name tab) (writes.(i) @ reads.(i)) in
        raise (Combinational_cycle (List.sort_uniq String.compare names))
    | _ ->
        state.(i) <- 1;
        List.iter visit (succs i);
        state.(i) <- 2;
        order := i :: !order
  in
  for i = 0 to n - 1 do
    visit i
  done;
  (* each node is prepended after its readers, so [order] places every
     writer before all of its readers *)
  Array.of_list !order

(* ------------------------------------------------------------------ *)
(* Statement interpretation                                            *)
(* ------------------------------------------------------------------ *)

type exec_ctx = {
  sim : t;
  mutable pending : Compiled.cwrite list;  (* reversed *)
  in_comb_phase : bool;
  displays_enabled : bool;
}

(* The $display sink, shared by every kernel: log, stats, hook. Reads
   the cycle counter at emission time. *)
let emit_text sim text =
  sim.log <- (sim.cycle, text) :: sim.log;
  sim.log_len <- sim.log_len + 1;
  sim.runs.rs_displays <- sim.runs.rs_displays + 1;
  match sim.display_hook with Some f -> f sim.cycle text | None -> ()

let emit_display ctx fmt args =
  if ctx.displays_enabled then (
    let vals = List.map (Compiled.eval ctx.sim.env) args in
    emit_text ctx.sim (Display.render_bits fmt vals))

let rec exec_stmt ctx (s : Compiled.cstmt) =
  if not !(ctx.sim.finished) then
    match s with
    | Compiled.CSblocking (l, e, cw) ->
        (* blocking assignments update immediately, visible to the next
           statement, in both combinational and sequential blocks *)
        let v = Compiled.eval_ctx ctx.sim.env ~ctx:cw e in
        Compiled.write_notify ctx.sim.env ~notify:ctx.sim.notify l v
    | Compiled.CSnonblocking (l, e, cw) ->
        let v = Compiled.eval_ctx ctx.sim.env ~ctx:cw e in
        if ctx.in_comb_phase then
          (* non-blocking inside a combinational block degenerates to a
             blocking update in a two-phase simulator *)
          Compiled.write_notify ctx.sim.env ~notify:ctx.sim.notify l v
        else
          ctx.pending <-
            List.rev_append
              (Compiled.resolve_write ctx.sim.env l v)
              ctx.pending
    | Compiled.CSif (c, t, f) ->
        if Bits.reduce_or (Compiled.eval ctx.sim.env c) then
          List.iter (exec_stmt ctx) t
        else List.iter (exec_stmt ctx) f
    | Compiled.CScase (e, items, default) -> (
        let v = Compiled.eval ctx.sim.env e in
        let matches (match_exprs, _) =
          List.exists
            (fun me ->
              let mv = Compiled.eval ctx.sim.env me in
              let w = max (Bits.width v) (Bits.width mv) in
              Bits.equal (Bits.resize v w) (Bits.resize mv w))
            match_exprs
        in
        match List.find_opt matches items with
        | Some (_, body) -> List.iter (exec_stmt ctx) body
        | None -> (
            match default with
            | Some body -> List.iter (exec_stmt ctx) body
            | None -> ()))
    | Compiled.CSdisplay (fmt, args) -> emit_display ctx fmt args
    | Compiled.CSfinish -> ctx.sim.finished := true

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let prim_param (p : fprim) name default =
  Option.value (List.assoc_opt name p.fp_params) ~default

(* A primitive as a plan holds it: each connected input formal
   compiled, each connected output resolved to its signal id through
   the design table, so an unknown signal raises as the compiled plan
   does. *)
type prim_plan = {
  pp_prim : fprim;
  pp_inputs : (string * Compiled.cexpr) list;
  pp_outputs : (string * int) list;
}

(* Allocate a primitive's state, its inputs read through [reader]
   (bound to whichever kernel's value banks are live). *)
let make_prim_state reader (pp : prim_plan) : prim_state =
  let p = pp.pp_prim in
  let input name =
    match List.assoc_opt name pp.pp_inputs with
    | Some e -> reader e
    | None ->
        let zero = Bits.zero 1 in
        fun () -> zero
  in
  let output name = Option.value (List.assoc_opt name pp.pp_outputs) ~default:(-1) in
  let fifo ~full ~empty ~usedw =
    let width = prim_param p "lpm_width" 8 in
    let depth = prim_param p "lpm_numwords" 16 in
    Pfifo
      ( p,
        {
          fp_wrreq = input "wrreq";
          fp_rdreq = input "rdreq";
          fp_data = input "data";
          fp_q = output "q";
          fp_full = output full;
          fp_empty = output empty;
          fp_usedw = output usedw;
        },
        {
          f_depth = depth;
          f_width = width;
          f_data = Array.make depth (Bits.zero width);
          f_head = 0;
          f_count = 0;
        } )
  in
  match p.fp_kind with
  | Scfifo -> fifo ~full:"full" ~empty:"empty" ~usedw:"usedw"
  | Dcfifo -> fifo ~full:"wrfull" ~empty:"rdempty" ~usedw:"wrusedw"
  | Altsyncram ->
      let width = prim_param p "width_a" 8 in
      let words = prim_param p "numwords_a" 16 in
      Pram
        ( p,
          {
            rp_address = input "address_a";
            rp_wren = input "wren_a";
            rp_data = input "data_a";
            rp_q = output "q_a";
          },
          { r_words = Array.make words (Bits.zero width); r_q = Bits.zero width } )

(* Contents back to what [make_prim_state] allocates. *)
let reset_prim = function
  | Pfifo (_, _, f) ->
      Array.fill f.f_data 0 f.f_depth (Bits.zero f.f_width);
      f.f_head <- 0;
      f.f_count <- 0
  | Pram (_, _, r) ->
      let zero = Bits.zero (Bits.width r.r_q) in
      Array.fill r.r_words 0 (Array.length r.r_words) zero;
      r.r_q <- zero

(* Change-detected write to a vector signal through whichever kernel's
   value bank is live; resizes to the declared width and notifies on
   change. Memories are never written this way. *)
let write_sig sim i value =
  match sim.env.(i) with
  | Compiled.Mem _ -> ()
  | Compiled.Vec old -> (
      match sim.low with
      | Some low -> Lowered.write_vec low i value
      | None ->
          let value = Bits.resize value (Bits.width old) in
          if not (Bits.equal old value) then (
            sim.env.(i) <- Compiled.Vec value;
            sim.notify i))

(* Drive a primitive output signal if it is connected; change-detected
   so a quiescent primitive does not wake its combinational readers. *)
let drive sim i value = if i >= 0 then write_sig sim i value

let step_prim (ps : prim_state) =
  match ps with
  | Pfifo (_, ports, f) ->
      let wrreq = Bits.reduce_or (ports.fp_wrreq ()) in
      let rdreq = Bits.reduce_or (ports.fp_rdreq ()) in
      let data = Bits.resize (ports.fp_data ()) f.f_width in
      let popped = rdreq && f.f_count > 0 in
      let pushed = wrreq && f.f_count < f.f_depth in
      if popped then (
        f.f_head <- (f.f_head + 1) mod f.f_depth;
        f.f_count <- f.f_count - 1);
      if pushed then (
        f.f_data.((f.f_head + f.f_count) mod f.f_depth) <- data;
        f.f_count <- f.f_count + 1)
  | Pram (_, ports, r) ->
      let addr = Bits.to_int_trunc (ports.rp_address ()) in
      let wren = Bits.reduce_or (ports.rp_wren ()) in
      let data = ports.rp_data () in
      let size = Array.length r.r_words in
      let k = if size = 0 then 0 else addr mod size in
      (* registered read of the old word, then write *)
      r.r_q <- r.r_words.(k);
      if wren then
        r.r_words.(k) <- Bits.resize data (Bits.width r.r_words.(k))

let drive_prim_outputs sim ps =
  match ps with
  | Pfifo (_, ports, f) ->
      let front =
        if f.f_count > 0 then f.f_data.(f.f_head) else Bits.zero f.f_width
      in
      drive sim ports.fp_q front;
      drive sim ports.fp_full (Bits.of_bool (f.f_count >= f.f_depth));
      drive sim ports.fp_empty (Bits.of_bool (f.f_count = 0));
      (* [drive] resizes to the connected signal's declared width *)
      drive sim ports.fp_usedw (Bits.of_int ~width:16 f.f_count)
  | Pram (_, ports, r) -> drive sim ports.rp_q r.r_q

(* ------------------------------------------------------------------ *)
(* Construction and stepping                                           *)
(* ------------------------------------------------------------------ *)

(* The immutable half of construction: everything [create] derives
   from the flat alone. No instance ever writes into a plan, so every
   instance of one flat, under either kernel and with or without stats,
   can be built from the same one. *)
type plan = {
  p_flat : flat;
  p_nodes : Compiled.cnode array;  (* topological order *)
  p_seq : (Elaborate.clock_edge * Compiled.cstmt list) list;
  p_has_negedge : bool;  (* any negedge block: [step] runs the falling edge *)
  p_prims : prim_plan list;
  p_low : Lowered.plan;  (* what lowered-dirty schedules by *)
}

(* The combinational nodes are compiled in source order and sorted by
   the ids they read and write, so an unbound name in one raises before
   a cycle through it does. *)
let compile_plan (flat : flat) : plan =
  let tab = Compiled.of_flat flat in
  let all =
    Array.of_list
      (List.map
         (fun (l, e) ->
           let cl = Compiled.compile_lvalue tab l in
           Compiled.CNassign (cl, Compiled.compile_expr tab e, Compiled.clvalue_width cl))
         flat.f_assigns
      @ List.map (fun b -> Compiled.CNblock (List.map (Compiled.compile_stmt tab) b)) flat.f_comb)
  in
  let reads =
    Array.map (fun node -> List.sort_uniq Int.compare (Compiled.node_ids Reads node)) all
  in
  let order = topo_sort tab ~reads ~writes:(Array.map (Compiled.node_ids Targets) all) in
  let nodes = Array.map (fun i -> all.(i)) order in
  let seq =
    List.map
      (fun (e, _clk, body) -> (e, List.map (Compiled.compile_stmt tab) body))
      flat.f_seq
  in
  let prims =
    List.map
      (fun (p : fprim) ->
        let pp_inputs =
          List.map (fun (f, e) -> (f, Compiled.compile_expr tab e)) p.fp_inputs
        in
        { pp_prim = p; pp_inputs;
          pp_outputs =
            List.map (fun (f, s) -> (f, Compiled.id tab s)) p.fp_outputs })
      flat.f_prims
  in
  { p_flat = flat; p_nodes = nodes; p_seq = seq;
    p_has_negedge = List.exists (fun (e, _, _) -> e = Elaborate.Neg) flat.f_seq;
    p_prims = prims;
    p_low = Lowered.plan tab ~nodes ~reads:(Array.map (fun i -> reads.(i)) order) ~seq }

(* A fuzz mutant's validity gate and its runs build simulators of the
   same flat back to back, so each domain keeps its last plan, keyed on
   the physical flat. A flat is never written after elaboration and a
   plan never after [compile_plan], so handing one out again is safe. A
   flat that fails to compile (a combinational cycle, an unbound name)
   is not remembered and raises again. *)
let last_plan : plan option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let plan_of flat =
  let slot = Domain.DLS.get last_plan in
  match !slot with
  | Some p when p.p_flat == flat -> p
  | _ ->
      let p = compile_plan flat in
      slot := Some p;
      p

(* Harnesses call the by-name accessors with the same string literals
   every cycle, so a few names cover nearly all lookups. *)
let name_slots = 8

(* toggles are counted, and the trace counter series sampled, only for
   an instance created while telemetry or structured tracing is on *)
let profiling () = Telemetry.enabled () || Telemetry.Trace.enabled ()

(* The run state: what [create] allocates afresh for each instance on
   top of the flat's shared plan. *)
let create ?(kernel = default_kernel) (flat : flat) : t =
  Telemetry.span "compile" @@ fun () ->
  let kernel = match kernel with Event_driven -> Lowered_dirty | k -> k in
  let plan = plan_of flat in
  let env = Compiled.fresh_env flat in
  let finished = ref false in
  let runs = Lowered.new_run_stats () in
  let toggles =
    if profiling () then Some (Array.make (Array.length flat.f_signal_order) 0)
    else None
  in
  (* the lowered kernel holds its own copy of the callback, so toggle
     counts match across kernels *)
  let notify =
    match toggles with
    | None -> ignore
    | Some t -> fun i -> t.(i) <- t.(i) + 1
  in
  let low =
    if kernel <> Lowered_dirty then None
    else Some (Lowered.create plan.p_low ~env ~finished ~runs ~notify)
  in
  let reader =
    match low with
    | Some lw -> Lowered.input_fn lw
    | None -> fun ce () -> Compiled.eval env ce
  in
  let prims = List.map (make_prim_state reader) plan.p_prims in
  let sim =
    { flat; env; kernel; notify;
      nodes = (if low = None then plan.p_nodes else [||]);
      seq = (if low = None then plan.p_seq else []);
      has_negedge = plan.p_has_negedge;
      prims; low;
      cycle = 0; finished; log = []; log_len = 0;
      log_memo = (0, []); display_hook = None; runs; toggles; trace_mark = 0;
      signature = "";
      (* an empty slot holds id -1, so [id_of] misses on it whatever
         its key *)
      name_keys = Array.make name_slots "";
      name_ids = Array.make name_slots (-1);
      name_next = 0 }
  in
  Option.iter (fun lw -> Lowered.set_emit lw (emit_text sim)) low;
  (* initial primitive outputs so the first settle sees them; every node
     starts dirty, so the first settle evaluates the full plan *)
  List.iter (drive_prim_outputs sim) prims;
  sim

(* The tail shared by [reset] and [restore_checkpoint], once values and
   primitive contents are in place: every lowered closure and
   statement group pending, as [create] leaves them, and the primitive outputs driven from the contents before the next
   settle. *)
let reschedule sim =
  Option.iter Lowered.mark_all sim.low;
  List.iter (drive_prim_outputs sim) sim.prims

(* Back to exactly what [create] leaves, re-deriving cycle-0 values
   from the flat. The counters are cleared first, so the toggles that
   driving the initial primitive outputs counts at construction are
   counted again. *)
let reset sim =
  Lowered.clear_run_stats sim.runs;
  Option.iter (fun t -> Array.fill t 0 (Array.length t) 0) sim.toggles;
  sim.trace_mark <- 0;
  Compiled.reset_env sim.flat sim.env;
  Option.iter Lowered.reset sim.low;
  List.iter reset_prim sim.prims;
  sim.cycle <- 0;
  sim.finished := false;
  sim.log <- [];
  sim.log_len <- 0;
  sim.log_memo <- (0, []);
  sim.display_hook <- None;
  reschedule sim

let exec_node ctx node =
  match node with
  | Compiled.CNassign (l, e, cw) ->
      let v = Compiled.eval_ctx ctx.sim.env ~ctx:cw e in
      Compiled.write_notify ctx.sim.env ~notify:ctx.sim.notify l v
  | Compiled.CNblock stmts -> List.iter (exec_stmt ctx) stmts

(* The lowered kernel counts its settles itself, in fused closures; the
   brute-force sweep counts every node as pending and evaluated. *)
let settle ?(displays = false) (sim : t) =
  match sim.low with
  | Some low -> Lowered.settle low ~displays
  | None ->
      let n = Array.length sim.nodes in
      Lowered.count_settle sim.runs ~dirty:n ~run:n ~size:n;
      let ctx =
        { sim; pending = []; in_comb_phase = true; displays_enabled = displays }
      in
      Array.iter (exec_node ctx) sim.nodes

(* Public accessors stay name-keyed: one id lookup per call, then array
   reads/writes. [id_of] scans the name cache by physical equality
   before hashing, so a caller that passes the same string every cycle
   pays a few pointer compares; a hit holds the id the table gave for
   an equal string, so it is never wrong. It returns -1 for an unknown
   name; a hit allocates nothing. *)
let rec scan_names keys ids name i =
  if i = name_slots then -1
  else if Array.unsafe_get keys i == name then Array.unsafe_get ids i
  else scan_names keys ids name (i + 1)

let id_of sim name =
  let i = scan_names sim.name_keys sim.name_ids name 0 in
  if i >= 0 then i
  else
    match Hashtbl.find_opt sim.flat.f_signal_ids name with
    | None -> -1
    | Some i ->
        let slot = sim.name_next in
        sim.name_keys.(slot) <- name;
        sim.name_ids.(slot) <- i;
        sim.name_next <- (slot + 1) mod name_slots;
        i

let bad_name fmt name = invalid_arg (Printf.sprintf fmt name)

let set_input sim name value =
  let i = id_of sim name in
  if i < 0 then bad_name "Simulator.set_input: unknown %s" name;
  match sim.env.(i) with
  | Compiled.Vec _ -> write_sig sim i value
  | Compiled.Mem _ -> invalid_arg "Simulator.set_input: memory"

let set_input_int sim name v =
  let i = id_of sim name in
  if i < 0 then bad_name "Simulator.set_input_int: unknown %s" name;
  match sim.env.(i) with
  | Compiled.Vec old -> write_sig sim i (Bits.of_int ~width:(Bits.width old) v)
  | Compiled.Mem _ -> bad_name "Simulator.set_input_int: unknown %s" name

let read_id sim i =
  match sim.env.(i) with
  | Compiled.Vec b -> (
      match sim.low with Some low -> Lowered.read_vec low i | None -> b)
  | Compiled.Mem _ ->
      bad_name "Simulator.read: %s is a memory" sim.flat.f_signal_order.(i)

let read sim name =
  let i = id_of sim name in
  if i < 0 then bad_name "Simulator.read: unknown %s" name;
  read_id sim i

let read_int sim name = Bits.to_int_trunc (read sim name)

let read_memory sim name =
  let i = id_of sim name in
  if i < 0 then bad_name "Simulator.read_memory: %s" name;
  match sim.env.(i) with
  | Compiled.Mem a -> Array.copy a
  | Compiled.Vec _ -> bad_name "Simulator.read_memory: %s" name

(* The slot is read at every call, not once: a checkpoint restore
   replaces a memory's array. *)
let memory_reader sim name =
  let i = id_of sim name in
  (match if i < 0 then None else Some sim.env.(i) with
  | Some (Compiled.Mem _) -> ()
  | Some (Compiled.Vec _) | None ->
      bad_name "Simulator.memory_reader: %s" name);
  fun k ->
    match sim.env.(i) with
    | Compiled.Mem a -> a.(k)
    | Compiled.Vec _ -> assert false

(* Run the sequential blocks firing on one clock edge and commit their
   non-blocking writes. *)
let edge_phase (sim : t) (edge : Elaborate.clock_edge) ~with_prims =
  match sim.low with
  | Some low ->
      Lowered.run_edge low edge;
      if with_prims then List.iter step_prim sim.prims;
      Lowered.commit low;
      if with_prims then List.iter (drive_prim_outputs sim) sim.prims
  | None ->
      let ctx =
        { sim; pending = []; in_comb_phase = false; displays_enabled = true }
      in
      List.iter
        (fun (e, body) -> if e = edge then List.iter (exec_stmt ctx) body)
        sim.seq;
      if with_prims then List.iter step_prim sim.prims;
      sim.runs.rs_commit_boxed <-
        sim.runs.rs_commit_boxed + List.length ctx.pending;
      List.iter
        (Compiled.apply_write_notify sim.env ~notify:sim.notify)
        (List.rev ctx.pending);
      if with_prims then List.iter (drive_prim_outputs sim) sim.prims

(* The trace counter series are sampled once per this many cycles, not
   every cycle, so tracing a long run stays cheap. *)
let sample_every = 32

let sample_counters sim =
  let run = sim.runs.rs_closures_run in
  let delta = run - sim.trace_mark in
  sim.trace_mark <- run;
  if Telemetry.Trace.enabled () then (
    Telemetry.Trace.counter "sim.dirty"
      (match sim.low with
      | Some low -> Lowered.dirty_count low
      | None -> Array.length sim.nodes);
    Telemetry.Trace.counter "sim.evaluated" delta)

let step (sim : t) =
  if not !(sim.finished) then (
    settle sim ~displays:false;
    (* rising edge: posedge blocks and the clocked IP primitives fire
       against the settled pre-edge state; displays use those values *)
    edge_phase sim Elaborate.Pos ~with_prims:true;
    (* falling edge (half a cycle later): negedge blocks observe the
       post-posedge state, as in event-driven simulation *)
    if sim.has_negedge then (
      settle sim ~displays:false;
      edge_phase sim Elaborate.Neg ~with_prims:false);
    settle sim ~displays:true;
    sim.cycle <- sim.cycle + 1;
    let steps = sim.runs.rs_steps + 1 in
    sim.runs.rs_steps <- steps;
    match sim.toggles with
    | Some _ when steps mod sample_every = 0 -> sample_counters sim
    | _ -> ())

let run sim n =
  let i = ref 0 in
  while !i < n && not !(sim.finished) do
    step sim;
    incr i
  done

(* Entries accumulate by prepending (O(1) per $display); the oldest-first
   view is materialized at most once per new entry and memoized, so a
   caller polling [log] between displays never re-reverses. *)
let log sim =
  let len, memo = sim.log_memo in
  if len = sim.log_len then memo
  else (
    let oldest_first = List.rev sim.log in
    sim.log_memo <- (sim.log_len, oldest_first);
    oldest_first)

let cycle sim = sim.cycle
let finished sim = !(sim.finished)
let kernel sim = sim.kernel
let flat sim = sim.flat
let lowering_stats sim = Option.map Lowered.stats sim.low
let on_display sim f = sim.display_hook <- Some f

(* ------------------------------------------------------------------ *)
(* Telemetry read-back                                                 *)
(* ------------------------------------------------------------------ *)

let stats sim = { sim.runs with rs_steps = sim.runs.rs_steps }

let lowered_run_stats sim = Option.map (fun _ -> sim.runs) sim.low

let kernel_efficiency sim =
  let r = sim.runs in
  let rounds = r.rs_closures_run + r.rs_closures_skipped in
  if rounds = 0 then None
  else Some (float_of_int r.rs_closures_run /. float_of_int rounds)

let toggle_counts sim =
  match sim.toggles with
  | None -> []
  | Some t ->
      Array.to_list (Array.mapi (fun i n -> (sim.flat.f_signal_order.(i), n)) t)

let hottest_signals ?(k = 10) sim =
  toggle_counts sim
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)
  |> List.filteri (fun i _ -> i < k)

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

(* Architectural value of signal [i], materialized through the lowered
   kernel's immediate bank when that is the live representation. *)
let sig_value sim i =
  match sim.env.(i) with
  | Compiled.Vec b ->
      Compiled.Vec
        (match sim.low with Some low -> Lowered.read_vec low i | None -> b)
  | Compiled.Mem a -> Compiled.Mem (Array.copy a)

(* Raw restore of one signal, routed into whichever value bank is
   live; no change detection (the caller re-marks everything). *)
let restore_sig sim i v =
  match v with
  | Compiled.Vec b -> (
      match sim.low with
      | Some low -> Lowered.set_vec_raw low i b
      | None -> sim.env.(i) <- Compiled.Vec b)
  | Compiled.Mem a -> sim.env.(i) <- Compiled.Mem (Array.copy a)

(* A deep snapshot of the architectural state — environment, primitive
   contents, cycle count, and log — name-keyed into the versioned
   [Checkpoint] wire format and bound to the design by its structural
   hash. Restoring a checkpoint and stepping produces the same trace as
   the original run: the replay property checkpoint-based FPGA debuggers
   (DESSERT, StateMover) rely on. The dirty flags and the NBA queue are
   derived or empty at cycle boundaries, so a restored simulator
   re-derives them. *)

let signature sim =
  if sim.signature = "" then sim.signature <- Checkpoint.design_hash sim.flat;
  sim.signature

let ck_saves = Telemetry.Counter.make "checkpoint.saves"
let ck_restores = Telemetry.Counter.make "checkpoint.restores"

let save_checkpoint ?(tag = "") ?(meta = []) (sim : t) : Checkpoint.t =
  Telemetry.span "checkpoint.save" @@ fun () ->
  Telemetry.Counter.incr ck_saves;
  let ck_values =
    Array.to_list
      (Array.mapi
         (fun i name -> (name, sig_value sim i))
         sim.flat.f_signal_order)
  in
  let ck_prims =
    List.map
      (fun ps ->
        match ps with
        | Pfifo (p, _, f) ->
            Checkpoint.Cfifo
              {
                cf_name = p.fp_name;
                cf_width = f.f_width;
                cf_data = Array.copy f.f_data;
                cf_head = f.f_head;
                cf_count = f.f_count;
              }
        | Pram (p, _, r) ->
            Checkpoint.Cram
              {
                cr_name = p.fp_name;
                cr_width = Bits.width r.r_q;
                cr_q = r.r_q;
                cr_words = Array.copy r.r_words;
              })
      sim.prims
  in
  {
    Checkpoint.ck_design = signature sim;
    ck_tag = tag;
    ck_cycle = sim.cycle;
    ck_finished = !(sim.finished);
    ck_values;
    ck_prims;
    ck_log = log sim;
    ck_meta = meta;
  }

let ck_fail fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Checkpoint_error s)) fmt

let restore_checkpoint (sim : t) (ck : Checkpoint.t) : unit =
  Telemetry.span "checkpoint.restore" @@ fun () ->
  Telemetry.Counter.incr ck_restores;
  let here = signature sim in
  if ck.Checkpoint.ck_design <> here then
    ck_fail
      "checkpoint%s was taken from a different design (signature %s, this \
       simulator has %s)"
      (if ck.Checkpoint.ck_tag = "" then ""
       else Printf.sprintf " %S" ck.Checkpoint.ck_tag)
      ck.Checkpoint.ck_design here;
  List.iter
    (fun (name, v) ->
      match id_of sim name with
      | -1 -> ck_fail "checkpoint signal %s does not exist in the design" name
      | i -> (
          match (sim.env.(i), v) with
          | Compiled.Vec old, Compiled.Vec b ->
              if Bits.width b <> Bits.width old then
                ck_fail "checkpoint signal %s has width %d, design has %d" name
                  (Bits.width b) (Bits.width old)
              else restore_sig sim i v
          | Compiled.Mem old, Compiled.Mem a ->
              if Array.length a <> Array.length old then
                ck_fail "checkpoint memory %s has %d words, design has %d" name
                  (Array.length a) (Array.length old)
              else sim.env.(i) <- Compiled.Mem (Array.copy a)
          | Compiled.Vec _, Compiled.Mem _ | Compiled.Mem _, Compiled.Vec _ ->
              ck_fail "checkpoint signal %s has the wrong shape" name))
    ck.Checkpoint.ck_values;
  List.iter
    (fun ckp ->
      let find name =
        List.find_opt
          (fun ps ->
            match ps with
            | Pfifo (p, _, _) | Pram (p, _, _) -> p.fp_name = name)
          sim.prims
      in
      match ckp with
      | Checkpoint.Cfifo { cf_name; cf_data; cf_head; cf_count; _ } -> (
          match find cf_name with
          | Some (Pfifo (_, _, st)) when Array.length cf_data = st.f_depth ->
              Array.blit cf_data 0 st.f_data 0 st.f_depth;
              st.f_head <- cf_head;
              st.f_count <- cf_count
          | _ -> ck_fail "checkpoint FIFO %s does not match the design" cf_name)
      | Checkpoint.Cram { cr_name; cr_q; cr_words; _ } -> (
          match find cr_name with
          | Some (Pram (_, _, st))
            when Array.length cr_words = Array.length st.r_words ->
              Array.blit cr_words 0 st.r_words 0 (Array.length st.r_words);
              st.r_q <- cr_q
          | _ -> ck_fail "checkpoint RAM %s does not match the design" cr_name))
    ck.Checkpoint.ck_prims;
  sim.cycle <- ck.Checkpoint.ck_cycle;
  sim.finished := ck.Checkpoint.ck_finished;
  sim.log <- List.rev ck.Checkpoint.ck_log;
  sim.log_len <- List.length ck.Checkpoint.ck_log;
  sim.log_memo <- (-1, []);
  reschedule sim
