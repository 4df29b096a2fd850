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
   hands it to [Lowered]: fused closures over an unboxed value bank,
   scheduled by per-closure dirty bits fed from a sensitivity map
   (signal id -> reading nodes) built here. [Brute_force] interprets
   the compiled nodes with a full topological sweep on every settle,
   the seed behavior, kept as the independent differential-testing
   reference. Node evaluation is a pure function of the environment, so
   skipping clean nodes yields exactly the state the sweep computes;
   nodes containing $display are forced onto the dirty set during
   display-enabled settles so logs stay identical too. *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Telemetry = Fpga_telemetry.Telemetry
open Elaborate

exception Combinational_cycle of string list

type kernel = Brute_force | Lowered_dirty | Event_driven

let default_kernel = Lowered_dirty

let kernel_name = function
  | Brute_force -> "brute"
  | Lowered_dirty | Event_driven -> "lowered-dirty"

let kernel_of_string = function
  | "brute" | "brute-force" -> Some Brute_force
  | "lowered-dirty" | "lowered_dirty" -> Some Lowered_dirty
  | _ -> None

(* AST-level node, used only for dependency analysis (reads/writes are
   name sets); execution uses the compiled [comb_node] form. *)
type ast_node = Aassign of Ast.lvalue * Ast.expr | Ablock of Ast.stmt list

type comb_node =
  | Cassign of Compiled.clvalue * Compiled.cexpr * int  (* ctx width *)
  | Cblock of Compiled.cstmt list

type fifo_state = {
  f_depth : int;
  f_width : int;
  f_data : Bits.t array;
  mutable f_head : int;
  mutable f_count : int;
}

type ram_state = { r_words : Bits.t array; mutable r_q : Bits.t }

(* IP instance with compiled port connections: inputs as pre-compiled
   reader closures (bound to whichever kernel's value banks are live),
   outputs as signal ids. *)
type cprim = {
  cp_src : fprim;
  cp_inputs : (string * (unit -> Bits.t)) list;
  cp_outputs : (string * int) list;
}

type prim_state =
  | Pfifo of cprim * fifo_state
  | Pram of cprim * ram_state

(* Kernel-profiling state, allocated at construction only when the
   telemetry switch is on; [None] keeps the hot paths at a single
   branch per settle/edge, with the per-node and per-write code
   untouched. *)
type istats = {
  mutable s_steps : int;
  mutable s_settles : int;
  mutable s_node_rounds : int;  (* nodes considered: settles * plan size *)
  mutable s_nodes_evaluated : int;
  mutable s_dirty_total : int;  (* sum of dirty-set sizes at settle entry *)
  mutable s_dirty_peak : int;
  mutable s_nba_commits : int;
  mutable s_prim_steps : int;
  mutable s_displays : int;
  s_toggles : int array;  (* per-signal change counts, by dense id *)
  s_settle_hist : Telemetry.Histogram.t;  (* nodes evaluated per settle *)
  (* trace counter sampling window: see [sample_every] *)
  mutable s_cycles_in_window : int;
  mutable s_evaluated_mark : int;  (* s_nodes_evaluated at last sample *)
}

type t = {
  flat : flat;
  tab : Compiled.tab;
  env : Compiled.env;  (* signal values indexed by dense id *)
  kernel : kernel;
  nodes : comb_node array;  (* topological order: writers before readers *)
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
  stats : istats option;
  (* by-name accessor cache: the last [name_slots] names looked up,
     matched by physical equality, with their dense ids; see [id_of] *)
  name_keys : string array;
  name_ids : int array;
  mutable name_next : int;  (* slot the next miss fills *)
}

(* ------------------------------------------------------------------ *)
(* Combinational scheduling                                            *)
(* ------------------------------------------------------------------ *)

let node_reads = function
  | Aassign (l, e) -> Ast.dedup (Ast.expr_reads e @ Ast.lvalue_reads l)
  | Ablock stmts -> Ast.dedup (List.concat_map Ast.stmt_reads stmts)

let node_writes = function
  | Aassign (l, _) -> Ast.lvalue_bases l
  | Ablock stmts -> Ast.dedup (List.concat_map Ast.stmt_writes stmts)

let topo_sort (nodes : ast_node list) : ast_node list =
  let arr = Array.of_list nodes in
  let n = Array.length arr in
  let writes = Array.map node_writes arr in
  let reads = Array.map node_reads arr in
  (* reader index for every read signal, built once: successor lookup is
     then linear in the actual edges rather than rescanning every node's
     read set for every written signal *)
  let readers = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun j rs ->
      List.iter
        (fun r ->
          let prev = Option.value (Hashtbl.find_opt readers r) ~default:[] in
          Hashtbl.replace readers r (j :: prev))
        rs)
    reads;
  let succs i =
    (* nodes that read what node i writes *)
    List.concat_map
      (fun w -> Option.value (Hashtbl.find_opt readers w) ~default:[])
      writes.(i)
    |> List.filter (fun j -> j <> i)
    |> List.sort_uniq Int.compare
  in
  let state = Array.make n 0 (* 0 unvisited, 1 in-stack, 2 done *) in
  let order = ref [] in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 ->
        let cyc = Ast.dedup (writes.(i) @ reads.(i)) in
        raise (Combinational_cycle cyc)
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
  List.map (fun i -> arr.(i)) !order

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
  (match sim.stats with
  | Some st -> st.s_displays <- st.s_displays + 1
  | None -> ());
  match sim.display_hook with Some f -> f sim.cycle text | None -> ()

let emit_display ctx fmt args =
  if ctx.displays_enabled then (
    let vals = List.map (Compiled.eval ctx.sim.env) args in
    emit_text ctx.sim (Display.render fmt vals))

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

let prim_param (cp : cprim) name default =
  Option.value (List.assoc_opt name cp.cp_src.fp_params) ~default

let make_prim_state (cp : cprim) : prim_state =
  match cp.cp_src.fp_kind with
  | Scfifo | Dcfifo ->
      let width = prim_param cp "lpm_width" 8 in
      let depth = prim_param cp "lpm_numwords" 16 in
      Pfifo
        ( cp,
          {
            f_depth = depth;
            f_width = width;
            f_data = Array.make depth (Bits.zero width);
            f_head = 0;
            f_count = 0;
          } )
  | Altsyncram ->
      let width = prim_param cp "width_a" 8 in
      let words = prim_param cp "numwords_a" 16 in
      Pram
        (cp, { r_words = Array.make words (Bits.zero width); r_q = Bits.zero width })

let prim_input (cp : cprim) name =
  match List.assoc_opt name cp.cp_inputs with
  | Some f -> f ()
  | None -> Bits.zero 1

let prim_input_bool cp name = Bits.reduce_or (prim_input cp name)

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
let drive sim (cp : cprim) formal value =
  match List.assoc_opt formal cp.cp_outputs with
  | None -> ()
  | Some i -> write_sig sim i value

let fifo_port_names kind =
  match kind with
  | Scfifo -> ("wrreq", "rdreq", "data", "q", "full", "empty", "usedw")
  | Dcfifo -> ("wrreq", "rdreq", "data", "q", "wrfull", "rdempty", "wrusedw")
  | Altsyncram -> assert false

let drive_fifo_outputs sim (cp : cprim) (f : fifo_state) =
  let _, _, _, q, full, empty, usedw = fifo_port_names cp.cp_src.fp_kind in
  let front =
    if f.f_count > 0 then f.f_data.(f.f_head) else Bits.zero f.f_width
  in
  drive sim cp q front;
  drive sim cp full (Bits.of_bool (f.f_count >= f.f_depth));
  drive sim cp empty (Bits.of_bool (f.f_count = 0));
  (* [drive] resizes to the connected signal's declared width *)
  drive sim cp usedw (Bits.of_int ~width:16 f.f_count)

let step_prim (ps : prim_state) =
  match ps with
  | Pfifo (cp, f) ->
      let wrreq_n, rdreq_n, data_n, _, _, _, _ =
        fifo_port_names cp.cp_src.fp_kind
      in
      let wrreq = prim_input_bool cp wrreq_n in
      let rdreq = prim_input_bool cp rdreq_n in
      let data = Bits.resize (prim_input cp data_n) f.f_width in
      let popped = rdreq && f.f_count > 0 in
      let pushed = wrreq && f.f_count < f.f_depth in
      if popped then (
        f.f_head <- (f.f_head + 1) mod f.f_depth;
        f.f_count <- f.f_count - 1);
      if pushed then (
        f.f_data.((f.f_head + f.f_count) mod f.f_depth) <- data;
        f.f_count <- f.f_count + 1)
  | Pram (cp, r) ->
      let addr = Bits.to_int_trunc (prim_input cp "address_a") in
      let wren = prim_input_bool cp "wren_a" in
      let data = prim_input cp "data_a" in
      let size = Array.length r.r_words in
      let k = if size = 0 then 0 else addr mod size in
      (* registered read of the old word, then write *)
      r.r_q <- r.r_words.(k);
      if wren then
        r.r_words.(k) <- Bits.resize data (Bits.width r.r_words.(k))

let drive_prim_outputs sim ps =
  match ps with
  | Pfifo (cp, f) -> drive_fifo_outputs sim cp f
  | Pram (cp, r) -> drive sim cp "q_a" r.r_q

(* ------------------------------------------------------------------ *)
(* Construction and stepping                                           *)
(* ------------------------------------------------------------------ *)

let rec stmt_has_display (s : Ast.stmt) =
  match s with
  | Ast.Display _ -> true
  | Ast.If (_, t, f) ->
      List.exists stmt_has_display t || List.exists stmt_has_display f
  | Ast.Case (_, items, default) ->
      List.exists (fun it -> List.exists stmt_has_display it.Ast.body) items
      || (match default with
         | Some body -> List.exists stmt_has_display body
         | None -> false)
  | Ast.Blocking _ | Ast.Nonblocking _ | Ast.Finish -> false

let compile_node tab = function
  | Aassign (l, e) ->
      let cl = Compiled.compile_lvalue tab l in
      Cassign (cl, Compiled.compile_expr tab e, Compiled.clvalue_width cl)
  | Ablock stmts -> Cblock (List.map (Compiled.compile_stmt tab) stmts)

(* Harnesses call the by-name accessors with the same string literals
   every cycle, so a few names cover nearly all lookups. *)
let name_slots = 8

let create ?(kernel = default_kernel) (flat : flat) : t =
  Telemetry.span "compile" @@ fun () ->
  let kernel = match kernel with Event_driven -> Lowered_dirty | k -> k in
  let tab = Compiled.of_flat flat in
  let env = Compiled.fresh_env flat in
  let node_list =
    List.map (fun (l, e) -> Aassign (l, e)) flat.f_assigns
    @ List.map (fun b -> Ablock b) flat.f_comb
  in
  let ast_nodes = Array.of_list (topo_sort node_list) in
  let nodes = Array.map (compile_node tab) ast_nodes in
  let n = Array.length nodes in
  let seq =
    List.map
      (fun (e, _clk, body) -> (e, List.map (Compiled.compile_stmt tab) body))
      flat.f_seq
  in
  let finished = ref false in
  let low =
    if kernel <> Lowered_dirty then None
    else begin
      (* sensitivity map on ids: every signal a node reads wakes that
         node *)
      let sens = Array.make (Array.length flat.f_signal_order) [] in
      Array.iteri
        (fun rank node ->
          List.iter
            (fun s ->
              match Hashtbl.find_opt flat.f_signal_ids s with
              | Some i -> sens.(i) <- rank :: sens.(i)
              | None -> ())
            (node_reads node))
        ast_nodes;
      let display_ranks =
        Array.to_list
          (Array.mapi
             (fun rank node ->
               match node with
               | Ablock stmts when List.exists stmt_has_display stmts ->
                   Some rank
               | _ -> None)
             ast_nodes)
        |> List.filter_map Fun.id
      in
      (* single-reader assign chains fuse into one closure: when node
         r-1 is a plain assign whose sole written signal feeds exactly
         one node and that node is r, the pair always runs back to back
         in the full sweep, so folding them is behavior-preserving and
         halves the plan-iteration overhead on long chains *)
      let fuse = Array.make (max n 1) false in
      for r = 1 to n - 1 do
        match ast_nodes.(r - 1) with
        | Aassign (l, _) -> (
            match Ast.lvalue_bases l with
            | [ s ] -> (
                match Hashtbl.find_opt flat.f_signal_ids s with
                | Some i -> if sens.(i) = [ r ] then fuse.(r) <- true
                | None -> ())
            | _ -> ())
        | Ablock _ -> ()
      done;
      let lnodes =
        Array.map
          (function
            | Cassign (l, e, cw) -> Lowered.Lassign (l, e, cw)
            | Cblock ss -> Lowered.Lblock ss)
          nodes
      in
      Some
        (Lowered.create ~tab ~env ~finished ~nodes:lnodes ~fuse ~sens
           ~display_ranks ~seq)
    end
  in
  let input_closure ce =
    match low with
    | Some lw -> Lowered.input_fn lw ce
    | None -> fun () -> Compiled.eval env ce
  in
  let prims =
    List.map
      (fun (p : fprim) ->
        let cp =
          {
            cp_src = p;
            cp_inputs =
              List.map
                (fun (f, e) -> (f, input_closure (Compiled.compile_expr tab e)))
                p.fp_inputs;
            cp_outputs =
              List.map (fun (f, s) -> (f, Compiled.id tab s)) p.fp_outputs;
          }
        in
        make_prim_state cp)
      flat.f_prims
  in
  let stats =
    (* structured tracing samples its counter series off [istats], so a
       trace-only run (telemetry switch off) still carries them; every
       per-cycle recording inside remains gated on its own switch *)
    if Telemetry.enabled () || Telemetry.Trace.enabled () then
      Some
        {
          s_steps = 0;
          s_settles = 0;
          s_node_rounds = 0;
          s_nodes_evaluated = 0;
          s_dirty_total = 0;
          s_dirty_peak = 0;
          s_nba_commits = 0;
          s_prim_steps = 0;
          s_displays = 0;
          s_toggles = Array.make (Array.length flat.f_signal_order) 0;
          s_settle_hist = Telemetry.Histogram.make "settle.nodes_evaluated";
          s_cycles_in_window = 0;
          s_evaluated_mark = 0;
        }
    else None
  in
  (* the lowered kernel holds its own copy of the callback, so toggle
     counts match across kernels *)
  let notify =
    match stats with
    | None -> ignore
    | Some st -> fun i -> st.s_toggles.(i) <- st.s_toggles.(i) + 1
  in
  Option.iter (fun lw -> Lowered.set_notify lw notify) low;
  let sim =
    { flat; tab; env; kernel; nodes; notify; seq;
      has_negedge =
        List.exists (fun (e, _, _) -> e = Elaborate.Neg) flat.f_seq;
      prims; low;
      cycle = 0; finished; log = []; log_len = 0;
      log_memo = (0, []); display_hook = None; stats;
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

let exec_node ctx node =
  match node with
  | Cassign (l, e, cw) ->
      let v = Compiled.eval_ctx ctx.sim.env ~ctx:cw e in
      Compiled.write_notify ctx.sim.env ~notify:ctx.sim.notify l v
  | Cblock stmts -> List.iter (exec_stmt ctx) stmts

(* Full-sweep settle statistics for the brute-force kernel: every node
   counts as considered, evaluated, and dirty. *)
let full_sweep_stats sim =
  match sim.stats with
  | None -> ()
  | Some st ->
      let n = Array.length sim.nodes in
      st.s_settles <- st.s_settles + 1;
      st.s_node_rounds <- st.s_node_rounds + n;
      st.s_nodes_evaluated <- st.s_nodes_evaluated + n;
      st.s_dirty_total <- st.s_dirty_total + n;
      if n > st.s_dirty_peak then st.s_dirty_peak <- n;
      Telemetry.Histogram.observe st.s_settle_hist n

let settle ?(displays = false) (sim : t) =
  match sim.low with
  | Some low -> (
      match sim.stats with
      | None -> ignore (Lowered.settle low ~displays)
      | Some st ->
          (* the lowered kernel counts in fused closures, not nodes: that
             is the unit the plan actually iterates, so evaluated/rounds
             is an honest skip rate. Dirty size is read at settle entry
             (display forcing happens inside). *)
          let n = Lowered.plan_size low in
          let pre = Lowered.dirty_count low in
          let ev = Lowered.settle low ~displays in
          st.s_settles <- st.s_settles + 1;
          st.s_node_rounds <- st.s_node_rounds + n;
          st.s_nodes_evaluated <- st.s_nodes_evaluated + ev;
          st.s_dirty_total <- st.s_dirty_total + pre;
          if pre > st.s_dirty_peak then st.s_dirty_peak <- pre;
          Telemetry.Histogram.observe st.s_settle_hist ev)
  | None ->
      full_sweep_stats sim;
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

(* Run the sequential blocks firing on one clock edge and commit their
   non-blocking writes. *)
let edge_phase (sim : t) (edge : Elaborate.clock_edge) ~with_prims =
  match sim.low with
  | Some low ->
      Lowered.run_edge low edge;
      if with_prims then List.iter step_prim sim.prims;
      (match sim.stats with
      | None -> ()
      | Some st ->
          st.s_nba_commits <- st.s_nba_commits + Lowered.pending_count low;
          if with_prims then
            st.s_prim_steps <- st.s_prim_steps + List.length sim.prims);
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
      (match sim.stats with
      | None -> ()
      | Some st ->
          st.s_nba_commits <- st.s_nba_commits + List.length ctx.pending;
          if with_prims then
            st.s_prim_steps <- st.s_prim_steps + List.length sim.prims);
      List.iter
        (Compiled.apply_write_notify sim.env ~notify:sim.notify)
        (List.rev ctx.pending);
      if with_prims then List.iter (drive_prim_outputs sim) sim.prims

let dense_mode sim =
  match sim.low with Some low -> Lowered.dense low | None -> false

(* The trace counter series are sampled once per this many cycles, not
   every cycle, so tracing a long run stays cheap. *)
let sample_every = 32

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
    match sim.stats with
    | Some st ->
        st.s_steps <- st.s_steps + 1;
        st.s_cycles_in_window <- st.s_cycles_in_window + 1;
        if st.s_cycles_in_window >= sample_every then (
          let delta = st.s_nodes_evaluated - st.s_evaluated_mark in
          st.s_cycles_in_window <- 0;
          st.s_evaluated_mark <- st.s_nodes_evaluated;
          if Telemetry.Trace.enabled () then (
            Telemetry.Trace.counter "sim.dirty"
              (match sim.low with
              | Some low -> Lowered.dirty_count low
              | None -> Array.length sim.nodes);
            Telemetry.Trace.counter "sim.evaluated" delta;
            Telemetry.Trace.counter "sim.dense" (if dense_mode sim then 1 else 0)))
    | None -> ())

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
let lowering_stats sim = Option.map Lowered.stats sim.low
let on_display sim f = sim.display_hook <- Some f

(* ------------------------------------------------------------------ *)
(* Telemetry read-back                                                 *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_steps : int;
  st_settles : int;
  st_node_rounds : int;
  st_nodes_evaluated : int;
  st_nodes_skipped : int;
  st_dirty_total : int;
  st_dirty_peak : int;
  st_nba_commits : int;
  st_prim_steps : int;
  st_displays : int;
  st_settle_hist : Telemetry.Histogram.snapshot;
}

let stats sim =
  Option.map
    (fun st ->
      {
        st_steps = st.s_steps;
        st_settles = st.s_settles;
        st_node_rounds = st.s_node_rounds;
        st_nodes_evaluated = st.s_nodes_evaluated;
        st_nodes_skipped = st.s_node_rounds - st.s_nodes_evaluated;
        st_dirty_total = st.s_dirty_total;
        st_dirty_peak = st.s_dirty_peak;
        st_nba_commits = st.s_nba_commits;
        st_prim_steps = st.s_prim_steps;
        st_displays = st.s_displays;
        st_settle_hist = Telemetry.Histogram.snapshot st.s_settle_hist;
      })
    sim.stats

let lowered_run_stats sim = Option.map Lowered.run_stats sim.low

let kernel_efficiency sim =
  match sim.stats with
  | Some st when st.s_node_rounds > 0 ->
      Some (float_of_int st.s_nodes_evaluated /. float_of_int st.s_node_rounds)
  | _ -> None

let toggle_counts sim =
  match sim.stats with
  | None -> []
  | Some st ->
      Array.to_list
        (Array.mapi (fun i n -> (sim.flat.f_signal_order.(i), n)) st.s_toggles)

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
      Eval.Vec
        (match sim.low with Some low -> Lowered.read_vec low i | None -> b)
  | Compiled.Mem a -> Eval.Mem (Array.copy a)

(* Raw restore of one signal, routed into whichever value bank is
   live; no change detection (the caller re-marks everything). *)
let restore_sig sim i v =
  match v with
  | Eval.Vec b -> (
      match sim.low with
      | Some low -> Lowered.set_vec_raw low i b
      | None -> sim.env.(i) <- Compiled.Vec b)
  | Eval.Mem a -> sim.env.(i) <- Compiled.Mem (Array.copy a)

(* A deep snapshot of the architectural state — environment, primitive
   contents, cycle count, and log — name-keyed into the versioned
   [Checkpoint] wire format and bound to the design by its structural
   hash. Restoring a checkpoint and stepping produces the same trace as
   the original run: the replay property checkpoint-based FPGA debuggers
   (DESSERT, StateMover) rely on. The dirty set, adaptive mode, and NBA
   queue are derived or empty at cycle boundaries, so a restored
   simulator re-derives them. *)

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
        | Pfifo (cp, f) ->
            Checkpoint.Cfifo
              {
                cf_name = cp.cp_src.fp_name;
                cf_width = f.f_width;
                cf_data = Array.copy f.f_data;
                cf_head = f.f_head;
                cf_count = f.f_count;
              }
        | Pram (cp, r) ->
            Checkpoint.Cram
              {
                cr_name = cp.cp_src.fp_name;
                cr_width = Bits.width r.r_q;
                cr_q = r.r_q;
                cr_words = Array.copy r.r_words;
              })
      sim.prims
  in
  {
    Checkpoint.ck_design = Checkpoint.design_hash sim.flat;
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
  let here = Checkpoint.design_hash sim.flat in
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
          | Compiled.Vec old, Eval.Vec b ->
              if Bits.width b <> Bits.width old then
                ck_fail "checkpoint signal %s has width %d, design has %d" name
                  (Bits.width b) (Bits.width old)
              else restore_sig sim i v
          | Compiled.Mem old, Eval.Mem a ->
              if Array.length a <> Array.length old then
                ck_fail "checkpoint memory %s has %d words, design has %d" name
                  (Array.length a) (Array.length old)
              else sim.env.(i) <- Compiled.Mem (Array.copy a)
          | Compiled.Vec _, Eval.Mem _ | Compiled.Mem _, Eval.Vec _ ->
              ck_fail "checkpoint signal %s has the wrong shape" name))
    ck.Checkpoint.ck_values;
  List.iter
    (fun ckp ->
      let find name =
        List.find_opt
          (fun ps ->
            match ps with
            | Pfifo (cp, _) | Pram (cp, _) -> cp.cp_src.fp_name = name)
          sim.prims
      in
      match ckp with
      | Checkpoint.Cfifo { cf_name; cf_data; cf_head; cf_count; _ } -> (
          match find cf_name with
          | Some (Pfifo (_, st)) when Array.length cf_data = st.f_depth ->
              Array.blit cf_data 0 st.f_data 0 st.f_depth;
              st.f_head <- cf_head;
              st.f_count <- cf_count
          | _ -> ck_fail "checkpoint FIFO %s does not match the design" cf_name)
      | Checkpoint.Cram { cr_name; cr_q; cr_words; _ } -> (
          match find cr_name with
          | Some (Pram (_, st))
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
  Option.iter Lowered.mark_all sim.low;
  (* primitive outputs must reflect the restored contents before the
     next settle, exactly as [create] does for the initial state *)
  List.iter (drive_prim_outputs sim) sim.prims
