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
   display-enabled settles so logs stay identical too. The sequential
   blocks are split here into statement groups with a sensitivity map
   of their own, and [Lowered] skips a group whose inputs and targets
   did not change since it last ran. *)

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

(* AST-level node, used only for dependency analysis (reads/writes are
   name sets); both kernels execute the compiled [Lowered.node] form. *)
type ast_node = Aassign of Ast.lvalue * Ast.expr | Ablock of Ast.stmt list

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
  nodes : Lowered.node array;  (* topological order: writers before readers *)
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

let node_reads = function
  | Aassign (l, e) -> Ast.dedup (Ast.expr_reads e @ Ast.lvalue_reads l)
  | Ablock stmts -> Ast.dedup (List.concat_map Ast.stmt_reads stmts)

let node_writes = function
  | Aassign (l, _) -> Ast.lvalue_bases l
  | Ablock stmts -> Ast.dedup (List.concat_map Ast.stmt_writes stmts)

(* A topological order of the nodes whose read and write sets are
   [reads] and [writes], as node indices: every writer before all of its
   readers. *)
let topo_sort ~(reads : string list array) ~(writes : string list array) :
    int array =
  let n = Array.length reads in
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
  Array.of_list !order

(* ------------------------------------------------------------------ *)
(* Sequential statement groups                                         *)
(* ------------------------------------------------------------------ *)

(* Every id an expression reads goes to [f]: signals, the memory of a
   word read, and whatever index expressions read. These walks recurse
   by hand, with no closure per list: a fuzz run compiles a plan per
   mutant. *)
let rec expr_ids f (e : Compiled.cexpr) =
  match e with
  | Compiled.Cconst _ -> ()
  | Compiled.Cvar i | Compiled.Crange (i, _, _) -> f i
  | Compiled.Cbit (i, _, ix) | Compiled.Cword (i, _, _, ix) ->
      f i;
      expr_ids f ix
  | Compiled.Cunop (_, a) | Compiled.Crepeat (_, a) -> expr_ids f a
  | Compiled.Cbinop (_, a, b) ->
      expr_ids f a;
      expr_ids f b
  | Compiled.Ccond (c, a, b) ->
      expr_ids f c;
      expr_ids f a;
      expr_ids f b
  | Compiled.Cconcat es -> exprs_ids f es

and exprs_ids f = function
  | [] -> ()
  | e :: tl ->
      expr_ids f e;
      exprs_ids f tl

(* The target of an lvalue, a signal or a whole memory, goes to [f]; with
   [~reads:true], so do the ids its index expressions read. *)
let rec lvalue_ids ~reads f (l : Compiled.clvalue) =
  match l with
  | Compiled.CLvar (i, _) | Compiled.CLrange (i, _, _) -> f i
  | Compiled.CLbit (i, _, ix) | Compiled.CLword (i, _, _, ix) ->
      f i;
      if reads then expr_ids f ix
  | Compiled.CLconcat (parts, _) -> parts_ids ~reads f parts

and parts_ids ~reads f = function
  | [] -> ()
  | (l, _) :: tl ->
      lvalue_ids ~reads f l;
      parts_ids ~reads f tl

(* Every target a statement writes goes to [f], at any depth; with
   [~reads:true], so does every id it reads (conditions, case labels,
   index expressions, right-hand sides, display arguments). *)
let rec stmt_ids ~reads f (s : Compiled.cstmt) =
  match s with
  | Compiled.CSblocking (l, e, _) | Compiled.CSnonblocking (l, e, _) ->
      lvalue_ids ~reads f l;
      if reads then expr_ids f e
  | Compiled.CSif (c, a, b) ->
      if reads then expr_ids f c;
      stmts_ids ~reads f a;
      stmts_ids ~reads f b
  | Compiled.CScase (e, items, default) -> (
      if reads then expr_ids f e;
      items_ids ~reads f items;
      match default with Some body -> stmts_ids ~reads f body | None -> ())
  | Compiled.CSdisplay (_, args) -> if reads then exprs_ids f args
  | Compiled.CSfinish -> ()

and stmts_ids ~reads f = function
  | [] -> ()
  | s :: tl ->
      stmt_ids ~reads f s;
      stmts_ids ~reads f tl

and items_ids ~reads f = function
  | [] -> ()
  | (labels, body) :: tl ->
      if reads then exprs_ids f labels;
      stmts_ids ~reads f body;
      items_ids ~reads f tl

(* What a statement holds at any depth, as bits: [has_blocking],
   [has_display], [has_finish]. *)
let has_blocking = 1
let has_display = 2
let has_finish = 4

let rec stmt_kinds acc (s : Compiled.cstmt) =
  match s with
  | Compiled.CSblocking _ -> acc lor has_blocking
  | Compiled.CSnonblocking _ -> acc
  | Compiled.CSdisplay _ -> acc lor has_display
  | Compiled.CSfinish -> acc lor has_finish
  | Compiled.CSif (_, a, b) -> stmts_kinds (stmts_kinds acc a) b
  | Compiled.CScase (_, items, default) -> (
      let acc = items_kinds acc items in
      match default with Some body -> stmts_kinds acc body | None -> acc)

and stmts_kinds acc = function [] -> acc | s :: tl -> stmts_kinds (stmt_kinds acc s) tl

and items_kinds acc = function
  | [] -> acc
  | (_, body) :: tl -> items_kinds (stmts_kinds acc body) tl

(* Every sequential block's statement groups, and the map from signal id
   to the flags of the groups sensitive to it (DESIGN.md, "Sequential
   activity skipping").

   A block with a blocking assignment (later statements read what
   earlier ones wrote) or a $finish (nothing after it may run) is one
   group. Otherwise every top-level statement starts as its own group,
   and statements that write a common target are merged, so a target's
   writes keep their order and the last still wins. The statements
   holding a $display are merged too: such a group runs on every edge,
   and one per block keeps the displays in program order. A block's
   groups run in order of their first statement; groups of non-blocking
   writes to disjoint targets may interleave, as none reads what another
   queues.

   A group runs on every edge, with no flag, when it holds a $display
   or $finish, or when it writes a target that another block also
   writes on the same edge: a skipped group would leave the other
   block's write standing where its own should win. Any other group is
   sensitive to everything it reads or writes, so a foreign write to
   one of its targets (an input poke, a primitive drive, a comb
   overwrite, a write on the other edge) wakes it too. *)
let seq_groups n_signals (seq : (clock_edge * Compiled.cstmt list) list) =
  (* one scratch slot per id, reset between the three passes below *)
  let stamp = Array.make n_signals (-1) in
  (* pass 1: [contested.(w)] has bit 1 (posedge) or 2 (negedge) when
     two blocks firing on that edge write [w]; [stamp] holds the first
     writing block *)
  let contested = Array.make n_signals 0 and any_contested = ref false in
  List.iter
    (fun (edge, bit) ->
      if List.fold_left (fun n (e, _) -> if e = edge then n + 1 else n) 0 seq > 1 then (
        Array.fill stamp 0 n_signals (-1);
        List.iteri
          (fun b (e, body) ->
            if e = edge then
              stmts_ids ~reads:false
                (fun w ->
                  if stamp.(w) < 0 then stamp.(w) <- b
                  else if stamp.(w) <> b then (
                    contested.(w) <- contested.(w) lor bit;
                    any_contested := true))
                body)
          seq))
    [ (Pos, 1); (Neg, 2) ];
  (* pass 2: [stamp] holds the first statement writing an id, numbered
     across all blocks; a block's statements are numbered from [base] *)
  Array.fill stamp 0 n_signals (-1);
  let base = ref 0 in
  let split stmts =
    let a = Array.of_list stmts in
    let n = Array.length a in
    let b0 = !base in
    base := b0 + n;
    let kinds = Array.map (stmt_kinds 0) a in
    let all = Array.fold_left ( lor ) 0 kinds in
    if n <= 1 || all land (has_blocking lor has_finish) <> 0 then [ (stmts, all) ]
    else
      (* union-find whose root is the class's first statement *)
      let parent = Array.init n Fun.id in
      let rec find k = if parent.(k) = k then k else find parent.(k) in
      let union j k =
        let rj = find j and rk = find k in
        if rj < rk then parent.(rk) <- rj else if rk < rj then parent.(rj) <- rk
      in
      let display = ref (-1) in
      Array.iteri
        (fun k s ->
          stmt_ids ~reads:false
            (fun w -> if stamp.(w) >= b0 then union (stamp.(w) - b0) k else stamp.(w) <- b0 + k)
            s;
          if kinds.(k) land has_display <> 0 then
            if !display < 0 then display := k else union !display k)
        a;
      (* each class's statements and kinds gather at its root; the
         roots, in order, are the groups *)
      let members = Array.make n [] and mkinds = Array.make n 0 in
      for k = n - 1 downto 0 do
        let r = find k in
        members.(r) <- a.(k) :: members.(r);
        mkinds.(r) <- mkinds.(r) lor kinds.(k)
      done;
      let groups = ref [] in
      for k = n - 1 downto 0 do
        if parent.(k) = k then groups := (members.(k), mkinds.(k)) :: !groups
      done;
      !groups
  in
  let split_blocks = List.map (fun (edge, body) -> (edge, split body)) seq in
  (* pass 3: [stamp] holds the last group added to an id's list *)
  Array.fill stamp 0 n_signals (-1);
  let sens = Array.make n_signals [] in
  let next = ref 0 in
  let group edge (stmts, kinds) =
    let bit = if edge = Pos then 1 else 2 in
    let shared = ref false in
    if !any_contested then
      stmts_ids ~reads:false (fun w -> if contested.(w) land bit <> 0 then shared := true) stmts;
    if !shared || kinds land (has_display lor has_finish) <> 0 then
      { Lowered.g_stmts = stmts; g_flag = -1 }
    else
      let g = !next in
      incr next;
      stmts_ids ~reads:true
        (fun i ->
          if stamp.(i) <> g then (
            stamp.(i) <- g;
            sens.(i) <- g :: sens.(i)))
        stmts;
      { Lowered.g_stmts = stmts; g_flag = g }
  in
  (List.map (fun (edge, groups) -> (edge, List.map (group edge) groups)) split_blocks, sens)

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

let compile_node tab = function
  | Aassign (l, e) ->
      let cl = Compiled.compile_lvalue tab l in
      Lowered.Lassign (cl, Compiled.compile_expr tab e, Compiled.clvalue_width cl)
  | Ablock stmts -> Lowered.Lblock (List.map (Compiled.compile_stmt tab) stmts)

(* The immutable half of construction: everything [create] derives
   from the flat alone. No instance ever writes into a plan, so every
   instance of one flat, under either kernel and with or without stats,
   can be built from the same one. *)
type plan = {
  p_flat : flat;
  p_tab : Compiled.tab;
  p_nodes : Lowered.node array;  (* topological order *)
  p_seq : (Elaborate.clock_edge * Compiled.cstmt list) list;
  p_seq_pos : Lowered.seq_edge;  (* statement groups, for lowered-dirty *)
  p_seq_neg : Lowered.seq_edge;
  p_seq_sens : int list array;  (* signal id -> flags of the groups touching it *)
  p_has_negedge : bool;  (* any negedge block: [step] runs the falling edge *)
  p_sens : int list array;  (* signal id -> ranks of the nodes reading it *)
  p_fuse : bool array;  (* rank r folds into rank r-1's closure *)
  p_display_ranks : int list;  (* ranks of the blocks holding a $display *)
  p_prims : prim_plan list;
}

let compile_plan (flat : flat) : plan =
  let tab = Compiled.of_flat flat in
  let all =
    Array.of_list
      (List.map (fun (l, e) -> Aassign (l, e)) flat.f_assigns
      @ List.map (fun b -> Ablock b) flat.f_comb)
  in
  let reads = Array.map node_reads all in
  let order = topo_sort ~reads ~writes:(Array.map node_writes all) in
  let ast_nodes = Array.map (fun i -> all.(i)) order in
  let nodes = Array.map (compile_node tab) ast_nodes in
  let n = Array.length nodes in
  let seq =
    List.map
      (fun (e, _clk, body) -> (e, List.map (Compiled.compile_stmt tab) body))
      flat.f_seq
  in
  let seq_groups, seq_sens = seq_groups (Array.length flat.f_signal_order) seq in
  (* sensitivity map on ids: every signal a node reads wakes that node *)
  let sens = Array.make (Array.length flat.f_signal_order) [] in
  Array.iteri
    (fun rank i ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt flat.f_signal_ids s with
          | Some id -> sens.(id) <- rank :: sens.(id)
          | None -> ())
        reads.(i))
    order;
  let display_ranks =
    Array.to_list
      (Array.mapi
         (fun rank node ->
           match node with
           | Lowered.Lblock stmts when stmts_kinds 0 stmts land has_display <> 0 ->
               Some rank
           | _ -> None)
         nodes)
    |> List.filter_map Fun.id
  in
  (* single-reader assign chains fuse into one closure: when node r-1 is
     a plain assign whose sole written signal feeds exactly one node and
     that node is r, the pair always runs back to back in the full
     sweep, so folding them is behavior-preserving and halves the
     plan-iteration overhead on long chains *)
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
  { p_flat = flat; p_tab = tab; p_nodes = nodes; p_seq = seq;
    p_seq_pos = Lowered.seq_edge seq_groups Pos;
    p_seq_neg = Lowered.seq_edge seq_groups Neg; p_seq_sens = seq_sens;
    p_has_negedge = List.exists (fun (e, _, _) -> e = Elaborate.Neg) flat.f_seq;
    p_sens = sens; p_fuse = fuse; p_display_ranks = display_ranks;
    p_prims = prims }

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
  let low =
    if kernel <> Lowered_dirty then None
    else
      Some
        (Lowered.create ~tab:plan.p_tab ~env ~finished ~nodes:plan.p_nodes
           ~fuse:plan.p_fuse ~sens:plan.p_sens
           ~display_ranks:plan.p_display_ranks ~seq_pos:plan.p_seq_pos
           ~seq_neg:plan.p_seq_neg ~seq_sens:plan.p_seq_sens ~runs)
  in
  let reader =
    match low with
    | Some lw -> Lowered.input_fn lw
    | None -> fun ce () -> Compiled.eval env ce
  in
  let prims = List.map (make_prim_state reader) plan.p_prims in
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
  Option.iter (fun lw -> Lowered.set_notify lw notify) low;
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
   primitive contents are in place: the lowered scheduler back to the
   sparse worklist with every closure pending, as [create] leaves it,
   and the primitive outputs driven from the contents before the next
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
  | Lowered.Lassign (l, e, cw) ->
      let v = Compiled.eval_ctx ctx.sim.env ~ctx:cw e in
      Compiled.write_notify ctx.sim.env ~notify:ctx.sim.notify l v
  | Lowered.Lblock stmts -> List.iter (exec_stmt ctx) stmts

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

let dense_mode sim =
  match sim.low with Some low -> Lowered.dense low | None -> false

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
    Telemetry.Trace.counter "sim.evaluated" delta;
    Telemetry.Trace.counter "sim.dense" (if dense_mode sim then 1 else 0))

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
   (DESSERT, StateMover) rely on. The dirty set, adaptive mode, and NBA
   queue are derived or empty at cycle boundaries, so a restored
   simulator re-derives them. *)

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
