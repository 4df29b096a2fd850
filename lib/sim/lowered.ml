(* Lowered closure-array settle kernel.

   [Compiled] removed name resolution from the hot path but still walks
   an ADT tree per node evaluation: every expression node is a
   constructor dispatch, every intermediate value a heap-allocated
   [Bits.t]. This module lowers one level further, at simulator
   construction: each combinational node becomes a single fused
   [unit -> unit] closure with all dispatch decided at compile time
   (width classes, index power-of-two-ness, operand representations),
   and every signal narrow enough for a native int — width <= 63 —
   lives unboxed in a dense [int array] bank, masked on write. The
   limb-based [Bits] path remains for wide vectors and memories, and as
   the fallback on mixed-width operations.

   Three shapes skip even that path's per-part vectors and per-operator
   closures. A wide concat (total > 63 bits) builds one fresh vector
   per evaluation with [Bits.pack], from runs of adjacent immediate
   parts (at most 63 bits each, laid out at compile time) and blits of
   its wide parts. A comparison between an immediate signal and an
   immediate signal or a constant that fits 63 bits is one closure over
   [ints]. [&&]/[||] over two width-1 immediates is one closure over
   the raw 0/1 patterns.

   A settle runs only the closures whose inputs changed: per-closure
   dirty bits are fed from a closure-level sensitivity index, with an
   adaptive sparse/dense hysteresis so fully-active plans sweep without
   flag traffic.

   The sequential phase skips the same way, by statement group (the
   groups and their sensitivity map come from [Simulator.compile_plan]):
   an edge runs a group only if something it reads or writes changed
   since it last ran, or if it has no flag ($display, $finish, a target
   another block writes on the same edge). Every notify path sets the
   flags of the groups sensitive to the changed signal. A skipped
   group would only have queued writes that change nothing.

   Semantics are bit-identical to [Compiled.eval_ctx] /
   [Simulator.exec_stmt]: the same Verilog context-width rules, the
   same out-of-range index semantics ([Compiled.resolve_index]), the same
   non-blocking commit ordering (including dropped writes, which still
   count toward commit statistics as far as the groups that ran queued
   them), the same display gating, and the
   same change-detection points so per-signal toggle counts match the
   other kernels exactly. Conditional/logical operators are compiled to
   short-circuit form; expression evaluation is pure, so this is
   unobservable.

   The reference evaluator stays the oracle: the differential tests in
   test_sim.ml hold this kernel byte-identical to the brute-force
   kernel on every testbed design. *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Imm = Fpga_bits.Bits.Imm

(* Lowering statistics, surfaced through [Simulator.lowering_stats] and
   the bench "lowering" section. *)
type stats = {
  lw_nodes : int;  (* comb nodes lowered *)
  lw_closures : int;  (* plan closures after fusion *)
  lw_fused : int;  (* nodes folded into a predecessor *)
  lw_imm : int;  (* signals in the immediate int bank *)
  lw_boxed : int;  (* signals kept in limb form (wide vecs + mems) *)
  lw_seq : int;  (* sequential always-blocks lowered to closures *)
}

(* A simulator's run counters, kept by both kernels and maintained
   unconditionally (a handful of int stores per settle/commit, never per
   node). [Simulator] owns the record and hands it to [create]; the
   brute-force sweep counts each node as a closure run. *)
type run_stats = {
  mutable rs_steps : int;  (* clock cycles stepped *)
  mutable rs_settles : int;
  mutable rs_closures_run : int;
  mutable rs_closures_skipped : int;  (* skipped by dirty scheduling *)
  mutable rs_run_min : int;  (* fewest closures one settle ran *)
  mutable rs_run_max : int;  (* most closures one settle ran *)
  mutable rs_dirty_total : int;  (* closures pending at settle entry, summed *)
  mutable rs_dirty_peak : int;
  mutable rs_edges : int;  (* sequential block invocations *)
  mutable rs_seq_run : int;  (* statement groups run *)
  mutable rs_seq_skipped : int;  (* statement groups skipped as clean *)
  mutable rs_commit_imm : int;  (* flat-buffer (unboxed) NBA commits *)
  mutable rs_commit_boxed : int;  (* boxed NBA commits, drops included *)
  mutable rs_displays : int;  (* $display statements fired *)
}

(* A statement group of one sequential block, as [Simulator.compile_plan]
   splits it: statements in program order, and the index of the group's
   dirty flag, or -1 for a group that runs on every edge. *)
type seq_group = { g_stmts : Compiled.cstmt list; g_flag : int }

(* The groups firing on one clock edge, block by block in source order,
   each block's groups in order of their first statement: laid out once
   per plan by [seq_edge] and shared by every instance. *)
type seq_edge = {
  se_groups : seq_group array;
  se_flag : int array;  (* [g_flag] of each group *)
  se_flagged : int;  (* groups with a flag *)
  se_blocks : int;  (* blocks firing on this edge *)
}

let seq_edge seq edge =
  let blocks = List.filter (fun (e, _) -> e = edge) seq in
  let groups = Array.of_list (List.concat_map snd blocks) in
  let flag = Array.map (fun g -> g.g_flag) groups in
  {
    se_groups = groups;
    se_flag = flag;
    se_flagged = Array.fold_left (fun n g -> if g >= 0 then n + 1 else n) 0 flag;
    se_blocks = List.length blocks;
  }

(* One edge's groups lowered for an instance. *)
type edge_plan = { e_run : (unit -> unit) array; e_seq : seq_edge }

(* A deferred non-blocking write. Immediate targets defer as masked int
   stores; everything else falls back to the resolved [Compiled.cwrite]
   form (memories, wide vectors, dropped writes). *)
type pend =
  | Pimm of int * int  (* id, full new pattern *)
  | Pmask of int * int * int  (* id, insert mask, pre-shifted pattern *)
  | Pboxed of Compiled.cwrite

(* Dirty-set execution mode: [Lsparse] walks only dirty closures,
   [Ldense] is the full sweep (no flag traffic) while nearly every
   closure fires anyway, with change counting to detect when activity
   drops. Transitions depend only on evaluation and change counts, so
   instrumented and uninstrumented runs take identical trajectories. *)
type lmode = Lsparse | Ldense

type t = {
  env : Compiled.env;  (* boxed bank: wide vecs + all memories *)
  ints : int array;  (* immediate bank, indexed by signal id *)
  imm : bool array;  (* which ids live in the immediate bank *)
  widths : int array;
  finished : bool ref;  (* shared with the simulator's $finish flag *)
  mutable notify : int -> unit;  (* composed: dirty marking + external *)
  mutable ext_notify : int -> unit;  (* simulator's callback (toggles) *)
  (* flat NBA commit buffer: (id, insert mask, pre-shifted pattern)
     int triples for immediate targets — no allocation per deferred
     write; boxed/memory/dropped writes overflow into [pboxed] *)
  mutable pb : int array;
  mutable pb_len : int;  (* ints used (always a multiple of 3) *)
  mutable pboxed : Compiled.cwrite list;  (* reversed *)
  mutable displays : bool;  (* comb $display gate for this settle *)
  mutable emit : string -> unit;
  mutable plan : (unit -> unit) array;  (* fused comb closures, topo order *)
  mutable seq_pos : edge_plan;
  mutable seq_neg : edge_plan;
  (* sequential dirty flags, one per skippable group, and the plan's
     signal id -> flags map (shared, never written) *)
  mutable gdirty : bool array;
  mutable gsens : int list array;
  (* the external callback plus group marking: what [notify] wraps in
     every mode, and all of it outside dense sweeps *)
  mutable seq_notify : int -> unit;
  (* the sequential side's own sparse/dense hysteresis: while nearly
     every flagged group runs on every edge, all groups run and nothing
     marks them *)
  mutable sdense : bool;
  mutable sstreak : int;
  mutable scommit_changes : int;  (* immediate changes the last commit made *)
  (* dirty-set state, sized once the plan is fused *)
  mutable csens : int list array;  (* signal id -> reading closure indices *)
  mutable cdirty : bool array;  (* per-closure pending flag *)
  mutable ncdirty : int;
  mutable disp_closures : int list;  (* closures containing $display *)
  mutable lmode : lmode;
  mutable lmode_streak : int;  (* consecutive settles meeting the test *)
  mutable lchanges : int;  (* value changes during a dense sweep *)
  (* change-counting notify installed only for the duration of a dense
     sweep; outside sweeps dense mode uses the bare external notify so
     sequential commits pay nothing for the mode machinery *)
  mutable dense_mark : int -> unit;
  mutable stats : stats;
  runs : run_stats;
}

(* Comb node in compiled form, as handed over by [Simulator.create]. *)
type node =
  | Lassign of Compiled.clvalue * Compiled.cexpr * int  (* ctx width *)
  | Lblock of Compiled.cstmt list

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                  *)
(* ------------------------------------------------------------------ *)

(* A lowered expression: a closure tagged with its static width and
   representation. [Eint] raw patterns are always masked to the width
   ([p land Imm.mask w = p]); width-63 patterns may be negative ints. *)
type ex = Eint of int * (unit -> int) | Ebits of int * (unit -> Bits.t)

let ex_width = function Eint (w, _) -> w | Ebits (w, _) -> w

(* Only legal when the expression's width fits an immediate. *)
let int_fn = function
  | Eint (_, f) -> f
  | Ebits (w, f) ->
      assert (Imm.fits w);
      fun () -> Imm.of_bits (f ())

let bits_fn = function
  | Ebits (_, f) -> f
  | Eint (w, f) -> fun () -> Imm.to_bits ~width:w (f ())

(* Verilog truthiness: reduction-or. *)
let truthy = function
  | Eint (_, f) -> fun () -> f () <> 0
  | Ebits (_, f) -> fun () -> Bits.reduce_or (f ())

(* An index value, truncated exactly like [Bits.to_int_trunc] (low 62
   bits): a width-63 immediate can carry bit 62, so it is masked. *)
let index_fn = function
  | Eint (w, f) -> if w < Imm.max_width then f else fun () -> Imm.to_int_trunc (f ())
  | Ebits (_, f) -> fun () -> Bits.to_int_trunc (f ())

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* [Compiled.resolve_index] with the power-of-two test precomputed; [idx]
   is non-negative by construction (truncated), [-1] means dropped. *)
let resolve ~size ~pow2 idx =
  if idx < size then idx else if pow2 then idx land (size - 1) else -1

(* Zero-extend to the context width — the [widen] of
   [Compiled.eval_ctx]. Extending an immediate within the int range is
   the identity on the raw pattern. *)
let widen ~ctx (e : ex) : ex =
  match e with
  | Eint (w, f) ->
      if ctx <= w then e
      else if Imm.fits ctx then Eint (ctx, f)
      else Ebits (ctx, fun () -> Imm.to_bits ~width:ctx (f ()))
  | Ebits (w, f) ->
      if ctx <= w then e else Ebits (ctx, fun () -> Bits.resize (f ()) ctx)

(* Resize to an exact width (truncate or zero-extend), converting
   representation as needed. Truncating a wide value to an immediate
   width must resize in limb form first: [Imm.of_bits] is only defined
   on vectors that already fit an int. *)
let resize_ex w (e : ex) : ex =
  match e with
  | Eint (we, f) ->
      if we = w then e
      else if Imm.fits w then
        if w >= we then Eint (w, f)
        else
          let m = Imm.mask w in
          Eint (w, fun () -> f () land m)
      else Ebits (w, fun () -> Imm.to_bits ~width:w (f ()))
  | Ebits (we, f) ->
      if we = w then e
      else if not (Imm.fits w) then Ebits (w, fun () -> Bits.resize (f ()) w)
      else if Imm.fits we then
        let m = Imm.mask w in
        Eint (w, fun () -> Imm.of_bits (f ()) land m)
      else Eint (w, fun () -> Imm.of_bits (Bits.resize (f ()) w))

let bool_ex f = Eint (1, fun () -> if f () then 1 else 0)

(* Shift-or fold of the immediate parts [p0 :: rest], MSB first: the raw
   pattern of their concatenation, whose total width must fit an
   immediate. *)
let pack_ints p0 rest =
  let f0 = int_fn p0 in
  match List.map (fun p -> (ex_width p, int_fn p)) rest with
  | [] -> f0
  | rest ->
      fun () -> List.fold_left (fun acc (w, f) -> (acc lsl w) lor f ()) (f0 ()) rest

(* The [Bits.pack] layout of a wide concat ([total > 63], every part at
   least 1 bit wide): adjacent immediate parts group greedily, MSB first,
   into runs of at most 63 bits, each one [Fint] of their shift-or fold;
   wide parts are [Fvec]s. Fields stay in MSB-first order, so parts
   evaluate in the order [Bits.concat] would see them. *)
let concat_fields parts total =
  let fields = ref [] in
  let flush run lo =
    match List.rev run with
    | [] -> ()
    | p0 :: rest -> fields := Bits.Fint (lo, pack_ints p0 rest) :: !fields
  in
  (* [hi]: bit offset just above the next part; [run]/[rw]: the open run
     (reversed) and its width *)
  let rec go hi run rw = function
    | [] -> flush run hi
    | p :: rest ->
        let w = ex_width p in
        if not (Imm.fits w) then (
          flush run hi;
          fields := Bits.Fvec (hi - w, bits_fn p) :: !fields;
          go (hi - w) [] 0 rest)
        else if rw + w <= Imm.max_width then go (hi - w) (p :: run) (rw + w) rest
        else (
          flush run hi;
          go (hi - w) [ p ] w rest)
  in
  go total [] 0 parts;
  Array.of_list (List.rev !fields)

(* Compare operands read straight from the immediate bank or held as
   constant patterns: the leaf shapes [leaf_compare] compiles to one
   closure. *)
type leaf = Lsig of int | Lconst of int

let leaf_of st : Compiled.cexpr -> (leaf * int) option = function
  | Compiled.Cvar i when st.imm.(i) -> Some (Lsig i, st.widths.(i))
  | Compiled.Cconst b when Imm.fits (Bits.width b) ->
      Some (Lconst (Imm.of_bits b), Bits.width b)
  | _ -> None

(* [a op b] is [b (mirror op) a]. *)
let mirror = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

(* Signal [i] against leaf [y] at width [w] ([op]'s last case is [Ge]).
   Both raw patterns are already zero-extended to [w], so equality is
   native; at w = 63 a pattern may be negative, and flipping the sign
   bit ([fl]) maps unsigned order onto native order, as [Imm.ucompare]
   does. *)
let leaf_test st op w i y : ex =
  let ints = st.ints in
  let fl = if w < Imm.max_width then 0 else min_int in
  let f =
    match (op, y) with
    | Ast.Eq, Lconst p -> fun () -> if ints.(i) = p then 1 else 0
    | Ast.Eq, Lsig j -> fun () -> if ints.(i) = ints.(j) then 1 else 0
    | Ast.Neq, Lconst p -> fun () -> if ints.(i) <> p then 1 else 0
    | Ast.Neq, Lsig j -> fun () -> if ints.(i) <> ints.(j) then 1 else 0
    | Ast.Lt, Lconst p ->
        let p = p lxor fl in
        fun () -> if ints.(i) lxor fl < p then 1 else 0
    | Ast.Lt, Lsig j -> fun () -> if ints.(i) lxor fl < ints.(j) lxor fl then 1 else 0
    | Ast.Le, Lconst p ->
        let p = p lxor fl in
        fun () -> if ints.(i) lxor fl <= p then 1 else 0
    | Ast.Le, Lsig j -> fun () -> if ints.(i) lxor fl <= ints.(j) lxor fl then 1 else 0
    | Ast.Gt, Lconst p ->
        let p = p lxor fl in
        fun () -> if ints.(i) lxor fl > p then 1 else 0
    | Ast.Gt, Lsig j -> fun () -> if ints.(i) lxor fl > ints.(j) lxor fl then 1 else 0
    | _, Lconst p ->
        let p = p lxor fl in
        fun () -> if ints.(i) lxor fl >= p then 1 else 0
    | _, Lsig j -> fun () -> if ints.(i) lxor fl >= ints.(j) lxor fl then 1 else 0
  in
  Eint (1, f)

(* A comparison with at least one immediate-signal operand and the other
   a signal or constant that fits an immediate; [None] keeps the general
   path (constant-only, wide or compound operands). *)
let leaf_compare st op a b =
  match (leaf_of st a, leaf_of st b) with
  | Some (Lsig i, wa), Some (y, wb) -> Some (leaf_test st op (max wa wb) i y)
  | Some ((Lconst _ as y), wa), Some (Lsig i, wb) ->
      Some (leaf_test st (mirror op) (max wa wb) i y)
  | _ -> None

(* Mirrors [Compiled.eval_ctx] case for case: the dispatcher widens
   leaf and structural forms to [ctx]; operator results are never
   widened (operands are widened inside), comparisons and reductions
   return width 1. *)
let rec lex st ~ctx (e : Compiled.cexpr) : ex =
  match e with
  | Compiled.Cconst b ->
      let wb = Bits.width b in
      let w = max wb ctx in
      if Imm.fits w then
        let p = Imm.of_bits b in
        Eint (w, fun () -> p)
      else
        let v = if wb < w then Bits.resize b w else b in
        Ebits (w, fun () -> v)
  | Compiled.Cvar i ->
      let w = st.widths.(i) in
      let base =
        if st.imm.(i) then Eint (w, fun () -> st.ints.(i))
        else Ebits (w, fun () -> Compiled.vec st.env i)
      in
      widen ~ctx base
  | Compiled.Cbit (i, w, ix) ->
      let idxf = index_fn (lex st ~ctx:0 ix) in
      let pow2 = is_pow2 w in
      let f =
        if st.imm.(i) then fun () ->
          let k = resolve ~size:w ~pow2 (idxf ()) in
          if k < 0 then 0 else (st.ints.(i) lsr k) land 1
        else fun () ->
          let k = resolve ~size:w ~pow2 (idxf ()) in
          if k < 0 then 0
          else if Bits.bit (Compiled.vec st.env i) k then 1
          else 0
      in
      widen ~ctx (Eint (1, f))
  | Compiled.Cword (i, depth, ww, ix) ->
      let idxf = index_fn (lex st ~ctx:0 ix) in
      let pow2 = is_pow2 depth in
      let base =
        if Imm.fits ww then
          (* memory words are stored at exactly the word width *)
          Eint
            ( ww,
              fun () ->
                let k = resolve ~size:depth ~pow2 (idxf ()) in
                if k < 0 then 0 else Imm.of_bits (Compiled.mem st.env i).(k) )
        else
          let z = Bits.zero ww in
          Ebits
            ( ww,
              fun () ->
                let k = resolve ~size:depth ~pow2 (idxf ()) in
                if k < 0 then z else (Compiled.mem st.env i).(k) )
      in
      widen ~ctx base
  | Compiled.Crange (i, hi, lo) ->
      let w = hi - lo + 1 in
      let base =
        if st.imm.(i) then Eint (w, fun () -> Imm.slice st.ints.(i) ~hi ~lo)
        else if Imm.fits w then
          Eint
            (w, fun () -> Imm.of_bits (Bits.slice (Compiled.vec st.env i) ~hi ~lo))
        else Ebits (w, fun () -> Bits.slice (Compiled.vec st.env i) ~hi ~lo)
      in
      widen ~ctx base
  | Compiled.Cunop (op, a) -> lunop st ~ctx op a
  | Compiled.Cbinop (op, a, b) -> lbinop st ~ctx op a b
  | Compiled.Ccond (c, te, fe) ->
      let cf = truthy (lex st ~ctx:0 c) in
      let vt = lex st ~ctx te and vf = lex st ~ctx fe in
      let w = max (ex_width vt) (ex_width vf) in
      if Imm.fits w then
        let ft = int_fn (resize_ex w vt) and ff = int_fn (resize_ex w vf) in
        Eint (w, fun () -> if cf () then ft () else ff ())
      else
        let ft = bits_fn (resize_ex w vt) and ff = bits_fn (resize_ex w vf) in
        Ebits (w, fun () -> if cf () then ft () else ff ())
  | Compiled.Cconcat es -> (
      let parts = List.map (fun e -> lex st ~ctx:0 e) es in
      let total = List.fold_left (fun acc p -> acc + ex_width p) 0 parts in
      match parts with
      | [] ->
          (* raises, as reference *)
          widen ~ctx (Ebits (1, fun () -> Bits.concat []))
      | p0 :: rest when Imm.fits total -> widen ~ctx (Eint (total, pack_ints p0 rest))
      | _ when List.for_all (fun p -> ex_width p >= 1) parts ->
          (* built at the context width directly: the zero-extension is
             just the unfilled top of the fresh vector *)
          let w = max total ctx in
          let fields = concat_fields parts total in
          Ebits (w, fun () -> Bits.pack w fields)
      | _ ->
          (* a part of width < 1 raises when evaluated, as reference *)
          let fs = List.map bits_fn parts in
          widen ~ctx
            (Ebits (total, fun () -> Bits.concat (List.map (fun f -> f ()) fs))))
  | Compiled.Crepeat (n, a) ->
      let va = lex st ~ctx:0 a in
      let wa = ex_width va in
      let base =
        if n < 1 then
          let f = bits_fn va in
          Ebits (1, fun () -> Bits.repeat n (f ()))  (* raises, as reference *)
        else if Imm.fits (n * wa) then
          let f = int_fn va in
          if n = 1 then Eint (wa, f)
          else
            (* n >= 2 and n*wa <= 63, so wa <= 31: shifts stay in range *)
            Eint
              ( n * wa,
                fun () ->
                  let v = f () in
                  let acc = ref v in
                  for _ = 2 to n do
                    acc := (!acc lsl wa) lor v
                  done;
                  !acc )
        else
          let f = bits_fn va in
          Ebits (n * wa, fun () -> Bits.repeat n (f ()))
      in
      widen ~ctx base

and lunop st ~ctx op a : ex =
  match op with
  | Ast.Bnot -> (
      match lex st ~ctx a with
      | Eint (w, f) ->
          let m = Imm.mask w in
          Eint (w, fun () -> lnot (f ()) land m)
      | Ebits (w, f) -> Ebits (w, fun () -> Bits.lognot (f ())))
  | Ast.Neg -> (
      match lex st ~ctx a with
      | Eint (w, f) ->
          let m = Imm.mask w in
          Eint (w, fun () -> -f () land m)
      | Ebits (w, f) -> Ebits (w, fun () -> Bits.neg (f ())))
  | Ast.Lnot -> (
      match lex st ~ctx:0 a with
      | Eint (_, f) -> bool_ex (fun () -> f () = 0)
      | Ebits (_, f) -> bool_ex (fun () -> Bits.is_zero (f ())))
  | Ast.Rand -> (
      match lex st ~ctx:0 a with
      | Eint (w, f) ->
          let m = Imm.mask w in
          bool_ex (fun () -> f () = m)
      | Ebits (_, f) -> bool_ex (fun () -> Bits.reduce_and (f ())))
  | Ast.Ror ->
      let tf = truthy (lex st ~ctx:0 a) in
      bool_ex tf
  | Ast.Rxor -> (
      match lex st ~ctx:0 a with
      | Eint (_, f) -> bool_ex (fun () -> Imm.reduce_xor (f ()))
      | Ebits (_, f) -> bool_ex (fun () -> Bits.reduce_xor (f ())))

and lbinop st ~ctx op a b : ex =
  match op with
  | Ast.Land | Ast.Lor -> (
      match (op, lex st ~ctx:0 a, lex st ~ctx:0 b) with
      (* width-1 immediates: the raw 0/1 patterns are the truth values *)
      | Ast.Land, Eint (1, fa), Eint (1, fb) ->
          Eint (1, fun () -> if fa () = 0 then 0 else fb ())
      | Ast.Lor, Eint (1, fa), Eint (1, fb) ->
          Eint (1, fun () -> if fa () = 0 then fb () else 1)
      | Ast.Land, va, vb ->
          let fa = truthy va and fb = truthy vb in
          bool_ex (fun () -> fa () && fb ())
      | _, va, vb ->
          let fa = truthy va and fb = truthy vb in
          bool_ex (fun () -> fa () || fb ()))
  | Ast.Shl | Ast.Shr | Ast.Ashr -> (
      let va = lex st ~ctx a in
      let amtf = index_fn (lex st ~ctx:0 b) in
      match va with
      | Eint (w, f) ->
          let op =
            match op with
            | Ast.Shl -> Imm.shift_left
            | Ast.Shr -> Imm.shift_right
            | _ -> Imm.arith_shift_right
          in
          Eint (w, fun () -> op w (f ()) (min (amtf ()) w))
      | Ebits (w, f) ->
          let op =
            match op with
            | Ast.Shl -> Bits.shift_left
            | Ast.Shr -> Bits.shift_right
            | _ -> Bits.arith_shift_right
          in
          Ebits (w, fun () -> op (f ()) (min (amtf ()) w)))
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match leaf_compare st op a b with
      | Some e -> e
      | None ->
          let va = lex st ~ctx:0 a and vb = lex st ~ctx:0 b in
          let w = max (ex_width va) (ex_width vb) in
          if Imm.fits w then
            let fa = int_fn (resize_ex w va) and fb = int_fn (resize_ex w vb) in
            let test =
              match op with
              | Ast.Eq -> fun x y -> x = y
              | Ast.Neq -> fun x y -> x <> y
              | Ast.Lt -> Imm.lt w
              | Ast.Le -> Imm.le w
              | Ast.Gt -> Imm.gt w
              | _ -> Imm.ge w
            in
            bool_ex (fun () -> test (fa ()) (fb ()))
          else
            let fa = bits_fn (resize_ex w va) and fb = bits_fn (resize_ex w vb) in
            let test =
              match op with
              | Ast.Eq -> Bits.equal
              | Ast.Neq -> fun x y -> not (Bits.equal x y)
              | Ast.Lt -> Bits.lt
              | Ast.Le -> Bits.le
              | Ast.Gt -> Bits.gt
              | _ -> Bits.ge
            in
            bool_ex (fun () -> test (fa ()) (fb ())))
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor
  | Ast.Bxor ->
      let va = lex st ~ctx a and vb = lex st ~ctx b in
      let w = max (ex_width va) (ex_width vb) in
      if Imm.fits w then
        let fa = int_fn (resize_ex w va) and fb = int_fn (resize_ex w vb) in
        match op with
        | Ast.Add -> Eint (w, fun () -> Imm.add w (fa ()) (fb ()))
        | Ast.Sub -> Eint (w, fun () -> Imm.sub w (fa ()) (fb ()))
        | Ast.Mul -> Eint (w, fun () -> Imm.mul w (fa ()) (fb ()))
        | Ast.Div -> Eint (w, fun () -> Imm.div w (fa ()) (fb ()))
        | Ast.Mod -> Eint (w, fun () -> Imm.rem w (fa ()) (fb ()))
        | Ast.Band -> Eint (w, fun () -> fa () land fb ())
        | Ast.Bor -> Eint (w, fun () -> fa () lor fb ())
        | _ -> Eint (w, fun () -> fa () lxor fb ())
      else
        let fa = bits_fn (resize_ex w va) and fb = bits_fn (resize_ex w vb) in
        let op =
          match op with
          | Ast.Add -> Bits.add
          | Ast.Sub -> Bits.sub
          | Ast.Mul -> Bits.mul
          | Ast.Div -> Bits.div
          | Ast.Mod -> Bits.rem
          | Ast.Band -> Bits.logand
          | Ast.Bor -> Bits.logor
          | _ -> Bits.logxor
        in
        Ebits (w, fun () -> op (fa ()) (fb ()))

(* ------------------------------------------------------------------ *)
(* Stores                                                               *)
(* ------------------------------------------------------------------ *)

(* Change-detected store into the immediate bank. *)
let store_imm st i nv =
  if st.ints.(i) <> nv then (
    st.ints.(i) <- nv;
    st.notify i)

let apply_pend st = function
  | Pimm (i, v) -> store_imm st i v
  | Pmask (i, m, p) -> store_imm st i (st.ints.(i) land lnot m lor p)
  | Pboxed w -> Compiled.apply_write_notify st.env ~notify:st.notify w

(* Defer an immediate-bank write into the flat triple buffer. A full
   write is a mask of all ones ([lnot (-1) = 0]), so commit needs no
   full/partial distinction. Growth doubles, so steady state never
   allocates. *)
let push_flat st i m p =
  let len = st.pb_len in
  if len + 3 > Array.length st.pb then begin
    let nb = Array.make (max 48 (2 * Array.length st.pb)) 0 in
    Array.blit st.pb 0 nb 0 len;
    st.pb <- nb
  end;
  let b = st.pb in
  b.(len) <- i;
  b.(len + 1) <- m;
  b.(len + 2) <- p;
  st.pb_len <- len + 3

let push_boxed st w = st.pboxed <- w :: st.pboxed

(* Each signal is statically either immediate or boxed, so same-signal
   deferred writes always land in the same buffer and flat-then-boxed
   application preserves last-write-wins per signal; cross-signal
   interleavings are unobservable (NBA reads happen before any commit). *)
let push_pend st = function
  | Pimm (i, v) -> push_flat st i (-1) v
  | Pmask (i, m, p) -> push_flat st i m p
  | Pboxed w -> push_boxed st w

(* Flatten nested concat lvalues to leaves with absolute MSB-first bit
   positions; widths are static, so nesting resolves at compile time.
   The returned list is in depth-first MSB-first order — the same order
   [Compiled.resolve_write] emits writes in. *)
let flatten_concat parts total =
  let rec go acc hi = function
    | [] -> acc
    | (lv, w) :: rest ->
        let acc =
          match lv with
          | Compiled.CLconcat (sub, _) -> go acc hi sub
          | _ -> (lv, hi, hi - w + 1) :: acc
        in
        go acc (hi - w) rest
  in
  List.rev (go [] (total - 1) parts)

(* One concat leaf, int source: build a [unit -> pend] reading its
   chunk of [!cur] (bits [hi..lo] of the whole right-hand value). *)
let mk_leaf_int st cur (lv, hi, lo) =
  let wc = hi - lo + 1 in
  let mc = Imm.mask wc in
  let chunk () = (!cur lsr lo) land mc in
  match lv with
  | Compiled.CLvar (i, w) ->
      if st.imm.(i) then fun () -> Pimm (i, chunk ())
      else fun () -> Pboxed (Compiled.CWfull (i, Imm.to_bits ~width:w (chunk ())))
  | Compiled.CLbit (i, w, ix) ->
      let idxf = index_fn (lex st ~ctx:0 ix) in
      let pow2 = is_pow2 w in
      if st.imm.(i) then fun () ->
        let k = resolve ~size:w ~pow2 (idxf ()) in
        if k < 0 then Pboxed Compiled.CWdropped
        else Pmask (i, 1 lsl k, (chunk () land 1) lsl k)
      else fun () ->
        let k = resolve ~size:w ~pow2 (idxf ()) in
        if k < 0 then Pboxed Compiled.CWdropped
        else Pboxed (Compiled.CWbit (i, k, chunk () land 1 = 1))
  | Compiled.CLword (i, depth, ww, ix) ->
      let idxf = index_fn (lex st ~ctx:0 ix) in
      let pow2 = is_pow2 depth in
      fun () ->
        let k = resolve ~size:depth ~pow2 (idxf ()) in
        if k < 0 then Pboxed Compiled.CWdropped
        else
          Pboxed
            (Compiled.CWmem (i, k, Imm.to_bits ~width:ww (Imm.resize ww (chunk ()))))
  | Compiled.CLrange (i, hi', lo') ->
      let w' = hi' - lo' + 1 in
      if st.imm.(i) then
        let im = Imm.mask w' lsl lo' in
        fun () -> Pmask (i, im, Imm.resize w' (chunk ()) lsl lo')
      else fun () ->
        Pboxed
          (Compiled.CWrange (i, hi', lo', Imm.to_bits ~width:w' (Imm.resize w' (chunk ()))))
  | Compiled.CLconcat _ -> assert false (* flattened away *)

(* Same, with the right-hand value kept in limb form. *)
let mk_leaf_bits st curb (lv, hi, lo) =
  let chunk () = Bits.slice !curb ~hi ~lo in
  match lv with
  | Compiled.CLvar (i, w) ->
      if st.imm.(i) then fun () -> Pimm (i, Imm.of_bits (chunk ()))
      else fun () -> Pboxed (Compiled.CWfull (i, Bits.resize (chunk ()) w))
  | Compiled.CLbit (i, w, ix) ->
      let idxf = index_fn (lex st ~ctx:0 ix) in
      let pow2 = is_pow2 w in
      fun () ->
        let k = resolve ~size:w ~pow2 (idxf ()) in
        if k < 0 then Pboxed Compiled.CWdropped
        else
          let b = Bits.bit (Bits.resize (chunk ()) 1) 0 in
          if st.imm.(i) then Pmask (i, 1 lsl k, if b then 1 lsl k else 0)
          else Pboxed (Compiled.CWbit (i, k, b))
  | Compiled.CLword (i, depth, ww, ix) ->
      let idxf = index_fn (lex st ~ctx:0 ix) in
      let pow2 = is_pow2 depth in
      fun () ->
        let k = resolve ~size:depth ~pow2 (idxf ()) in
        if k < 0 then Pboxed Compiled.CWdropped
        else Pboxed (Compiled.CWmem (i, k, Bits.resize (chunk ()) ww))
  | Compiled.CLrange (i, hi', lo') ->
      let w' = hi' - lo' + 1 in
      if st.imm.(i) then
        let im = Imm.mask w' lsl lo' in
        fun () -> Pmask (i, im, Imm.of_bits (Bits.resize (chunk ()) w') lsl lo')
      else fun () -> Pboxed (Compiled.CWrange (i, hi', lo', Bits.resize (chunk ()) w'))
  | Compiled.CLconcat _ -> assert false

(* Compile a store of [v] into [lv]. [nba = true] defers the write to
   the commit phase (sequential non-blocking); otherwise it applies
   immediately with change detection, exactly like
   [Compiled.write_notify]. *)
let compile_store st (lv : Compiled.clvalue) (v : ex) ~nba : unit -> unit =
  match lv with
  | Compiled.CLvar (i, w) ->
      if st.imm.(i) then (
        let f = int_fn (resize_ex w v) in
        if nba then fun () -> push_flat st i (-1) (f ())
        else fun () -> store_imm st i (f ()))
      else
        let f = bits_fn (resize_ex w v) in
        if nba then fun () -> push_boxed st (Compiled.CWfull (i, f ()))
        else
          fun () ->
            Compiled.apply_write_notify st.env ~notify:st.notify
              (Compiled.CWfull (i, f ()))
  | Compiled.CLbit (i, w, ix) ->
      let idxf = index_fn (lex st ~ctx:0 ix) in
      let pow2 = is_pow2 w in
      let fb =
        match resize_ex 1 v with
        | Eint (_, f) -> fun () -> f () <> 0
        | Ebits (_, f) -> fun () -> Bits.bit (f ()) 0
      in
      if st.imm.(i) then (
        if nba then
          fun () ->
            let k = resolve ~size:w ~pow2 (idxf ()) in
            if k < 0 then push_boxed st Compiled.CWdropped
            else push_flat st i (1 lsl k) (if fb () then 1 lsl k else 0)
        else
          fun () ->
            let k = resolve ~size:w ~pow2 (idxf ()) in
            if k >= 0 then
              let m = 1 lsl k in
              let old = st.ints.(i) in
              store_imm st i (if fb () then old lor m else old land lnot m))
      else
        let mk () =
          let k = resolve ~size:w ~pow2 (idxf ()) in
          if k < 0 then Compiled.CWdropped else Compiled.CWbit (i, k, fb ())
        in
        if nba then fun () -> push_boxed st (mk ())
        else fun () -> Compiled.apply_write_notify st.env ~notify:st.notify (mk ())
  | Compiled.CLword (i, depth, ww, ix) ->
      let idxf = index_fn (lex st ~ctx:0 ix) in
      let pow2 = is_pow2 depth in
      let fv = bits_fn (resize_ex ww v) in
      let mk () =
        let k = resolve ~size:depth ~pow2 (idxf ()) in
        if k < 0 then Compiled.CWdropped else Compiled.CWmem (i, k, fv ())
      in
      if nba then fun () -> push_boxed st (mk ())
      else fun () -> Compiled.apply_write_notify st.env ~notify:st.notify (mk ())
  | Compiled.CLrange (i, hi, lo) ->
      let w' = hi - lo + 1 in
      if st.imm.(i) then (
        let f = int_fn (resize_ex w' v) in
        let im = Imm.mask w' lsl lo in
        if nba then fun () -> push_flat st i im (f () lsl lo)
        else fun () -> store_imm st i (st.ints.(i) land lnot im lor (f () lsl lo)))
      else
        let f = bits_fn (resize_ex w' v) in
        if nba then
          fun () -> push_boxed st (Compiled.CWrange (i, hi, lo, f ()))
        else
          fun () ->
            Compiled.apply_write_notify st.env ~notify:st.notify
              (Compiled.CWrange (i, hi, lo, f ()))
  | Compiled.CLconcat (parts, total) ->
      let leaves = flatten_concat parts total in
      if Imm.fits total then (
        let fv = int_fn (resize_ex total v) in
        let cur = ref 0 in
        let mks = List.map (mk_leaf_int st cur) leaves in
        fun () ->
          cur := fv ();
          (* resolve every leaf before applying any, matching
             [Compiled.resolve_write]'s resolve-then-apply split *)
          let pends = List.map (fun mk -> mk ()) mks in
          if nba then List.iter (push_pend st) pends
          else List.iter (apply_pend st) pends)
      else
        let fv = bits_fn (resize_ex total v) in
        let curb = ref (Bits.zero total) in
        let mks = List.map (mk_leaf_bits st curb) leaves in
        fun () ->
          curb := fv ();
          let pends = List.map (fun mk -> mk ()) mks in
          if nba then List.iter (push_pend st) pends
          else List.iter (apply_pend st) pends

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                   *)
(* ------------------------------------------------------------------ *)

let seq2 f g () =
  f ();
  g ()

(* Statement lists compile to a single closure; short lists avoid the
   array iteration entirely. *)
let chain = function
  | [] -> fun () -> ()
  | [ f ] -> f
  | [ f; g ] -> seq2 f g
  | fs ->
      let arr = Array.of_list fs in
      fun () -> Array.iter (fun f -> f ()) arr

(* Lower one statement. Every statement closure re-checks the $finish
   flag, as [exec_stmt] does before each statement. [in_comb] selects
   the non-blocking degeneration and display gating of the
   combinational phase. *)
let rec lstmt st ~in_comb (s : Compiled.cstmt) : unit -> unit =
  let fin = st.finished in
  let guard body () = if not !fin then body () in
  match s with
  | Compiled.CSblocking (l, e, cw) ->
      guard (compile_store st l (lex st ~ctx:cw e) ~nba:false)
  | Compiled.CSnonblocking (l, e, cw) ->
      guard (compile_store st l (lex st ~ctx:cw e) ~nba:(not in_comb))
  | Compiled.CSif (c, t, f) ->
      let cf = truthy (lex st ~ctx:0 c) in
      let tf = lseq st ~in_comb t and ff = lseq st ~in_comb f in
      guard (fun () -> if cf () then tf () else ff ())
  | Compiled.CScase (e, items, default) ->
      let ve = lex st ~ctx:0 e in
      let mk_test me =
        let vm = lex st ~ctx:0 me in
        match (ve, vm) with
        | Eint (_, fe), Eint (_, fm) ->
            (* widths <= 63: resizing both to the max width is pure
               zero-extension, so raw-pattern equality is exact *)
            fun () -> fe () = fm ()
        | _ ->
            let w = max (ex_width ve) (ex_width vm) in
            let fe = bits_fn ve and fm = bits_fn vm in
            fun () ->
              Bits.equal (Bits.resize (fe ()) w) (Bits.resize (fm ()) w)
      in
      let items' =
        List.map
          (fun (mes, body) -> (List.map mk_test mes, lseq st ~in_comb body))
          items
      in
      let def' =
        match default with Some body -> lseq st ~in_comb body | None -> fun () -> ()
      in
      guard (fun () ->
          match
            List.find_opt
              (fun (tests, _) -> List.exists (fun t -> t ()) tests)
              items'
          with
          | Some (_, body) -> body ()
          | None -> def' ())
  | Compiled.CSdisplay (fmt, args) ->
      let afs = List.map (fun a -> bits_fn (lex st ~ctx:0 a)) args in
      let render () = Display.render fmt (List.map (fun f -> f ()) afs) in
      if in_comb then
        guard (fun () -> if st.displays then st.emit (render ()))
      else guard (fun () -> st.emit (render ()))
  | Compiled.CSfinish -> guard (fun () -> st.finished := true)

and lseq st ~in_comb stmts = chain (List.map (lstmt st ~in_comb) stmts)

(* Comb assign nodes execute unguarded, like [Simulator.exec_node]. *)
let lower_node st = function
  | Lassign (l, e, cw) -> compile_store st l (lex st ~ctx:cw e) ~nba:false
  | Lblock ss -> lseq st ~in_comb:true ss

(* ------------------------------------------------------------------ *)
(* Dirty-set scheduling                                                 *)
(* ------------------------------------------------------------------ *)

(* Adaptive thresholds: enter the dense sweep once >= 3/4 of the plan
   ran in a settle for 8 settles in a row, drop back to sparse once
   <= 1/4 of the plan changed value for 8 sweeps. *)
let dense_enter_num = 3
let dense_enter_den = 4
let dense_exit_num = 1
let dense_exit_den = 4
let mode_streak_len = 8

let mark_closure st c =
  if not st.cdirty.(c) then (
    st.cdirty.(c) <- true;
    st.ncdirty <- st.ncdirty + 1)

let rec mark_closures st = function
  | [] -> ()
  | c :: tl ->
      mark_closure st c;
      mark_closures st tl

(* Wake the sequential groups sensitive to a changed signal: flag
   stores only, no count and no allocation. *)
let rec mark_groups gdirty = function
  | [] -> ()
  | g :: tl ->
      Array.unsafe_set gdirty g true;
      mark_groups gdirty tl

(* [cdirty] has at least one slot, but an empty plan has nothing
   pending: the count is the plan's, as [create] leaves it *)
let mark_all_flags st =
  Array.fill st.cdirty 0 (Array.length st.cdirty) true;
  st.ncdirty <- Array.length st.plan;
  Array.fill st.gdirty 0 (Array.length st.gdirty) true

(* Recompose [st.notify] from mode + external callback. Closures read
   [st.notify] at call time, so rewiring mid-run is safe. Every mode
   marks the sequential groups sensitive to the change ([seq_notify]);
   a plan without skippable groups adds nothing for them. With an empty
   comb plan there is nothing the closure flags could ever skip, so
   writes bypass the closure marking entirely — sequential-only designs
   must not pay for machinery that cannot help them. *)
let rewire st =
  let ext = st.ext_notify in
  let gdirty = st.gdirty and gsens = st.gsens in
  let grouped = Array.length gdirty > 0 && not st.sdense in
  st.seq_notify <-
    (if grouped then fun i ->
       ext i;
       mark_groups gdirty gsens.(i)
     else ext);
  if Array.length st.plan = 0 then st.notify <- st.seq_notify
  else
    match st.lmode with
    | Lsparse ->
        st.notify <-
          (if grouped then fun i ->
             ext i;
             mark_closures st st.csens.(i);
             mark_groups gdirty gsens.(i)
           else fun i ->
             ext i;
             mark_closures st st.csens.(i))
    | Ldense ->
        (* change counting matters only inside the settle sweep (the
           exit test's reset wipes anything counted between settles),
           so keep [seq_notify] installed and let [settle] swap
           [dense_mark] in just around the sweep — sequential commits
           pay nothing for the mode machinery *)
        let base = st.seq_notify in
        st.dense_mark <-
          (fun i ->
            base i;
            st.lchanges <- st.lchanges + 1);
        st.notify <- base

let set_notify st f =
  st.ext_notify <- f;
  rewire st

(* Full scheduling reset (checkpoint restore): drop back to the sparse
   worklist with every closure and every sequential group pending, so a
   restored run re-derives the mode trajectory from activity alone. The
   superset is safe: re-running a clean closure or group is a no-op. *)
let mark_all st =
  st.lmode <- Lsparse;
  st.lmode_streak <- 0;
  st.sdense <- false;
  st.sstreak <- 0;
  rewire st;
  mark_all_flags st

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

(* Copy the immediate-bank signals' values in from [env]. *)
let seed_ints st =
  for i = 0 to Array.length st.ints - 1 do
    if st.imm.(i) then st.ints.(i) <- Imm.of_bits (Compiled.vec st.env i)
  done

let create ~(tab : Compiled.tab) ~(env : Compiled.env) ~(finished : bool ref)
    ~(nodes : node array) ~(fuse : bool array) ~(sens : int list array)
    ~(display_ranks : int list)
    ~(seq_pos : seq_edge) ~(seq_neg : seq_edge) ~(seq_sens : int list array)
    ~(runs : run_stats) : t =
  let n = Compiled.n_signals tab in
  let ints = Array.make n 0 in
  let widths = Array.init n (fun i -> Compiled.width tab i) in
  let imm =
    Array.init n (fun i -> Compiled.depth tab i = None && Imm.fits widths.(i))
  in
  let n_imm = Array.fold_left (fun a b -> if b then a + 1 else a) 0 imm in
  let st =
    {
      env;
      ints;
      imm;
      widths;
      finished;
      notify = ignore;
      ext_notify = ignore;
      pb = [||];
      pb_len = 0;
      pboxed = [];
      displays = false;
      emit = ignore;
      plan = [||];
      seq_pos = { e_run = [||]; e_seq = seq_pos };
      seq_neg = { e_run = [||]; e_seq = seq_neg };
      gdirty = [||];
      gsens = seq_sens;
      seq_notify = ignore;
      sdense = false;
      sstreak = 0;
      scommit_changes = 0;
      csens = [||];
      cdirty = [||];
      ncdirty = 0;
      disp_closures = [];
      lmode = Lsparse;
      lmode_streak = 0;
      lchanges = 0;
      dense_mark = (fun _ -> ());
      stats =
        {
          lw_nodes = Array.length nodes;
          lw_closures = 0;
          lw_fused = 0;
          lw_imm = n_imm;
          lw_boxed = n - n_imm;
          lw_seq = seq_pos.se_blocks + seq_neg.se_blocks;
        };
      runs;
    }
  in
  seed_ints st;
  let closures = Array.map (lower_node st) nodes in
  (* fuse single-reader assign chains: a node marked fuse.(r) folds into
     its predecessor's closure, halving plan-iteration overhead on long
     assign chains. [cidx] records which plan closure each node rank
     landed in, so rank-level sensitivity lifts to the closure level. *)
  let nnodes = Array.length closures in
  let cidx = Array.make (max nnodes 1) 0 in
  let plan = ref [] and nfused = ref 0 and nplan = ref 0 in
  Array.iteri
    (fun r c ->
      if r > 0 && fuse.(r) then (
        incr nfused;
        (match !plan with
        | prev :: tl -> plan := seq2 prev c :: tl
        | [] ->
            plan := [ c ];
            incr nplan);
        cidx.(r) <- !nplan - 1)
      else (
        plan := c :: !plan;
        cidx.(r) <- !nplan;
        incr nplan))
    closures;
  st.plan <- Array.of_list (List.rev !plan);
  let lower_edge se =
    { e_run = Array.map (fun g -> lseq st ~in_comb:false g.g_stmts) se.se_groups; e_seq = se }
  in
  st.seq_pos <- lower_edge seq_pos;
  st.seq_neg <- lower_edge seq_neg;
  st.gdirty <- Array.make (seq_pos.se_flagged + seq_neg.se_flagged) true;
  let nclosures = Array.length st.plan in
  st.cdirty <- Array.make (max nclosures 1) true;
  st.ncdirty <- nclosures;
  st.csens <-
    Array.map
      (fun ranks -> List.sort_uniq compare (List.map (fun r -> cidx.(r)) ranks))
      sens;
  st.disp_closures <-
    List.sort_uniq compare (List.map (fun r -> cidx.(r)) display_ranks);
  rewire st;
  st.stats <-
    { st.stats with lw_closures = Array.length st.plan; lw_fused = !nfused };
  st

(* Back to the run state [create] leaves, once the caller has returned
   [env] to its initial values: the immediate bank re-seeded from it,
   no deferred writes. Scheduling is the caller's [mark_all], the run
   counters its [clear_run_stats]. *)
let reset st =
  seed_ints st;
  st.pb_len <- 0;
  st.pboxed <- [];
  st.displays <- false;
  st.lchanges <- 0;
  st.scommit_changes <- 0

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

let new_run_stats () =
  { rs_steps = 0; rs_settles = 0; rs_closures_run = 0; rs_closures_skipped = 0;
    rs_run_min = 0; rs_run_max = 0; rs_dirty_total = 0; rs_dirty_peak = 0;
    rs_edges = 0; rs_seq_run = 0; rs_seq_skipped = 0; rs_commit_imm = 0;
    rs_commit_boxed = 0; rs_displays = 0 }

let clear_run_stats r =
  r.rs_steps <- 0;
  r.rs_settles <- 0;
  r.rs_closures_run <- 0;
  r.rs_closures_skipped <- 0;
  r.rs_run_min <- 0;
  r.rs_run_max <- 0;
  r.rs_dirty_total <- 0;
  r.rs_dirty_peak <- 0;
  r.rs_edges <- 0;
  r.rs_seq_run <- 0;
  r.rs_seq_skipped <- 0;
  r.rs_commit_imm <- 0;
  r.rs_commit_boxed <- 0;
  r.rs_displays <- 0

(* One settle: [dirty] closures pending at entry, [run] of [size]
   evaluated. *)
let count_settle r ~dirty ~run ~size =
  let settles = r.rs_settles + 1 in
  r.rs_settles <- settles;
  r.rs_closures_run <- r.rs_closures_run + run;
  r.rs_closures_skipped <- r.rs_closures_skipped + (size - run);
  r.rs_dirty_total <- r.rs_dirty_total + dirty;
  if dirty > r.rs_dirty_peak then r.rs_dirty_peak <- dirty;
  if run > r.rs_run_max then r.rs_run_max <- run;
  if run < r.rs_run_min || settles = 1 then r.rs_run_min <- run

(* Full sweep over the plan. *)
let sweep st =
  let plan = st.plan in
  for i = 0 to Array.length plan - 1 do
    plan.(i) ()
  done

(* Closures currently pending: the sparse worklist size, or the whole
   plan in dense mode (every sweep evaluates everything). *)
let dirty_count st =
  if st.lmode = Lsparse then st.ncdirty else Array.length st.plan

(* One settle pass, counted in [st.runs] with the closures pending at
   entry (before display forcing). Dirty flags set during the pass (by
   writes this settle performs) stay pending for the next settle. The
   plan is in topological order, so every producer runs before its
   consumers; only a self-dependency the cycle check admits can mark an
   earlier-or-equal closure, and that stays pending exactly as the
   once-per-sweep full plan would leave it. *)
let settle st ~displays =
  st.displays <- displays;
  let n = Array.length st.plan in
  let dirty = dirty_count st in
  match st.lmode with
  | Ldense ->
      st.lchanges <- 0;
      st.notify <- st.dense_mark;
      sweep st;
      st.notify <- st.seq_notify;
      count_settle st.runs ~dirty ~run:n ~size:n;
      if dense_exit_den * st.lchanges <= dense_exit_num * n then (
        st.lmode_streak <- st.lmode_streak + 1;
        if st.lmode_streak >= mode_streak_len then
          (* activity dropped: back to sparse; flags are stale after
             dense sweeps, so re-mark everything once *)
          mark_all st)
      else st.lmode_streak <- 0
  | Lsparse ->
      (* $display side effects must fire on every display-enabled
         settle, as in the full sweep, even when inputs are stable *)
      if displays then mark_closures st st.disp_closures;
      let plan = st.plan in
      let evaluated = ref 0 in
      if st.ncdirty > 0 then (
        let cdirty = st.cdirty in
        for c = 0 to n - 1 do
          if cdirty.(c) then (
            cdirty.(c) <- false;
            st.ncdirty <- st.ncdirty - 1;
            incr evaluated;
            plan.(c) ())
        done);
      let ev = !evaluated in
      count_settle st.runs ~dirty ~run:ev ~size:n;
      (* an empty settle is sparse operating at zero cost — it says
         nothing about how dense the actual work is, so it leaves the
         streak alone; only a busy-but-not-dense settle resets it.
         Without this, designs whose activity arrives every other
         settle (pure sequential commits marking a handful of
         closures) could never accumulate a streak. *)
      if n > 0 && dense_enter_den * ev >= dense_enter_num * n then (
        st.lmode_streak <- st.lmode_streak + 1;
        if st.lmode_streak >= mode_streak_len then (
          st.lmode <- Ldense;
          st.lmode_streak <- 0;
          rewire st))
      else if ev > 0 then st.lmode_streak <- 0

(* Run one edge's groups in order. A skippable group runs only when its
   flag is set, and its flag is cleared before it runs, so a change the
   group causes itself (a blocking write, or its own commit) wakes it
   for the next edge. A clean group is skipped: nothing it reads or
   writes changed since it last ran, so it would queue the writes it
   queued then, and those changed nothing when they were committed.

   The same hysteresis as the comb plan's spares fully-active blocks
   the flag traffic: once >= 3/4 of the flagged groups ran on 8 edges
   in a row, every group runs and no change marks any; once the
   commits before 8 edges in a row changed <= 1/4 as many immediate
   signals as there are flagged groups, every flag is set and marking
   resumes (a blocking write during the last edge went unmarked, and a
   group that ran before it must see it). Either way only the work done
   changes, never a result. *)
let run_edge st edge =
  let e = match edge with Elaborate.Pos -> st.seq_pos | Elaborate.Neg -> st.seq_neg in
  let run = e.e_run and flagged = e.e_seq.se_flagged in
  let n = Array.length run in
  let r = st.runs in
  r.rs_edges <- r.rs_edges + e.e_seq.se_blocks;
  if st.sdense then (
    for k = 0 to n - 1 do
      run.(k) ()
    done;
    r.rs_seq_run <- r.rs_seq_run + n;
    if dense_exit_den * st.scommit_changes <= dense_exit_num * flagged then (
      st.sstreak <- st.sstreak + 1;
      if st.sstreak >= mode_streak_len then (
        st.sdense <- false;
        st.sstreak <- 0;
        Array.fill st.gdirty 0 (Array.length st.gdirty) true;
        rewire st))
    else st.sstreak <- 0)
  else (
    let flag = e.e_seq.se_flag and gdirty = st.gdirty in
    let skipped = ref 0 in
    for k = 0 to n - 1 do
      let g = flag.(k) in
      if g < 0 then run.(k) ()
      else if gdirty.(g) then (
        gdirty.(g) <- false;
        run.(k) ())
      else incr skipped
    done;
    r.rs_seq_run <- r.rs_seq_run + (n - !skipped);
    r.rs_seq_skipped <- r.rs_seq_skipped + !skipped;
    if flagged > 0 then
      if dense_enter_den * (flagged - !skipped) >= dense_enter_num * flagged then (
        st.sstreak <- st.sstreak + 1;
        if st.sstreak >= mode_streak_len then (
          st.sdense <- true;
          st.sstreak <- 0;
          rewire st))
      else st.sstreak <- 0)

(* Commit deferred non-blocking writes: the flat immediate buffer in
   push order, then boxed writes in program order (the boxed list is
   reversed, as in the reference executor). Per-signal last-write-wins
   is preserved because a signal's writes always land in one buffer. *)
let commit st =
  let n = st.pb_len in
  if n > 0 then (
    st.runs.rs_commit_imm <- st.runs.rs_commit_imm + (n / 3);
    let b = st.pb and ints = st.ints in
    let i = ref 0 and changes = ref 0 in
    while !i < n do
      let id = b.(!i) in
      let nv = ints.(id) land lnot b.(!i + 1) lor b.(!i + 2) in
      if ints.(id) <> nv then (
        ints.(id) <- nv;
        incr changes;
        st.notify id);
      i := !i + 3
    done;
    st.scommit_changes <- !changes;
    st.pb_len <- 0)
  else st.scommit_changes <- 0;
  match st.pboxed with
  | [] -> ()
  | ps ->
      st.runs.rs_commit_boxed <- st.runs.rs_commit_boxed + List.length ps;
      st.pboxed <- [];
      List.iter
        (fun w -> Compiled.apply_write_notify st.env ~notify:st.notify w)
        (List.rev ps)

(* ------------------------------------------------------------------ *)
(* External state access                                                *)
(* ------------------------------------------------------------------ *)

let read_vec st i =
  if st.imm.(i) then Imm.to_bits ~width:st.widths.(i) st.ints.(i)
  else Compiled.vec st.env i

(* Change-detected external write (inputs, stimulus). *)
let write_vec st i v =
  let w = st.widths.(i) in
  if st.imm.(i) then (
    let nv =
      if Bits.width v <= Imm.max_width then Imm.of_bits v land Imm.mask w
      else Imm.of_bits (Bits.resize v w)
    in
    if st.ints.(i) <> nv then (
      st.ints.(i) <- nv;
      st.notify i))
  else
    Compiled.apply_write_notify st.env ~notify:st.notify
      (Compiled.CWfull (i, Bits.resize v w))

(* Raw restore (checkpoint): store without change detection or
   notification; the caller re-marks the whole plan afterwards. *)
let set_vec_raw st i v =
  if st.imm.(i) then st.ints.(i) <- Imm.of_bits (Bits.resize v st.widths.(i))
  else st.env.(i) <- Compiled.Vec (Bits.resize v st.widths.(i))

(* A compiled primitive-input reader over the lowered banks. *)
let input_fn st (e : Compiled.cexpr) : unit -> Bits.t =
  bits_fn (lex st ~ctx:0 e)

let set_emit st f = st.emit <- f
let stats st = st.stats
let dense st = st.lmode = Ldense
