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
   its wide parts. Each run of two or more parts is memoised: it keeps
   its last pattern and re-evaluates only after [notify] reports a
   change to an id it reads, or after [mark_all]. Evaluation is pure
   and every write that can change a read id notifies (restores and
   [reset] store raw, then [mark_all]), so the cached pattern is always
   the one evaluation would give. A comparison between an immediate signal and an
   immediate signal or a constant that fits 63 bits is one closure over
   [ints]. [&&]/[||] over two width-1 immediates is one closure over
   the raw 0/1 patterns.

   A settle runs only the closures whose inputs changed: per-closure
   dirty bits are fed from a closure-level sensitivity index.

   The sequential phase skips the same way, by statement group: an
   edge runs a group only if something it reads or writes changed
   since it last ran, or if it has no flag ($display, $finish, a target
   another block writes on the same edge). A skipped group would only
   have queued writes that change nothing. These flags and the concat
   runs' are set by the one [notify] every write path calls on a
   change.

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

(* The statement groups firing on one clock edge, as [seq_groups]
   splits the blocks: block by block in source order, each block's
   groups in order of their first statement. Laid out once per plan by
   [seq_edge] and shared by every instance. *)
type seq_edge = {
  se_stmts : Compiled.cstmt list array;  (* each group's, in program order *)
  se_flag : int array;  (* each group's dirty flag, or -1: runs every edge *)
  se_flagged : int;  (* groups with a flag *)
  se_blocks : int;  (* blocks firing on this edge *)
}

(* [seq] lists each block's edge with its (statements, flag) groups. *)
let seq_edge seq edge =
  let blocks = List.filter (fun (e, _) -> e = edge) seq in
  let groups = Array.of_list (List.concat_map snd blocks) in
  let flag = Array.map snd groups in
  {
    se_stmts = Array.map fst groups;
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

(* One immediate run of a wide concat, memoised per instance: the
   pattern it last evaluated to, and whether an id it reads changed
   since ([notify] or [mark_all] sets the flag). *)
type memo = { mutable m_dirty : bool; mutable m_pat : int }

(* An instance's memoised runs: collected, each with the ids it reads,
   while [create] lowers, then fixed. *)
type memos = Lowering of (memo * int list) list | Memos of memo array

type t = {
  env : Compiled.env;  (* boxed bank: wide vecs + all memories *)
  ints : int array;  (* immediate bank, indexed by signal id *)
  imm : bool array;  (* which ids live in the immediate bank (shared) *)
  widths : int array;  (* shared *)
  finished : bool ref;  (* shared with the simulator's $finish flag *)
  (* on a change: the simulator's callback, then the closure and group
     flags; set once, by [create] *)
  mutable notify : int -> unit;
  (* flat NBA commit buffer: (id, insert mask, pre-shifted pattern)
     int triples for immediate targets — no allocation per deferred
     write; boxed/memory/dropped writes overflow into [pboxed] *)
  mutable pb : int array;
  mutable pb_len : int;  (* ints used (always a multiple of 3) *)
  mutable pboxed : Compiled.cwrite list;  (* reversed *)
  mutable displays : bool;  (* comb $display gate for this settle *)
  mutable emit : string -> unit;
  plan : (unit -> unit) array;  (* fused comb closures, topo order *)
  seq_pos : edge_plan;
  seq_neg : edge_plan;
  (* sequential dirty flags, one per skippable group, and the plan's
     signal id -> flags map (shared, never written) *)
  gdirty : bool array;
  gsens : int list array;
  (* dirty-set state *)
  csens : int list array;  (* signal id -> reading closure indices (shared) *)
  cdirty : bool array;  (* per-closure pending flag *)
  mutable ncdirty : int;
  disp_closures : int list;  (* closures containing $display (shared) *)
  mutable memos : memos;  (* the memoised wide-concat runs *)
  stats : stats;  (* shared *)
  runs : run_stats;
}

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
  match rest with
  | [] -> f0
  | [ p1 ] ->
      let w1 = ex_width p1 and f1 = int_fn p1 in
      fun () -> (f0 () lsl w1) lor f1 ()
  | _ ->
      let rest = Array.of_list rest in
      let ws = Array.map ex_width rest and fs = Array.map int_fn rest in
      fun () ->
        let acc = ref (f0 ()) in
        for k = 0 to Array.length fs - 1 do
          acc := (!acc lsl ws.(k)) lor fs.(k) ()
        done;
        !acc

(* [f], the pattern of a concat run over the parts [es], memoised while
   [create] lowers, which records the ids the parts read. A reader
   lowered later ([input_fn]) is not memoised: [notify] is fixed by
   then. *)
let memo_run st es f =
  match st.memos with
  | Memos _ -> f
  | Lowering ms ->
      let reads = ref [] in
      Compiled.exprs_ids (fun i -> if not (List.mem i !reads) then reads := i :: !reads) es;
      let m = { m_dirty = true; m_pat = 0 } in
      st.memos <- Lowering ((m, !reads) :: ms);
      fun () ->
        if m.m_dirty then (
          let p = f () in
          m.m_pat <- p;
          m.m_dirty <- false;
          p)
        else m.m_pat

(* The [Bits.pack] layout of a wide concat ([total > 63], every part at
   least 1 bit wide) of the compiled parts [es], lowered to [parts]:
   adjacent immediate parts group greedily, MSB first, into runs of at
   most 63 bits, each one [Fint] of their shift-or fold; wide parts are
   [Fvec]s. A run of two or more parts is memoised ([memo_run]); one
   part alone is the part's own closure. Fields stay in MSB-first
   order, so parts evaluate in the order [Bits.concat] would see
   them. *)
let concat_fields st es parts total =
  let fields = ref [] in
  let flush run k0 lo =
    match List.rev run with
    | [] -> ()
    | [ p ] -> fields := Bits.Fint (lo, int_fn p) :: !fields
    | p0 :: rest as ps ->
        let n = List.length ps in
        let run_es = List.filteri (fun k _ -> k >= k0 && k < k0 + n) es in
        fields := Bits.Fint (lo, memo_run st run_es (pack_ints p0 rest)) :: !fields
  in
  (* [hi]: bit offset just above part [k]; [run]/[k0]/[rw]: the open
     run's lowered parts (reversed), the index of its first part in
     [es], and its width *)
  let rec go hi k run k0 rw = function
    | [] -> flush run k0 hi
    | p :: rest ->
        let w = ex_width p in
        if not (Imm.fits w) then (
          flush run k0 hi;
          fields := Bits.Fvec (hi - w, bits_fn p) :: !fields;
          go (hi - w) (k + 1) [] (k + 1) 0 rest)
        else if rw + w <= Imm.max_width then go (hi - w) (k + 1) (p :: run) k0 (rw + w) rest
        else (
          flush run k0 hi;
          go (hi - w) (k + 1) [ p ] k w rest)
  in
  go total 0 [] 0 0 parts;
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
          let fields = concat_fields st es parts total in
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
  | Compiled.CNassign (l, e, cw) ->
      compile_store st l (lex st ~ctx:cw e) ~nba:false
  | Compiled.CNblock ss -> lseq st ~in_comb:true ss

(* ------------------------------------------------------------------ *)
(* Dirty-set scheduling                                                 *)
(* ------------------------------------------------------------------ *)

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

let rec mark_memos = function
  | [] -> ()
  | m :: tl ->
      m.m_dirty <- true;
      mark_memos tl

(* Every closure, sequential group and memoised concat run pending
   (checkpoint restore, [reset]): values written without notification
   must be re-read by everything. The superset is safe: re-running a
   clean closure or group is a no-op, and a clean run re-evaluates to
   the pattern it caches. [cdirty] has at least one slot, but an empty plan
   has nothing pending: the count is the plan's, as [create] leaves
   it. *)
let mark_all st =
  Array.fill st.cdirty 0 (Array.length st.cdirty) true;
  st.ncdirty <- Array.length st.plan;
  Array.fill st.gdirty 0 (Array.length st.gdirty) true;
  match st.memos with
  | Memos ms -> Array.iter (fun m -> m.m_dirty <- true) ms
  | Lowering _ -> ()

(* ------------------------------------------------------------------ *)
(* Scheduling plan                                                      *)
(* ------------------------------------------------------------------ *)

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
let seq_groups n_signals (seq : (Elaborate.clock_edge * Compiled.cstmt list) list) =
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
              Compiled.stmts_ids Targets
                (fun w ->
                  if stamp.(w) < 0 then stamp.(w) <- b
                  else if stamp.(w) <> b then (
                    contested.(w) <- contested.(w) lor bit;
                    any_contested := true))
                body)
          seq))
    [ (Elaborate.Pos, 1); (Elaborate.Neg, 2) ];
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
          Compiled.stmt_ids Targets
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
    let bit = if edge = Elaborate.Pos then 1 else 2 in
    let shared = ref false in
    if !any_contested then
      Compiled.stmts_ids Targets
        (fun w -> if contested.(w) land bit <> 0 then shared := true)
        stmts;
    if !shared || kinds land (has_display lor has_finish) <> 0 then (stmts, -1)
    else
      let g = !next in
      incr next;
      Compiled.stmts_ids Touches
        (fun i ->
          if stamp.(i) <> g then (
            stamp.(i) <- g;
            sens.(i) <- g :: sens.(i)))
        stmts;
      (stmts, g)
  in
  (List.map (fun (edge, groups) -> (edge, List.map (group edge) groups)) split_blocks, sens)

(* Everything the kernel derives from the compiled design alone, built
   once per [Simulator] plan and shared by every instance, which never
   writes into it. *)
type plan = {
  l_nodes : Compiled.cnode array;  (* topological order *)
  l_cidx : int array;  (* node rank -> the closure it is lowered into *)
  l_widths : int array;
  l_imm : bool array;  (* which ids live in the immediate bank *)
  l_csens : int list array;  (* signal id -> closures reading it *)
  l_disp : int list;  (* closures holding a $display *)
  l_pos : seq_edge;
  l_neg : seq_edge;
  l_gsens : int list array;  (* signal id -> flags of the groups touching it *)
  l_stats : stats;
}

let plan tab ~nodes ~reads ~seq =
  let n = Compiled.n_signals tab in
  let widths = Array.init n (Compiled.width tab) in
  let imm =
    Array.init n (fun i -> Compiled.depth tab i = None && Imm.fits widths.(i))
  in
  let n_imm = Array.fold_left (fun a b -> if b then a + 1 else a) 0 imm in
  (* node-level sensitivity: signal id -> ranks of the nodes reading it *)
  let sens = Array.make n [] in
  Array.iteri (fun r ids -> List.iter (fun i -> sens.(i) <- r :: sens.(i)) ids) reads;
  (* single-reader assign chains fuse into one closure: when node r-1 is
     an assign whose sole target feeds exactly one node and that node is
     r, the pair always runs back to back in the full sweep, so folding
     them is behavior-preserving and halves the plan-iteration overhead
     on long chains. [cidx] records the closure each node lands in, so
     node-level sensitivity lifts to the closure level. *)
  let feeds_only r = function
    | Compiled.CNblock _ -> false
    | Compiled.CNassign _ as a -> (
        match Compiled.node_ids Targets a with [ s ] -> sens.(s) = [ r ] | _ -> false)
  in
  let nnodes = Array.length nodes in
  let cidx = Array.make nnodes 0 and nfused = ref 0 in
  for r = 1 to nnodes - 1 do
    if feeds_only r nodes.(r - 1) then (
      incr nfused;
      cidx.(r) <- cidx.(r - 1))
    else cidx.(r) <- cidx.(r - 1) + 1
  done;
  let closures ranks = List.sort_uniq Int.compare (List.map (fun r -> cidx.(r)) ranks) in
  let disp = ref [] in
  Array.iteri
    (fun r node ->
      match node with
      | Compiled.CNblock ss when stmts_kinds 0 ss land has_display <> 0 ->
          disp := r :: !disp
      | _ -> ())
    nodes;
  let groups, gsens = seq_groups n seq in
  let pos = seq_edge groups Elaborate.Pos and neg = seq_edge groups Elaborate.Neg in
  {
    l_nodes = nodes;
    l_cidx = cidx;
    l_widths = widths;
    l_imm = imm;
    l_csens = Array.map closures sens;
    l_disp = closures !disp;
    l_pos = pos;
    l_neg = neg;
    l_gsens = gsens;
    l_stats =
      {
        lw_nodes = nnodes;
        lw_closures = nnodes - !nfused;
        lw_fused = !nfused;
        lw_imm = n_imm;
        lw_boxed = n - n_imm;
        lw_seq = pos.se_blocks + neg.se_blocks;
      };
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

(* Copy the immediate-bank signals' values in from [env]. *)
let seed_ints st =
  for i = 0 to Array.length st.ints - 1 do
    if st.imm.(i) then st.ints.(i) <- Imm.of_bits (Compiled.vec st.env i)
  done

(* The instance's closures capture it, so the arrays they fill are
   allocated with it and filled once it exists. *)
let create p ~env ~finished ~runs ~notify:ext =
  let edge se = { e_run = Array.make (Array.length se.se_stmts) ignore; e_seq = se } in
  let nclosures = p.l_stats.lw_closures in
  let st =
    {
      env;
      ints = Array.make (Array.length p.l_widths) 0;
      imm = p.l_imm;
      widths = p.l_widths;
      finished;
      notify = ignore;
      pb = [||];
      pb_len = 0;
      pboxed = [];
      displays = false;
      emit = ignore;
      plan = Array.make nclosures ignore;
      seq_pos = edge p.l_pos;
      seq_neg = edge p.l_neg;
      gdirty = Array.make (p.l_pos.se_flagged + p.l_neg.se_flagged) true;
      gsens = p.l_gsens;
      csens = p.l_csens;
      cdirty = Array.make (max nclosures 1) true;
      ncdirty = nclosures;
      disp_closures = p.l_disp;
      memos = Lowering [];
      stats = p.l_stats;
      runs;
    }
  in
  seed_ints st;
  Array.iteri
    (fun r node ->
      let c = lower_node st node and k = p.l_cidx.(r) in
      st.plan.(k) <- (if r > 0 && p.l_cidx.(r - 1) = k then seq2 st.plan.(k) c else c))
    p.l_nodes;
  let lower_edge e =
    Array.iteri (fun k stmts -> e.e_run.(k) <- lseq st ~in_comb:false stmts) e.e_seq.se_stmts
  in
  lower_edge st.seq_pos;
  lower_edge st.seq_neg;
  let csens = st.csens and gdirty = st.gdirty and gsens = st.gsens in
  match st.memos with
  | Memos _ | Lowering [] ->
      st.memos <- Memos [||];
      st.notify <-
        (fun i ->
          ext i;
          mark_closures st csens.(i);
          mark_groups gdirty gsens.(i));
      st
  | Lowering ms ->
      (* signal id -> the memoised runs reading it, for this instance *)
      let msens = Array.make (Array.length st.ints) [] in
      List.iter (fun (m, reads) -> List.iter (fun i -> msens.(i) <- m :: msens.(i)) reads) ms;
      st.memos <- Memos (Array.of_list (List.rev_map fst ms));
      st.notify <-
        (fun i ->
          ext i;
          mark_closures st csens.(i);
          mark_groups gdirty gsens.(i);
          mark_memos msens.(i));
      st

(* Back to the run state [create] leaves, once the caller has returned
   [env] to its initial values: the immediate bank re-seeded from it,
   no deferred writes. Scheduling is the caller's [mark_all], the run
   counters its [clear_run_stats]. *)
let reset st =
  seed_ints st;
  st.pb_len <- 0;
  st.pboxed <- [];
  st.displays <- false

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

(* Closures currently pending. *)
let dirty_count st = st.ncdirty

(* One settle pass, counted in [st.runs] with the closures pending at
   entry (before display forcing). Dirty flags set during the pass (by
   writes this settle performs) stay pending for the next settle. The
   plan is in topological order, so every producer runs before its
   consumers; only a self-dependency the cycle check admits can mark an
   earlier-or-equal closure, and that stays pending exactly as the
   once-per-sweep full plan would leave it. *)
let settle st ~displays =
  st.displays <- displays;
  let plan = st.plan in
  let n = Array.length plan in
  let dirty = st.ncdirty in
  (* $display side effects must fire on every display-enabled settle,
     as in the full sweep, even when inputs are stable *)
  if displays then mark_closures st st.disp_closures;
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
  count_settle st.runs ~dirty ~run:!evaluated ~size:n

(* Run one edge's groups in order. A skippable group runs only when its
   flag is set, and its flag is cleared before it runs, so a change the
   group causes itself (a blocking write, or its own commit) wakes it
   for the next edge. A clean group is skipped: nothing it reads or
   writes changed since it last ran, so it would queue the writes it
   queued then, and those changed nothing when they were committed. *)
let run_edge st edge =
  let e = match edge with Elaborate.Pos -> st.seq_pos | Elaborate.Neg -> st.seq_neg in
  let run = e.e_run and flag = e.e_seq.se_flag and gdirty = st.gdirty in
  let n = Array.length run in
  let r = st.runs in
  r.rs_edges <- r.rs_edges + e.e_seq.se_blocks;
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
  r.rs_seq_skipped <- r.rs_seq_skipped + !skipped

(* Commit deferred non-blocking writes: the flat immediate buffer in
   push order, then boxed writes in program order (the boxed list is
   reversed, as in the reference executor). Per-signal last-write-wins
   is preserved because a signal's writes always land in one buffer. *)
let commit st =
  let n = st.pb_len in
  if n > 0 then (
    st.runs.rs_commit_imm <- st.runs.rs_commit_imm + (n / 3);
    let b = st.pb and ints = st.ints in
    let i = ref 0 in
    while !i < n do
      let id = b.(!i) in
      let nv = ints.(id) land lnot b.(!i + 1) lor b.(!i + 2) in
      if ints.(id) <> nv then (
        ints.(id) <- nv;
        st.notify id);
      i := !i + 3
    done;
    st.pb_len <- 0);
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
