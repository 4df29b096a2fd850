(* Deterministic, seed-driven AST mutation engine.

   Thirteen injection templates, one per study subclass (section 3),
   each able to (a) count its candidate rewrite sites in a design and
   (b) rewrite the k-th one. Both run the same single fixed-order
   traversal carrying a site counter (a "probe"): counting is a probe
   that never fires, applying is a probe targeting site k. That makes
   (template, site) a stable coordinate system over a given design -
   the replay and minimization guarantees of the fuzz driver reduce to
   this file visiting nodes in one deterministic order.

   Mutations never add, remove, or rename declarations: a mutant keeps
   every port and signal a testbed harness observes, so the same
   stimulus/sample hooks drive base design and mutant alike. *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Pp = Fpga_hdl.Pp_verilog
module Taxonomy = Fpga_study.Taxonomy
module Width = Fpga_analysis.Width
module Lint = Fpga_analysis.Lint
module Telemetry = Fpga_telemetry.Telemetry
open Ast

type mutation = {
  mu_template : Taxonomy.subclass;
  mu_site : int;
  mu_detail : string;
}

let mutation_to_string mu =
  Printf.sprintf "%s@%d: %s"
    (Taxonomy.subclass_name mu.mu_template)
    mu.mu_site mu.mu_detail

let templates = Taxonomy.all_subclasses

(* ------------------------------------------------------------------ *)
(* Deterministic PRNG (splitmix64)                                     *)
(* ------------------------------------------------------------------ *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rng_int r bound =
  if bound <= 0 then invalid_arg "Mutate.rng_int: bound <= 0";
  Int64.to_int (Int64.rem (Int64.logand (next64 r) Int64.max_int) (Int64.of_int bound))

(* The sub-seed of mutant [index] under campaign [seed]: hash the pair
   through the same mixer, so adjacent indices share no stream prefix
   and a mutant can be regenerated in isolation on any worker. *)
let derive seed index =
  let r = rng seed in
  let a = next64 r in
  let r2 = { s = Int64.logxor a (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L) } in
  Int64.to_int (Int64.logand (next64 r2) 0x3FFFFFFFFFFFFFFFL)

(* ------------------------------------------------------------------ *)
(* Site probes and the rewriting traversal                             *)
(* ------------------------------------------------------------------ *)

(* A probe is threaded through one traversal: every candidate site
   calls [hit], which numbers the site and fires on the target index.
   Counting is a probe with target -1 (never fires). *)
type probe = { mutable seen : int; target : int; mutable desc : string option }

let probe target = { seen = 0; target; desc = None }

let hit p describe =
  let k = p.seen in
  p.seen <- p.seen + 1;
  if k = p.target then (
    p.desc <- Some (describe ());
    true)
  else false

(* Rewrite hooks; each returns [Some replacement] exactly when its
   probe fired on the node. The module argument is the (unmutated)
   enclosing module, used for width context. *)
type visitor = {
  v_expr : module_def -> expr -> expr option;
  v_lvalue : module_def -> lvalue -> lvalue option;
  v_stmt : module_def -> in_seq:bool -> stmt -> stmt option;
  v_always : module_def -> always -> always option;
  v_instance : module_def -> instance -> instance option;
}

let nil =
  {
    v_expr = (fun _ _ -> None);
    v_lvalue = (fun _ _ -> None);
    v_stmt = (fun _ ~in_seq:_ _ -> None);
    v_always = (fun _ _ -> None);
    v_instance = (fun _ _ -> None);
  }

(* Children first, then the hook on the (possibly rebuilt) node. All
   sequencing is explicit let-bound so the visit order is the written
   order, not OCaml's argument-evaluation order. Case match labels are
   deliberately not traversed: label rewrites belong to the
   Incomplete_implementation template, not to expression templates. *)
let rec map_expr v m e =
  let e' =
    match e with
    | Const _ | Ident _ | Range _ -> e
    | Index (n, i) -> Index (n, map_expr v m i)
    | Unop (op, a) -> Unop (op, map_expr v m a)
    | Binop (op, a, b) ->
        let a = map_expr v m a in
        let b = map_expr v m b in
        Binop (op, a, b)
    | Cond (c, a, b) ->
        let c = map_expr v m c in
        let a = map_expr v m a in
        let b = map_expr v m b in
        Cond (c, a, b)
    | Concat es -> Concat (List.map (map_expr v m) es)
    | Repeat (n, a) -> Repeat (n, map_expr v m a)
  in
  match v.v_expr m e' with Some r -> r | None -> e'

let rec map_lvalue v m l =
  let l' =
    match l with
    | Lident _ | Lrange _ -> l
    | Lindex (n, i) -> Lindex (n, map_expr v m i)
    | Lconcat ls -> Lconcat (List.map (map_lvalue v m) ls)
  in
  match v.v_lvalue m l' with Some r -> r | None -> l'

let rec map_stmt v m ~in_seq s =
  let s' =
    match s with
    | Blocking (l, e) ->
        let l = map_lvalue v m l in
        let e = map_expr v m e in
        Blocking (l, e)
    | Nonblocking (l, e) ->
        let l = map_lvalue v m l in
        let e = map_expr v m e in
        Nonblocking (l, e)
    | If (c, t, f) ->
        let c = map_expr v m c in
        let t = List.map (map_stmt v m ~in_seq) t in
        let f = List.map (map_stmt v m ~in_seq) f in
        If (c, t, f)
    | Case (e, items, default) ->
        let e = map_expr v m e in
        let items =
          List.map
            (fun it -> { it with body = List.map (map_stmt v m ~in_seq) it.body })
            items
        in
        let default = Option.map (List.map (map_stmt v m ~in_seq)) default in
        Case (e, items, default)
    | Display (fmt, args) -> Display (fmt, List.map (map_expr v m) args)
    | Finish -> Finish
  in
  match v.v_stmt m ~in_seq s' with Some r -> r | None -> s'

let map_module v m =
  let assigns =
    List.map
      (fun (l, e) ->
        let l = map_lvalue v m l in
        let e = map_expr v m e in
        (l, e))
      m.assigns
  in
  let instances =
    List.map
      (fun i ->
        let conns =
          List.map (fun c -> { c with actual = map_expr v m c.actual }) i.conns
        in
        let i' = { i with conns } in
        match v.v_instance m i' with Some r -> r | None -> i')
      m.instances
  in
  let always_blocks =
    List.map
      (fun a ->
        let in_seq = a.sens <> Star in
        let stmts = List.map (map_stmt v m ~in_seq) a.stmts in
        let a' = { a with stmts } in
        match v.v_always m a' with Some r -> r | None -> a')
      m.always_blocks
  in
  { m with assigns; instances; always_blocks }

let map_design v (d : design) = { modules = List.map (map_module v) d.modules }

(* ------------------------------------------------------------------ *)
(* Template helpers                                                    *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Land -> "&&"
  | Lor -> "||"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Shl -> "<<"
  | Shr -> ">>"
  | Ashr -> ">>>"

(* Every operator has a near-miss twin, so every binop is a site. *)
let swap_binop = function
  | Add -> Sub
  | Sub -> Add
  | Mul -> Add
  | Div -> Mul
  | Mod -> Div
  | Band -> Bor
  | Bor -> Band
  | Bxor -> Bor
  | Land -> Lor
  | Lor -> Land
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Le
  | Le -> Lt
  | Gt -> Ge
  | Ge -> Gt
  | Shl -> Shr
  | Shr -> Shl
  | Ashr -> Shr

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let reset_like name =
  let n = String.lowercase_ascii name in
  contains n "rst" || contains n "reset"

let mentions_reset e = List.exists reset_like (expr_reads e)

(* Static width of an expression, None when it cannot be determined -
   a site guard, so it must be total. *)
let expr_width m e =
  match Width.of_expr m e with
  | w -> Some w
  | exception _ -> None

(* The module's clock, for the @* -> @(posedge clk) sensitivity
   reduction: the first edge-triggered block's clock. *)
let module_clock m =
  List.find_map
    (fun a -> match a.sens with Posedge c | Negedge c -> Some c | Star -> None)
    m.always_blocks

(* ------------------------------------------------------------------ *)
(* The thirteen templates                                              *)
(* ------------------------------------------------------------------ *)

(* 3.4.x Erroneous expression: swap an operator for its near-miss. *)
let erroneous_expression p =
  {
    nil with
    v_expr =
      (fun _m e ->
        match e with
        | Binop (op, a, b) ->
            let op' = swap_binop op in
            if
              hit p (fun () ->
                  Printf.sprintf "operator '%s' -> '%s' in %s" (binop_name op)
                    (binop_name op') (Pp.expr_str e))
            then Some (Binop (op', a, b))
            else None
        | _ -> None);
  }

(* 3.2.x Producer/consumer mismatch: perturb a constant by one. *)
let producer_consumer_mismatch p =
  {
    nil with
    v_expr =
      (fun _m e ->
        match e with
        | Const c ->
            let c' = Bits.add c (Bits.one (Bits.width c)) in
            if
              hit p (fun () ->
                  Printf.sprintf "constant %s -> %s" (Pp.const_str c)
                    (Pp.const_str c'))
            then Some (Const c')
            else None
        | _ -> None);
  }

(* 3.2.1 Buffer overflow: push a memory/bit index past its bound. *)
let buffer_overflow p =
  let bump m n i mk =
    match expr_width m i with
    | Some w when w >= 1 ->
        if
          hit p (fun () ->
              Printf.sprintf "index %s[%s] off by one (+1)" n (Pp.expr_str i))
        then Some (mk (Binop (Add, i, Const (Bits.one w))))
        else None
    | _ -> None
  in
  {
    nil with
    v_expr =
      (fun m e ->
        match e with
        | Index (n, i) -> bump m n i (fun i' -> Index (n, i'))
        | _ -> None);
    v_lvalue =
      (fun m l ->
        match l with
        | Lindex (n, i) -> bump m n i (fun i' -> Lindex (n, i'))
        | _ -> None);
  }

(* 3.2.3 Misindexing: shift both slice bounds by one. *)
let misindexing p =
  let shifted m n hi lo =
    match Width.signal_width m n with
    | Some w when hi + 1 < w -> Some (hi + 1, lo + 1)
    | Some _ when lo > 0 -> Some (hi - 1, lo - 1)
    | _ -> None
  in
  let describe n hi lo hi' lo' () =
    Printf.sprintf "slice %s[%d:%d] -> %s[%d:%d]" n hi lo n hi' lo'
  in
  {
    nil with
    v_expr =
      (fun m e ->
        match e with
        | Range (n, hi, lo) -> (
            match shifted m n hi lo with
            | Some (hi', lo') ->
                if hit p (describe n hi lo hi' lo') then Some (Range (n, hi', lo'))
                else None
            | None -> None)
        | _ -> None);
    v_lvalue =
      (fun m l ->
        match l with
        | Lrange (n, hi, lo) -> (
            match shifted m n hi lo with
            | Some (hi', lo') ->
                if hit p (describe n hi lo hi' lo') then
                  Some (Lrange (n, hi', lo'))
                else None
            | None -> None)
        | _ -> None);
  }

(* 3.2.2 Bit truncation: narrow a part select by one bit. *)
let bit_truncation p =
  let describe kind n hi lo () =
    Printf.sprintf "%s %s[%d:%d] -> %s[%d:%d]" kind n hi lo n (hi - 1) lo
  in
  {
    nil with
    v_expr =
      (fun _m e ->
        match e with
        | Range (n, hi, lo) when hi > lo ->
            if hit p (describe "slice" n hi lo) then Some (Range (n, hi - 1, lo))
            else None
        | _ -> None);
    v_lvalue =
      (fun _m l ->
        match l with
        | Lrange (n, hi, lo) when hi > lo ->
            if hit p (describe "write" n hi lo) then Some (Lrange (n, hi - 1, lo))
            else None
        | _ -> None);
  }

(* 3.2.4 Endianness mismatch: reverse the parts of a concatenation. *)
let endianness_mismatch p =
  {
    nil with
    v_expr =
      (fun _m e ->
        match e with
        | Concat es when List.length es >= 2 ->
            if
              hit p (fun () ->
                  Printf.sprintf "concat %s reversed" (Pp.expr_str e))
            then Some (Concat (List.rev es))
            else None
        | _ -> None);
    v_lvalue =
      (fun _m l ->
        match l with
        | Lconcat ls when List.length ls >= 2 ->
            if
              hit p (fun () ->
                  Printf.sprintf "concat %s reversed" (Pp.lvalue_str l))
            then Some (Lconcat (List.rev ls))
            else None
        | _ -> None);
  }

(* 3.2.5 Failure to update: a register holds its value forever. *)
let failure_to_update p =
  {
    nil with
    v_stmt =
      (fun _m ~in_seq s ->
        match s with
        | Nonblocking (Lident n, e) when in_seq && e <> Ident n ->
            if
              hit p (fun () ->
                  Printf.sprintf "register %s never updated (holds value)" n)
            then Some (Nonblocking (Lident n, Ident n))
            else None
        | _ -> None);
  }

(* 3.3.1 Deadlock: negate a (non-reset) branch condition. *)
let deadlock p =
  {
    nil with
    v_stmt =
      (fun _m ~in_seq:_ s ->
        match s with
        | If (c, t, f) when not (mentions_reset c) ->
            if
              hit p (fun () ->
                  Printf.sprintf "if-condition (%s) negated" (Pp.expr_str c))
            then Some (If (not_expr c, t, f))
            else None
        | _ -> None);
  }

(* 3.3.4 Signal asynchrony: swap assignment timing semantics. *)
let signal_asynchrony p =
  {
    nil with
    v_stmt =
      (fun _m ~in_seq:_ s ->
        match s with
        | Blocking (l, e) ->
            if
              hit p (fun () ->
                  Printf.sprintf "%s = ... made non-blocking" (Pp.lvalue_str l))
            then Some (Nonblocking (l, e))
            else None
        | Nonblocking (l, e) ->
            if
              hit p (fun () ->
                  Printf.sprintf "%s <= ... made blocking" (Pp.lvalue_str l))
            then Some (Blocking (l, e))
            else None
        | _ -> None);
  }

(* 3.3.5 Use without valid: drop the right conjunct of a guard. *)
let use_without_valid p =
  {
    nil with
    v_expr =
      (fun _m e ->
        match e with
        | Binop (Land, a, b) ->
            if
              hit p (fun () ->
                  Printf.sprintf "guard (%s && %s) -> %s" (Pp.expr_str a)
                    (Pp.expr_str b) (Pp.expr_str a))
            then Some a
            else None
        | _ -> None);
  }

(* 3.3.2 Protocol violation: flip a clock edge, reduce a sensitivity
   list, or flip a reset polarity. *)
let protocol_violation p =
  {
    nil with
    v_stmt =
      (fun _m ~in_seq:_ s ->
        match s with
        | If (c, t, f) when mentions_reset c ->
            if
              hit p (fun () ->
                  Printf.sprintf "reset polarity flipped: if (%s)" (Pp.expr_str c))
            then Some (If (not_expr c, t, f))
            else None
        | _ -> None);
    v_always =
      (fun m a ->
        match a.sens with
        | Posedge c ->
            if
              hit p (fun () ->
                  Printf.sprintf "posedge %s -> negedge %s" c c)
            then Some { a with sens = Negedge c }
            else None
        | Negedge c ->
            if
              hit p (fun () ->
                  Printf.sprintf "negedge %s -> posedge %s" c c)
            then Some { a with sens = Posedge c }
            else None
        | Star -> (
            match module_clock m with
            | Some clk ->
                if
                  hit p (fun () ->
                      Printf.sprintf "sensitivity @* -> @(posedge %s)" clk)
                then Some { a with sens = Posedge clk }
                else None
            | None -> None));
  }

(* 3.4.1 API misuse: perturb an IP parameter or swap two same-width
   connections of an instance. *)
let api_misuse p =
  {
    nil with
    v_instance =
      (fun m i ->
        let result = ref None in
        List.iteri
          (fun idx (k, pv) ->
            if
              hit p (fun () ->
                  Printf.sprintf "parameter %s: %d -> %d on %s" k pv (pv + 1)
                    i.inst_name)
            then
              result :=
                Some
                  {
                    i with
                    params =
                      List.mapi
                        (fun j (k', v') -> if j = idx then (k', v' + 1) else (k', v'))
                        i.params;
                  })
          i.params;
        let conns = Array.of_list i.conns in
        for j = 0 to Array.length conns - 2 do
          let a = conns.(j) and b = conns.(j + 1) in
          match (expr_width m a.actual, expr_width m b.actual) with
          | Some wa, Some wb when wa = wb && a.actual <> b.actual ->
              if
                hit p (fun () ->
                    Printf.sprintf "connections .%s/.%s swapped on %s" a.formal
                      b.formal i.inst_name)
              then (
                let swapped = Array.copy conns in
                swapped.(j) <- { a with actual = b.actual };
                swapped.(j + 1) <- { b with actual = a.actual };
                result := Some { i with conns = Array.to_list swapped })
          | _ -> ()
        done;
        !result);
  }

(* 3.4.3 Incomplete implementation: drop a case arm or the default. *)
let incomplete_implementation p =
  {
    nil with
    v_stmt =
      (fun _m ~in_seq:_ s ->
        match s with
        | Case (e, items, default) ->
            let result = ref None in
            let n = List.length items in
            List.iteri
              (fun k it ->
                if n >= 2 || default <> None then
                  if
                    hit p (fun () ->
                        Printf.sprintf "case arm '%s' dropped"
                          (String.concat ", "
                             (List.map Pp.expr_str it.match_exprs)))
                  then
                    result :=
                      Some (Case (e, List.filteri (fun j _ -> j <> k) items, default)))
              items;
            (match default with
            | Some _ when items <> [] ->
                if hit p (fun () -> "case default dropped") then
                  result := Some (Case (e, items, None))
            | _ -> ());
            !result
        | _ -> None);
  }

let visitor_of (t : Taxonomy.subclass) (p : probe) : visitor =
  match t with
  | Taxonomy.Buffer_overflow -> buffer_overflow p
  | Taxonomy.Bit_truncation -> bit_truncation p
  | Taxonomy.Misindexing -> misindexing p
  | Taxonomy.Endianness_mismatch -> endianness_mismatch p
  | Taxonomy.Failure_to_update -> failure_to_update p
  | Taxonomy.Deadlock -> deadlock p
  | Taxonomy.Producer_consumer_mismatch -> producer_consumer_mismatch p
  | Taxonomy.Signal_asynchrony -> signal_asynchrony p
  | Taxonomy.Use_without_valid -> use_without_valid p
  | Taxonomy.Protocol_violation -> protocol_violation p
  | Taxonomy.Api_misuse -> api_misuse p
  | Taxonomy.Incomplete_implementation -> incomplete_implementation p
  | Taxonomy.Erroneous_expression -> erroneous_expression p

(* ------------------------------------------------------------------ *)
(* Public site API                                                     *)
(* ------------------------------------------------------------------ *)

let site_count t d =
  let p = probe (-1) in
  ignore (map_design (visitor_of t p) d);
  p.seen

let apply t ~site d =
  if site < 0 then None
  else
    let p = probe site in
    let d' = map_design (visitor_of t p) d in
    match p.desc with
    | Some detail ->
        Some (d', { mu_template = t; mu_site = site; mu_detail = detail })
    | None -> None

let apply_all d muts =
  let rec go d acc = function
    | [] -> Some (d, List.rev acc)
    | mu :: rest -> (
        match apply mu.mu_template ~site:mu.mu_site d with
        | None -> None
        | Some (d', mu') -> go d' (mu' :: acc) rest)
  in
  go d [] muts

(* Every template's [site_count] at once: one traversal that calls each
   template's hooks on every node, each feeding its own counting probe.
   Counting probes never fire, so no hook rewrites anything and every
   probe sees exactly the nodes, in exactly the order, of its own
   template's traversal. *)
let site_counts d =
  let probes = List.map (fun t -> (t, probe (-1))) templates in
  let vs = List.map (fun (t, p) -> visitor_of t p) probes in
  let each f =
    List.iter (fun v -> ignore (f v)) vs;
    None
  in
  let all =
    {
      v_expr = (fun m e -> each (fun v -> v.v_expr m e));
      v_lvalue = (fun m l -> each (fun v -> v.v_lvalue m l));
      v_stmt = (fun m ~in_seq s -> each (fun v -> v.v_stmt m ~in_seq s));
      v_always = (fun m a -> each (fun v -> v.v_always m a));
      v_instance = (fun m i -> each (fun v -> v.v_instance m i));
    }
  in
  ignore (map_design all d);
  List.map (fun (t, p) -> (t, p.seen)) probes

(* ------------------------------------------------------------------ *)
(* Facts of an unmutated design                                        *)
(* ------------------------------------------------------------------ *)

(* The rules [Lint.rules] declares [Error]: the only ones the gate reads. *)
let error_rules =
  List.filter_map
    (fun (r, s, _) -> if s = Lint.Error then Some r else None)
    Lint.rules

(* The [Error] lint findings of a design, as "module:rule:signal"
   strings. Only the error rules run: [Lint.check] sorts its findings,
   so this is the full lint filtered to [Error]. *)
let lint_errors d =
  Lint.check_design ~only:error_rules d
  |> List.concat_map (fun (mn, fs) ->
         List.map
           (fun (f : Lint.finding) -> mn ^ ":" ^ f.Lint.rule ^ ":" ^ f.Lint.signal)
           fs)

(* Every mutant of a fuzz target starts from, and is gated against, the
   same unmutated design: [Bug.design_of]'s shared parse. Its lint
   errors and site counts are computed once per process and shared by
   every domain, keyed on the physical design. Only designs
   [Bug.design_of] shares are admitted, so the registry bounds the
   table and no mutant ever enters it; any other design is analysed
   afresh on every call. Lookups are lock-free: a miss computes outside
   any lock and publishes with [compare_and_set], and a domain that
   loses the race returns the winner's entry (an equal one). *)
type facts = {
  fa_lint : string list;
  fa_sites : (Taxonomy.subclass * int) list;
}

let facts_table : (design * facts) list Atomic.t = Atomic.make []

let shared_facts d =
  match List.assq_opt d (Atomic.get facts_table) with
  | Some f -> Some f
  | None when not (Fpga_testbed.Bug.shared d) -> None
  | None ->
      let f = { fa_lint = lint_errors d; fa_sites = site_counts d } in
      let rec publish () =
        let seen = Atomic.get facts_table in
        match List.assq_opt d seen with
        | Some winner -> winner
        | None ->
            if Atomic.compare_and_set facts_table seen ((d, f) :: seen) then f
            else publish ()
      in
      Some (publish ())

let sites_of d =
  match shared_facts d with Some f -> f.fa_sites | None -> site_counts d

let lint_errors_of d =
  match shared_facts d with Some f -> f.fa_lint | None -> lint_errors d

(* Consumes the stream exactly as drawing a template among the
   applicable ones, then a site within it, always has: two draws. *)
let pick r d =
  match List.filter (fun (_, n) -> n > 0) (sites_of d) with
  | [] -> None
  | ts ->
      let t, n = List.nth ts (rng_int r (List.length ts)) in
      apply t ~site:(rng_int r n) d

(* ------------------------------------------------------------------ *)
(* Validity gate                                                       *)
(* ------------------------------------------------------------------ *)

(* Static width check: every expression in the design must have a
   determinable width (the property the simulator's compile assumes). *)
let check_widths (d : design) =
  let exception Bad of string in
  try
    List.iter
      (fun m ->
        let chk e =
          match Width.of_expr m e with
          | (_ : int) -> ()
          | exception Width.Unknown_width s -> raise (Bad ("unknown width: " ^ s))
          | exception e -> raise (Bad (Printexc.to_string e))
        in
        let rec chk_lv = function
          | Lident _ | Lrange _ -> ()
          | Lindex (_, i) -> chk i
          | Lconcat ls -> List.iter chk_lv ls
        in
        let rec chk_stmt = function
          | Blocking (l, e) | Nonblocking (l, e) ->
              chk_lv l;
              chk e
          | If (c, t, f) ->
              chk c;
              List.iter chk_stmt t;
              List.iter chk_stmt f
          | Case (e, items, default) ->
              chk e;
              List.iter
                (fun it ->
                  List.iter chk it.match_exprs;
                  List.iter chk_stmt it.body)
                items;
              Option.iter (List.iter chk_stmt) default
          | Display (_, args) -> List.iter chk args
          | Finish -> ()
        in
        List.iter
          (fun (l, e) ->
            chk_lv l;
            chk e)
          m.assigns;
        List.iter
          (fun (i : instance) -> List.iter (fun c -> chk c.actual) i.conns)
          m.instances;
        List.iter (fun a -> List.iter chk_stmt a.stmts) m.always_blocks)
      d.modules;
    Ok ()
  with Bad s -> Error s

let validate_ok_counter = Telemetry.Counter.make "fuzz.validate_ok"
let validate_reject_counter = Telemetry.Counter.make "fuzz.validate_rejects"

let validate ~top ~baseline (d : design) =
  Telemetry.span "fuzz.validate" @@ fun () ->
  let result =
    match
      Telemetry.span "fuzz.validate.reparse" (fun () ->
          Fpga_hdl.Parser.parse_design (Pp.design_to_string d))
    with
    | exception Fpga_hdl.Parser.Parse_error (msg, line) ->
        Error (Printf.sprintf "does not re-parse: %s (line %d)" msg line)
    | exception e -> Error ("does not re-parse: " ^ Printexc.to_string e)
    | reparsed -> (
        match
          Telemetry.span "fuzz.validate.elaborate" (fun () ->
              Fpga_sim.Elaborate.elaborate reparsed ~top)
        with
        | exception Fpga_sim.Elaborate.Elaboration_error msg ->
            Error ("does not elaborate: " ^ msg)
        | exception e -> Error ("does not elaborate: " ^ Printexc.to_string e)
        | flat -> (
            match
              Telemetry.span "fuzz.validate.width" (fun () ->
                  check_widths reparsed)
            with
            | Error e -> Error ("width check: " ^ e)
            | Ok () -> (
                let introduced =
                  Telemetry.span "fuzz.validate.lint" (fun () ->
                      let base_errs = lint_errors_of baseline in
                      List.filter
                        (fun f -> not (List.mem f base_errs))
                        (lint_errors reparsed))
                in
                if introduced <> [] then
                  Error ("lint: " ^ String.concat "; " introduced)
                else
                  (* the plan compile raises the cycle; a brute-force
                     instance builds no lowered closures around it, and
                     the mutant's runs reuse the plan it leaves *)
                  match
                    Telemetry.span "fuzz.validate.cycle_check" (fun () ->
                        Fpga_sim.Simulator.create
                          ~kernel:Fpga_sim.Simulator.Brute_force flat)
                  with
                  | exception Fpga_sim.Simulator.Combinational_cycle sigs ->
                      Error
                        ("combinational cycle: " ^ String.concat " -> " sigs)
                  | exception e ->
                      Error ("simulator rejects: " ^ Printexc.to_string e)
                  | (_ : Fpga_sim.Simulator.t) -> Ok reparsed)))
  in
  (match result with
  | Ok _ -> Telemetry.Counter.incr validate_ok_counter
  | Error _ -> Telemetry.Counter.incr validate_reject_counter);
  result
