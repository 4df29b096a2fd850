(* Register dependency analysis (Dependency Monitor, section 4.3).

   An edge [src -> dst] means the value of [src] can influence the value
   of [dst]. Sequential edges cross a clock cycle; combinational edges
   do not. Data edges come from the right-hand side of an assignment,
   control edges from its path constraint. *)

module Ast = Fpga_hdl.Ast

type edge_kind = Data | Control
type timing = Sequential | Combinational

type edge = {
  src : string;
  dst : string;
  kind : edge_kind;
  timing : timing;
  cond : Ast.expr;  (* path constraint of the assignment *)
}

type graph = { edges : edge list; module_name : string }

let edges_of_assignment ~timing (l, rhs, cond) =
  let dsts = Ast.dedup (Ast.lvalue_bases l) in
  let data_srcs = Ast.dedup (Ast.expr_reads rhs @ Ast.lvalue_reads l) in
  let ctrl_srcs = Ast.dedup (Ast.expr_reads cond) in
  List.concat_map
    (fun dst ->
      List.map (fun src -> { src; dst; kind = Data; timing; cond }) data_srcs
      @ List.map (fun src -> { src; dst; kind = Control; timing; cond }) ctrl_srcs)
    dsts

(* IP instances contribute the edges given by their models. *)
let of_module ?(ip_edges = []) (m : Ast.module_def) : graph =
  let seq_edges =
    List.concat_map
      (fun (a : Ast.always) ->
        let timing =
          match a.Ast.sens with
          | Ast.Posedge _ | Ast.Negedge _ -> Sequential
          | Ast.Star -> Combinational
        in
        List.concat_map
          (edges_of_assignment ~timing)
          (Path_constraint.assignments_of_always a))
      m.Ast.always_blocks
  in
  let comb_edges =
    List.concat_map
      (fun (l, e) ->
        edges_of_assignment ~timing:Combinational (l, e, Ast.true_expr))
      m.Ast.assigns
  in
  { edges = seq_edges @ comb_edges @ ip_edges; module_name = m.Ast.mod_name }

let incoming g dst = List.filter (fun e -> e.dst = dst) g.edges

(* Registers that may influence [target] within [cycles] clock cycles,
   following combinational edges freely. Returns the dependency set,
   including [target] itself. Control dependencies are included unless
   [data_only]. *)
let backward_closure ?(data_only = false) (g : graph) ~target ~cycles :
    string list =
  let keep e = (not data_only) || e.kind = Data in
  (* state: (signal, remaining cycle budget); visit tracking keeps the
     best (largest) remaining budget seen per signal *)
  let best = Hashtbl.create 16 in
  let rec visit name budget =
    let seen = Hashtbl.find_opt best name in
    let better = match seen with None -> true | Some b -> budget > b in
    if better then (
      Hashtbl.replace best name budget;
      List.iter
        (fun e ->
          if keep e then
            match e.timing with
            | Combinational -> visit e.src budget
            | Sequential -> if budget > 0 then visit e.src (budget - 1))
        (incoming g name))
  in
  visit target cycles;
  Hashtbl.fold (fun name _ acc -> name :: acc) best []
  |> List.sort String.compare

(* Detect circular control dependencies among conditionally-assigned
   registers - the shape of hardware deadlocks (section 3.3.1). Returns
   strongly-connected cycles of length >= 2 through sequential control
   edges, as lists of signal names. *)
let control_cycles (g : graph) : string list list =
  let ctrl = List.filter (fun e -> e.kind = Control && e.timing = Sequential) g.edges in
  let nodes = Ast.dedup (List.concat_map (fun e -> [ e.src; e.dst ]) ctrl) in
  let succs n =
    List.filter_map (fun e -> if e.src = n then Some e.dst else None) ctrl
    |> Ast.dedup
  in
  (* simple cycle detection: DFS from each node looking for a path back *)
  let cycles = ref [] in
  let rec dfs start path n =
    List.iter
      (fun next ->
        if next = start && List.length path >= 1 then
          cycles := List.rev (n :: path) :: !cycles
        else if not (List.mem next (n :: path)) && List.length path < 8 then
          dfs start (n :: path) next)
      (succs n)
  in
  List.iter (fun n -> dfs n [] n) nodes;
  (* canonicalize: rotate each cycle so its smallest element is first,
     then dedup *)
  let canon c =
    match c with
    | [] -> []
    | _ ->
        let m = List.fold_left min (List.hd c) c in
        let rec rotate = function
          | x :: rest when x = m -> x :: rest
          | x :: rest -> rotate (rest @ [ x ])
          | [] -> []
        in
        rotate c
  in
  List.sort_uniq compare (List.map canon !cycles)

(* ------------------------------------------------------------------ *)
(* Slice-precise dependencies (section 4.3)                            *)
(* ------------------------------------------------------------------ *)

(* "Dependency Monitor handles partial assignments by logically
   splitting a partially assigned variable to multiple variables":
   nodes here are bit slices, so a chain through packed[7:0] does not
   drag in the drivers of packed[15:8]. *)

type slice = { s_name : string; s_hi : int; s_lo : int }

type slice_edge = {
  se_src : slice;
  se_dst : slice;
  se_kind : edge_kind;
  se_timing : timing;
}

let overlaps a b =
  a.s_name = b.s_name && a.s_hi >= b.s_lo && a.s_lo <= b.s_hi

let full_slice (m : Ast.module_def) name =
  let w = Option.value (Ast.signal_width m name) ~default:1 in
  { s_name = name; s_hi = w - 1; s_lo = 0 }

(* Slices read by an expression (index expressions count as control and
   are handled by the caller). *)
let rec expr_read_slices (m : Ast.module_def) (e : Ast.expr) : slice list =
  match e with
  | Ast.Const _ -> []
  | Ast.Ident n -> [ full_slice m n ]
  | Ast.Range (n, hi, lo) -> [ { s_name = n; s_hi = hi; s_lo = lo } ]
  | Ast.Index (n, i) -> (
      (* variable bit select reads the whole vector conservatively *)
      full_slice m n
      ::
      (match i with Ast.Const _ -> [] | _ -> expr_read_slices m i))
  | Ast.Unop (_, a) | Ast.Repeat (_, a) -> expr_read_slices m a
  | Ast.Binop (_, a, b) -> expr_read_slices m a @ expr_read_slices m b
  | Ast.Cond (c, a, b) ->
      expr_read_slices m c @ expr_read_slices m a @ expr_read_slices m b
  | Ast.Concat es -> List.concat_map (expr_read_slices m) es

let rec lvalue_write_slices (m : Ast.module_def) (l : Ast.lvalue) : slice list =
  match l with
  | Ast.Lident n -> [ full_slice m n ]
  | Ast.Lrange (n, hi, lo) -> [ { s_name = n; s_hi = hi; s_lo = lo } ]
  | Ast.Lindex (n, _) -> [ full_slice m n ]
  | Ast.Lconcat ls -> List.concat_map (lvalue_write_slices m) ls

let slice_edges (m : Ast.module_def) : slice_edge list =
  let of_assignment ~timing (l, rhs, cond) =
    let dsts = lvalue_write_slices m l in
    let data = expr_read_slices m rhs in
    let ctrl =
      expr_read_slices m cond
      @ (match l with Ast.Lindex (_, i) -> expr_read_slices m i | _ -> [])
    in
    List.concat_map
      (fun se_dst ->
        List.map
          (fun se_src -> { se_src; se_dst; se_kind = Data; se_timing = timing })
          data
        @ List.map
            (fun se_src ->
              { se_src; se_dst; se_kind = Control; se_timing = timing })
            ctrl)
      dsts
  in
  let from_always =
    List.concat_map
      (fun (a : Ast.always) ->
        let timing =
          match a.Ast.sens with Ast.Star -> Combinational | _ -> Sequential
        in
        List.concat_map
          (of_assignment ~timing)
          (Path_constraint.assignments_of_always a))
      m.Ast.always_blocks
  in
  let from_assigns =
    List.concat_map
      (fun (l, e) ->
        of_assignment ~timing:Combinational (l, e, Ast.true_expr))
      m.Ast.assigns
  in
  from_always @ from_assigns

(* Backward closure over slices: an edge applies when its destination
   slice overlaps the queried slice; the source slice is then queried
   whole (conservative within the slice). *)
let backward_slice_closure ?(data_only = false) (m : Ast.module_def)
    ~(target : slice) ~cycles : slice list =
  let keep (e : slice_edge) = (not data_only) || e.se_kind = Data in
  (* the kept edges by destination name, so a visit scans only the edges
     that can overlap it; added in reverse, [find_all] returns them in
     [slice_edges] order *)
  let into : (string, slice_edge) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e -> if keep e then Hashtbl.add into e.se_dst.s_name e)
    (List.rev (slice_edges m));
  let best : (slice, int) Hashtbl.t = Hashtbl.create 16 in
  let rec visit q budget =
    let better =
      match Hashtbl.find_opt best q with None -> true | Some b -> budget > b
    in
    if better then (
      Hashtbl.replace best q budget;
      List.iter
        (fun e ->
          if overlaps e.se_dst q then
            match e.se_timing with
            | Combinational -> visit e.se_src budget
            | Sequential -> if budget > 0 then visit e.se_src (budget - 1))
        (Hashtbl.find_all into q.s_name))
  in
  visit target cycles;
  Hashtbl.fold (fun s _ acc -> s :: acc) best []
  |> List.sort compare

(* The names in the slice-precise chain of a whole signal. *)
let backward_closure_sliced ?(data_only = false) (m : Ast.module_def)
    ~target ~cycles : string list =
  backward_slice_closure ~data_only m ~target:(full_slice m target) ~cycles
  |> List.map (fun s -> s.s_name)
  |> Ast.dedup
