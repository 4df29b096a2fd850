(* Propagation relations (section 4.5.1): X ~>_sigma Y means the value
   stored in X propagates to Y on the next cycle when sigma holds. The
   table drives LossCheck's shadow-variable instrumentation. *)

module Ast = Fpga_hdl.Ast

type relation = {
  src : string;
  dst : string;
  cond : Ast.expr;  (* sigma *)
  line_hint : string;  (* human-readable origin, for reports *)
}

type table = relation list

(* Data propagation relations of a sequential assignment: every register
   read on the right-hand side propagates into every written base when
   the path constraint holds. A [Lindex] write on a memory adds the
   index registers as routing (control-like) inputs, but data relations
   come only from the RHS. *)
let of_assignment (l, rhs, cond) : relation list =
  let dsts = Ast.dedup (Ast.lvalue_bases l) in
  let srcs = Ast.dedup (Ast.expr_reads rhs) in
  let hint =
    Printf.sprintf "%s <= %s"
      (Fpga_hdl.Pp_verilog.lvalue_str l)
      (Fpga_hdl.Pp_verilog.expr_str rhs)
  in
  List.concat_map
    (fun dst ->
      List.map (fun src -> { src; dst; cond; line_hint = hint }) srcs)
    dsts

(* [ip] supplies the relations contributed by IP instances; see
   Ip_models.table_of_module for the composed entry point. *)
let of_module ?(ip = fun (_ : Ast.instance) -> ([] : relation list))
    (m : Ast.module_def) : table =
  let seq =
    List.concat_map
      (fun (a : Ast.always) ->
        match a.Ast.sens with
        | Ast.Posedge _ | Ast.Negedge _ ->
            List.concat_map of_assignment
              (Path_constraint.assignments_of_always a)
        | Ast.Star -> [])
      m.Ast.always_blocks
  in
  (* Continuous assigns and combinational blocks move data within the
     same cycle; LossCheck folds them into the relation graph as
     unconditioned transfers, since the data is never buffered there. *)
  let comb_assign =
    List.concat_map
      (fun (l, e) -> of_assignment (l, e, Ast.true_expr))
      m.Ast.assigns
  in
  let comb_blocks =
    List.concat_map
      (fun (a : Ast.always) ->
        match a.Ast.sens with
        | Ast.Star ->
            List.concat_map of_assignment
              (Path_constraint.assignments_of_always a)
        | Ast.Posedge _ | Ast.Negedge _ -> [])
      m.Ast.always_blocks
  in
  let ip_rels = List.concat_map ip m.Ast.instances in
  seq @ comb_assign @ comb_blocks @ ip_rels

(* Registers on some propagation sequence from [source] to [sink]:
   reachable from the source and reaching the sink. *)
let sequence_registers (table : table) ~source ~sink : string list =
  let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
  let rec reach seen next n =
    if not (Hashtbl.mem seen n) then (
      Hashtbl.replace seen n ();
      List.iter (reach seen next) (next n))
  in
  reach fwd
    (fun n ->
      List.filter_map (fun r -> if r.src = n then Some r.dst else None) table)
    source;
  reach bwd
    (fun n ->
      List.filter_map (fun r -> if r.dst = n then Some r.src else None) table)
    sink;
  Hashtbl.fold
    (fun n _ acc -> if Hashtbl.mem bwd n then n :: acc else acc)
    fwd []
  |> List.sort String.compare

let incoming table dst = List.filter (fun r -> r.dst = dst) table
let outgoing table src = List.filter (fun r -> r.src = src) table
