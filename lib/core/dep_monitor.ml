(* Dependency Monitor (section 4.3): statically computes the registers a
   target variable depends on within the previous k cycles (control and
   data dependencies, through IP models), then instruments the design to
   log every update to any register in the chain. Backtracing the
   resulting trace localizes the origin of an incorrect output. *)

module Ast = Fpga_hdl.Ast
module Deps = Fpga_analysis.Deps
module Ip_models = Fpga_analysis.Ip_models
module Telemetry = Fpga_telemetry.Telemetry

type plan = {
  module_name : string;
  target : string;
  cycles : int;
  chain : string list;  (* dependency chain, including the target *)
  monitored : string list;  (* chain members that are registers *)
}

type update = { cycle : int; signal : string; value : string }

let tag = "DEP"

(* Edges induced by a user-module instance: every output net depends on
   the reads of every input actual that can reach it inside the child.
   One level of hierarchy suffices for the testbed; deeper nesting can
   be handled by flattening first. *)
let child_instance_edges (design : Ast.design option) (i : Ast.instance) :
    Deps.edge list =
  match design with
  | None -> []
  | Some d -> (
      match Ast.find_module d i.Ast.target with
      | None -> []
      | Some child ->
          let g = Deps.of_module child in
          let is_seq =
            List.exists
              (fun (a : Ast.always) -> a.Ast.sens <> Ast.Star)
              child.Ast.always_blocks
          in
          let conns = i.Ast.conns in
          List.concat_map
            (fun (c : Ast.connection) ->
              match (Ast.find_port child c.Ast.formal, c.Ast.actual) with
              | Some { Ast.dir = Ast.Output; _ }, Ast.Ident out_net ->
                  let reaches =
                    Deps.backward_closure g ~target:c.Ast.formal ~cycles:8
                  in
                  List.concat_map
                    (fun (c' : Ast.connection) ->
                      match Ast.find_port child c'.Ast.formal with
                      | Some { Ast.dir = Ast.Input; _ }
                        when List.mem c'.Ast.formal reaches ->
                          List.map
                            (fun src ->
                              {
                                Deps.src;
                                dst = out_net;
                                kind = Deps.Data;
                                timing =
                                  (if is_seq then Deps.Sequential
                                   else Deps.Combinational);
                                cond = Ast.true_expr;
                              })
                            (Ast.expr_reads c'.Ast.actual)
                      | _ -> [])
                    conns
              | _ -> [])
            conns)

(* Edges induced by a builtin IP instance: its data output depends on
   every read of the data actual, sequentially, under the write gate. *)
let ip_model_edges (i : Ast.instance) : Deps.edge list =
  match Ip_models.data_path i with
  | None -> []
  | Some p ->
      List.map
        (fun src ->
          {
            Deps.src;
            dst = p.Ip_models.q;
            kind = Deps.Data;
            timing = Deps.Sequential;
            cond = p.Ip_models.write;
          })
        (Ast.expr_reads p.Ip_models.data)

let analyze ?design ?(data_only = false) ?(slice_precise = false) ~target
    ~cycles (m : Ast.module_def) : plan =
  if Ast.signal_width m target = None then
    Instrument.err "Dependency Monitor: unknown target %s" target;
  let ip_edges =
    List.concat_map
      (fun (i : Ast.instance) ->
        if Ast.ip_ports i.Ast.target = None then child_instance_edges design i
        else ip_model_edges i)
      m.Ast.instances
  in
  let g = Deps.of_module ~ip_edges m in
  let chain =
    if slice_precise then (
      (* partial assignments split logically (section 4.3); IP- and
         child-induced edges stay name-level, so union the two views *)
      let local = Deps.backward_closure_sliced ~data_only m ~target ~cycles in
      let through_ips =
        List.filter_map
          (fun (e : Deps.edge) ->
            if List.mem e.Deps.dst local then Some e.Deps.src else None)
          ip_edges
      in
      Ast.dedup (local @ through_ips))
    else Deps.backward_closure ~data_only g ~target ~cycles
  in
  (* Monitor registers and ports only; skip memories, whose updates are
     tracked through the registers written from them. *)
  let monitored =
    List.filter
      (fun name ->
        match Ast.find_decl m name with
        | Some { Ast.depth = Some _; _ } -> false
        | Some _ -> true
        | None -> Ast.find_port m name <> None)
      chain
  in
  { module_name = m.Ast.mod_name; target; cycles; chain; monitored }

let prev_name name = "_depmon_prev_" ^ Instrument.sanitize name

let instrument (p : plan) (m : Ast.module_def) : Ast.module_def =
  if p.monitored = [] then m
  else (
    let clk = Instrument.find_clock m in
    let width_of name =
      match Ast.signal_width m name with
      | Some w -> w
      | None -> Instrument.err "Dependency Monitor: unknown signal %s" name
    in
    let watched = List.filter (fun n -> n <> clk) p.monitored in
    let decls =
      List.map
        (fun name ->
          {
            Ast.name = prev_name name;
            kind = Ast.Reg;
            width = width_of name;
            depth = None;
            init = None;
          })
        watched
    in
    let stmts =
      List.concat_map
        (fun name ->
          let v = Ast.Ident name and prev = Ast.Ident (prev_name name) in
          [
            Ast.Nonblocking (Ast.Lident (prev_name name), v);
            Ast.If
              ( Ast.Binop (Ast.Neq, prev, v),
                [ Ast.Display (Printf.sprintf "[%s] %s = %%d" tag name, [ v ]) ],
                [] );
          ])
        watched
    in
    Instrument.add_logic m ~decls
      ~always:[ { Ast.sens = Ast.Posedge clk; stmts } ])

(* The update trace recovered from the unified log. Note the logged
   value is the signal's *new* value: the display fires in the cycle the
   change is observed. [decode_updates] is the pure parser; the public
   {!updates} also counts the updates (once per call — {!backtrace}
   decodes without counting again). *)
let is_digit = function '0' .. '9' -> true | _ -> false

let decode_updates (log : (int * string) list) : update list =
  Instrument.tagged_lines tag log
  |> List.filter_map (fun (cycle, payload) ->
         match String.split_on_char '=' payload with
         | [ name; value ] ->
             let value = String.trim value in
             if value <> "" && String.for_all is_digit value then
               Some { cycle; signal = String.trim name; value }
             else None
         | _ -> None)

let updates_counter = Telemetry.Counter.make "dep_monitor.updates"

let updates (_p : plan) (log : (int * string) list) : update list =
  let us = decode_updates log in
  if us <> [] then Telemetry.Counter.bump updates_counter (List.length us);
  us

(* Backtrace helper: updates to chain members in the [k] cycles leading
   up to [at_cycle], newest first - what a developer inspects to find
   where a wrong value entered the chain. *)
let backtrace (p : plan) (log : (int * string) list) ~at_cycle : update list =
  decode_updates log
  |> List.filter (fun u ->
         u.cycle <= at_cycle && u.cycle >= at_cycle - p.cycles)
  |> List.sort (fun a b -> compare b.cycle a.cycle)

let update_to_string u =
  Printf.sprintf "cycle %d: %s = %s" u.cycle u.signal u.value
