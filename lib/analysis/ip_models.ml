(* Data-path model of the closed-source IP blocks (section 5). The paper
   implements models for the three IPs used by its testbed - altsyncram,
   scfifo, and dcfifo - and so do we; their port roles are the table in
   Ast.ip_ports. *)

module Ast = Fpga_hdl.Ast

type data_path = { data : Ast.expr; write : Ast.expr; q : string }

(* The write gate keeps the IP's backpressure (full) and validity (the
   write enable) so LossCheck's shadow logic observes both. *)
let data_path (i : Ast.instance) : data_path option =
  let conn formal =
    List.find_map
      (fun (c : Ast.connection) ->
        if c.Ast.formal = formal then Some c.Ast.actual else None)
      i.Ast.conns
  in
  match Ast.ip_ports i.Ast.target with
  | None -> None
  | Some p -> (
      match (conn p.Ast.ip_data, conn p.Ast.ip_q) with
      | Some data, Some (Ast.Ident q) ->
          let wr = Option.value (conn p.Ast.ip_write) ~default:Ast.true_expr in
          let write =
            match Option.bind p.Ast.ip_full conn with
            | Some (Ast.Ident full) ->
                Ast.and_expr wr (Ast.not_expr (Ast.Ident full))
            | _ -> wr
          in
          Some { data; write; q }
      | _ -> None)
