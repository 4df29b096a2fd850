(* Statistics Monitor (section 4.4): counters for developer-specified
   single-bit events, with optional log messages on change. Counter
   values are read back after execution (from the FPGA via readback, or
   directly in simulation); unexpected differences between related
   counters - valid inputs vs. valid outputs - indicate data loss. *)

module Ast = Fpga_hdl.Ast

type event = { event_name : string; trigger : Ast.expr }

type t = { module_name : string; events : event list }

let tag = "STAT"
let counter_name e = "_stat_" ^ Instrument.sanitize e.event_name

let plan (m : Ast.module_def) (events : event list) : t =
  List.iter
    (fun e ->
      List.iter
        (fun r ->
          if Ast.signal_width m r = None then
            Instrument.err "Statistics Monitor: unknown signal %s in event %s" r
              e.event_name)
        (Ast.expr_reads e.trigger))
    events;
  { module_name = m.Ast.mod_name; events }

let instrument ?(log_changes = false) (t : t) (m : Ast.module_def) :
    Ast.module_def =
  if t.events = [] then m
  else (
    let clk = Instrument.find_clock m in
    let decls =
      List.map
        (fun e ->
          {
            Ast.name = counter_name e;
            kind = Ast.Reg;
            width = 32;
            depth = None;
            init = None;
          })
        t.events
    in
    let one = Ast.Const (Fpga_bits.Bits.one 32) in
    let stmts =
      List.map
        (fun e ->
          let c = Ast.Ident (counter_name e) in
          let body =
            Ast.Nonblocking (Ast.Lident (counter_name e), Ast.Binop (Ast.Add, c, one))
            ::
            (if log_changes then
               [
                 Ast.Display
                   ( Printf.sprintf "[%s] %s = %%d" tag e.event_name,
                     [ Ast.Binop (Ast.Add, c, one) ] );
               ]
             else [])
          in
          Ast.If (e.trigger, body, []))
        t.events
    in
    Instrument.add_logic m ~decls
      ~always:[ { Ast.sens = Ast.Posedge clk; stmts } ])

(* Counter read-back after an execution. *)
let counts (t : t) (sim : Fpga_sim.Simulator.t) : (string * int) list =
  List.map
    (fun e -> (e.event_name, Fpga_sim.Simulator.read_int sim (counter_name e)))
    t.events

(* The statistical-anomaly check of the paper's data-loss workflow:
   producer events should equal consumer events. *)
type anomaly = {
  producer : string;
  consumer : string;
  produced : int;
  consumed : int;
}

let check_balance (counts : (string * int) list) ~producer ~consumer :
    anomaly option =
  match (List.assoc_opt producer counts, List.assoc_opt consumer counts) with
  | Some produced, Some consumed when produced <> consumed ->
      Some { producer; consumer; produced; consumed }
  | _ -> None

let anomaly_to_string a =
  Printf.sprintf "statistics anomaly: %s=%d but %s=%d (%d lost)" a.producer
    a.produced a.consumer a.consumed
    (a.produced - a.consumed)

(* ------------------------------------------------------------------ *)
(* Per-component localization (section 4.4)                           *)
(* ------------------------------------------------------------------ *)

(* Given counters ordered along a pipeline (ingress first), find the
   first component boundary where events disappear - "per-component
   counters help a developer localize a statistical anomaly to a small
   region of a complex circuit". *)
type stage_anomaly = {
  upstream : string;
  downstream : string;
  upstream_count : int;
  downstream_count : int;
}

let localize_stage (counts : (string * int) list) ~(stages : string list) :
    stage_anomaly option =
  let rec scan = function
    | a :: b :: rest -> (
        match (List.assoc_opt a counts, List.assoc_opt b counts) with
        | Some ca, Some cb when cb < ca ->
            Some
              { upstream = a; downstream = b; upstream_count = ca;
                downstream_count = cb }
        | _ -> scan (b :: rest))
    | _ -> None
  in
  scan stages

(* Derive one event per valid-like 1-bit signal, in declaration order -
   the quick way to get per-stage counters over a handshaked pipeline. *)
let valid_signal_events (m : Fpga_hdl.Ast.module_def) : event list =
  let is_valid_name n =
    let n = String.lowercase_ascii n in
    let has_suffix s =
      String.length n >= String.length s
      && String.sub n (String.length n - String.length s) (String.length s) = s
    in
    has_suffix "_valid" || has_suffix "_vld" || has_suffix "valid"
  in
  let of_name n = { event_name = n; trigger = Fpga_hdl.Ast.Ident n } in
  let port_events =
    List.filter_map
      (fun (p : Fpga_hdl.Ast.port) ->
        if p.Fpga_hdl.Ast.port_width = 1 && is_valid_name p.Fpga_hdl.Ast.port_name
        then Some (of_name p.Fpga_hdl.Ast.port_name)
        else None)
      m.Fpga_hdl.Ast.ports
  in
  let decl_events =
    List.filter_map
      (fun (d : Fpga_hdl.Ast.decl) ->
        if
          d.Fpga_hdl.Ast.width = 1
          && d.Fpga_hdl.Ast.depth = None
          && is_valid_name d.Fpga_hdl.Ast.name
          && Fpga_hdl.Ast.find_port m d.Fpga_hdl.Ast.name = None
        then Some (of_name d.Fpga_hdl.Ast.name)
        else None)
      m.Fpga_hdl.Ast.decls
  in
  port_events @ decl_events
