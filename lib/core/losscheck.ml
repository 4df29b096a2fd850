(* LossCheck (section 4.5): precise localization of data loss.

   Given a Source, its valid signal, and a Sink, the static pass builds
   the table of propagation relations X ~>_sigma Y (through wires, IP
   models, and memories), finds the registers on a propagation sequence
   from Source to Sink, and instruments the design with shadow variables
   per such register R:

     A(R) - R was assigned,           V(R) - R was assigned valid data,
     P(R) - R's value propagated on,  N(R) - R holds valid data that has
                                             not yet propagated.

   following Equations (1) and (2) of the paper:

     N(R)_k    = V(R)_{k-1} \/ (N(R)_{k-1} /\ ~P(R)_{k-1})
     Loss(R)_k = A(R)_k /\ ~P(R)_k /\ N(R)_k

   Memories are tracked with one needs-propagation bit per word, so a
   wrapped buffer-overflow write that lands on an unread word raises an
   alarm while normal FIFO traffic does not.

   False positives from intentional drops are filtered by running the
   instrumented design on passing ("ground truth") test programs and
   suppressing every register that alarms there (section 4.5.3). *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Ip_models = Fpga_analysis.Ip_models
module Path_constraint = Fpga_analysis.Path_constraint
module Simulator = Fpga_sim.Simulator
module Testbench = Fpga_sim.Testbench
module Telemetry = Fpga_telemetry.Telemetry

type spec = { source : string; valid : Ast.expr; sink : string }

type relation = { src : string; dst : string; cond : Ast.expr }

type plan = {
  module_name : string;
  spec : spec;
  relations : relation list;
  scalar_checks : string list;
  memory_checks : string list;
}

let tag = "LOSSCHECK"

(* ------------------------------------------------------------------ *)
(* Static analysis: effective propagation relations                    *)
(* ------------------------------------------------------------------ *)

(* Data reads of an expression: like [Ast.expr_reads] but memory/vector
   index expressions are routing, not data, so they are skipped. *)
let rec data_reads (e : Ast.expr) : string list =
  match e with
  | Ast.Const _ -> []
  | Ast.Ident n -> [ n ]
  | Ast.Index (n, _) -> [ n ]
  | Ast.Range (n, _, _) -> [ n ]
  | Ast.Unop (_, a) -> data_reads a
  | Ast.Binop (_, a, b) -> data_reads a @ data_reads b
  | Ast.Cond (c, a, b) -> ignore c; data_reads a @ data_reads b
  | Ast.Concat es -> List.concat_map data_reads es
  | Ast.Repeat (_, a) -> data_reads a

(* The first index expression with which memory [mem] is read in [e]. *)
let rec mem_read_index (mem : string) (e : Ast.expr) : Ast.expr option =
  match e with
  | Ast.Index (n, i) when n = mem -> Some i
  | Ast.Const _ | Ast.Ident _ | Ast.Range _ | Ast.Index _ -> None
  | Ast.Unop (_, a) | Ast.Repeat (_, a) -> mem_read_index mem a
  | Ast.Binop (_, a, b) -> (
      match mem_read_index mem a with
      | Some i -> Some i
      | None -> mem_read_index mem b)
  | Ast.Cond (c, a, b) -> (
      match mem_read_index mem c with
      | Some i -> Some i
      | None -> (
          match mem_read_index mem a with
          | Some i -> Some i
          | None -> mem_read_index mem b))
  | Ast.Concat es -> List.find_map (mem_read_index mem) es

type node_class = Nreg | Nmem | Ninput | Nip_output | Nwire | Nsink

let classify (m : Ast.module_def) ~(spec : spec) ~ip_outputs name : node_class =
  if name = spec.sink then Nsink
  else
    match Ast.find_decl m name with
    | Some { Ast.kind = Ast.Reg; depth = None; _ } -> Nreg
    | Some { Ast.depth = Some _; _ } -> Nmem
    | Some { Ast.kind = Ast.Wire; _ } ->
        if List.mem name ip_outputs then Nip_output else Nwire
    | None -> (
        match Ast.find_port m name with
        | Some { Ast.dir = Ast.Input; _ } -> Ninput
        | Some _ -> if List.mem name ip_outputs then Nip_output else Nwire
        | None -> Nwire)

(* Output nets of the module's builtin IP instances. *)
let ip_output_nets (m : Ast.module_def) : string list =
  List.concat_map
    (fun (i : Ast.instance) ->
      match Ast.ip_ports i.Ast.target with
      | None -> []
      | Some p ->
          List.filter_map
            (fun (c : Ast.connection) ->
              match c.Ast.actual with
              | Ast.Ident n when List.mem c.Ast.formal p.Ast.ip_outputs -> Some n
              | _ -> None)
            i.Ast.conns)
    m.Ast.instances

(* Combinational definitions of wires: continuous assigns plus
   always-star assignments, with their path constraints. *)
let wire_defs (m : Ast.module_def) : (string * (Ast.expr * Ast.expr)) list =
  let from_assigns =
    List.filter_map
      (fun (l, e) ->
        match l with Ast.Lident w -> Some (w, (e, Ast.true_expr)) | _ -> None)
      m.Ast.assigns
  in
  let from_comb =
    List.concat_map
      (fun (a : Ast.always) ->
        match a.Ast.sens with
        | Ast.Star ->
            List.filter_map
              (fun (l, e, cond) ->
                match l with Ast.Lident w -> Some (w, (e, cond)) | _ -> None)
              (Path_constraint.assignments_of_always a)
        | _ -> [])
      m.Ast.always_blocks
  in
  from_assigns @ from_comb

(* Expand a read through combinational wires down to storage nodes
   (registers, memories, inputs, IP outputs) or the sink. *)
let expand m ~spec ~ip_outputs ~defs name : (string * Ast.expr) list =
  let rec go seen name cond =
    if List.mem name seen then []
    else
      match classify m ~spec ~ip_outputs name with
      | Nreg | Nmem | Ninput | Nip_output | Nsink -> [ (name, cond) ]
      | Nwire ->
          let my_defs = List.filter (fun (w, _) -> w = name) defs in
          if my_defs = [] then [ (name, cond) ]
          else
            List.concat_map
              (fun (_, (e, dcond)) ->
                List.concat_map
                  (fun r -> go (name :: seen) r (Ast.and_expr cond dcond))
                  (Ast.dedup (data_reads e)))
              my_defs
  in
  go [] name Ast.true_expr

(* Sequential assignments of the module with their path constraints. *)
let seq_assignments (m : Ast.module_def) =
  List.concat_map
    (fun (a : Ast.always) ->
      match a.Ast.sens with
      | Ast.Posedge _ | Ast.Negedge _ -> Path_constraint.assignments_of_always a
      | Ast.Star -> [])
    m.Ast.always_blocks

(* What the relation table and the instrumentation both read of one
   module: its IP output nets, its wire definitions and the expansion of
   a read through those wires. [localize] builds it once for both. *)
type context = {
  ip_outputs : string list;
  defs : (string * (Ast.expr * Ast.expr)) list;
  expand : string -> (string * Ast.expr) list;
}

let context (m : Ast.module_def) (spec : spec) : context =
  let ip_outputs = ip_output_nets m in
  let defs = wire_defs m in
  { ip_outputs; defs; expand = expand m ~spec ~ip_outputs ~defs }

let relations_in { defs; expand; _ } ?design (m : Ast.module_def) (spec : spec)
    : relation list =
  (* the data of every read, expanded to storage, flows into [dst] *)
  let flow ~dst ~cond reads =
    List.concat_map
      (fun r ->
        List.map
          (fun (node, c) -> { src = node; dst; cond = Ast.and_expr cond c })
          (expand r))
      reads
  in
  let of_assignment (l, rhs, cond) =
    (* A write into a non-power-of-two memory with an out-of-range index
       is dropped (section 3.2.1 case 2): the data does NOT propagate,
       so the relation's condition carries an in-range conjunct. *)
    let cond =
      match l with
      | Ast.Lindex (n, wi) -> (
          match Ast.find_decl m n with
          | Some { Ast.depth = Some d; _ }
            when not (d > 0 && d land (d - 1) = 0) ->
              Ast.and_expr cond
                (Ast.Binop (Ast.Lt, wi, Ast.Const (Bits.of_int ~width:16 d)))
          | _ -> cond)
      | _ -> cond
    in
    List.concat_map
      (fun dst -> flow ~dst ~cond (Ast.dedup (data_reads rhs)))
      (Ast.dedup (Ast.lvalue_bases l))
  in
  let seq = List.concat_map of_assignment (seq_assignments m) in
  (* relations into the sink when the sink is combinational *)
  let into_sink =
    List.concat_map
      (fun (w, (e, dcond)) ->
        if w = spec.sink then
          flow ~dst:spec.sink ~cond:dcond (Ast.dedup (data_reads e))
        else [])
      defs
  in
  let ip =
    List.concat_map
      (fun (i : Ast.instance) ->
        match (Ip_models.data_path i, design) with
        | Some p, _ ->
            (* data input ~>(write gate) data output *)
            flow ~dst:p.Ip_models.q ~cond:p.Ip_models.write
              (Ast.dedup (data_reads p.Ip_models.data))
        | None, Some d when Ast.ip_ports i.Ast.target = None -> (
            (* a user-module instance: every output net conservatively
               receives every input's data *)
            match Ast.find_module d i.Ast.target with
            | None -> []
            | Some child ->
                let in_srcs =
                  List.concat_map
                    (fun (c : Ast.connection) ->
                      match Ast.find_port child c.Ast.formal with
                      | Some { Ast.dir = Ast.Input; _ } ->
                          Ast.dedup (data_reads c.Ast.actual)
                      | _ -> [])
                    i.Ast.conns
                in
                List.concat_map
                  (fun (c : Ast.connection) ->
                    match (Ast.find_port child c.Ast.formal, c.Ast.actual) with
                    | Some { Ast.dir = Ast.Output; _ }, Ast.Ident dst ->
                        flow ~dst ~cond:Ast.true_expr in_srcs
                    | _ -> [])
                  i.Ast.conns)
        | None, _ -> [])
      m.Ast.instances
  in
  seq @ into_sink @ ip

let effective_relations ?design m spec =
  relations_in (context m spec) ?design m spec

(* Registers and memories on a propagation sequence source -> sink. *)
let sequence_nodes (relations : relation list) ~source ~sink : string list =
  let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
  let rec reach tbl next n =
    if not (Hashtbl.mem tbl n) then (
      Hashtbl.replace tbl n ();
      List.iter (reach tbl next) (next n))
  in
  reach fwd
    (fun n ->
      List.filter_map (fun r -> if r.src = n then Some r.dst else None) relations)
    source;
  reach bwd
    (fun n ->
      List.filter_map (fun r -> if r.dst = n then Some r.src else None) relations)
    sink;
  Hashtbl.fold
    (fun n _ acc -> if Hashtbl.mem bwd n then n :: acc else acc)
    fwd []
  |> List.sort String.compare

let analyze_in ctx ?design (spec : spec) (m : Ast.module_def) : plan =
  (match Ast.signal_width m spec.source with
  | None -> Instrument.err "LossCheck: unknown source %s" spec.source
  | Some _ -> ());
  let relations = relations_in ctx ?design m spec in
  let seq = sequence_nodes relations ~source:spec.source ~sink:spec.sink in
  let checks =
    List.filter (fun n -> n <> spec.source && n <> spec.sink) seq
  in
  let scalar_checks =
    List.filter
      (fun n ->
        match Ast.find_decl m n with
        | Some { Ast.kind = Ast.Reg; depth = None; _ } -> true
        | _ -> false)
      checks
  in
  let memory_checks =
    List.filter
      (fun n ->
        match Ast.find_decl m n with
        | Some { Ast.depth = Some _; _ } -> true
        | _ -> false)
      checks
  in
  { module_name = m.Ast.mod_name; spec; relations; scalar_checks; memory_checks }

let analyze ?design spec m = analyze_in (context m spec) ?design spec m

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let a_name r = "_lc_a_" ^ Instrument.sanitize r
let v_name r = "_lc_v_" ^ Instrument.sanitize r
let p_name r = "_lc_p_" ^ Instrument.sanitize r
let n_name r = "_lc_n_" ^ Instrument.sanitize r
let nm_name mem = "_lc_nm_" ^ Instrument.sanitize mem

let loss_display r =
  Ast.Display (Printf.sprintf "[%s] potential data loss at %s" tag r, [])

(* Validity factor of reading [node] (already expanded to storage). *)
let validity_factor (plan : plan) ~rhs node extra_cond : Ast.expr =
  let base =
    if node = plan.spec.source then plan.spec.valid
    else if List.mem node plan.scalar_checks then Ast.Ident (n_name node)
    else if List.mem node plan.memory_checks then
      match mem_read_index node rhs with
      | Some i -> Ast.Index (nm_name node, i)
      | None -> Ast.false_expr
    else
      (* nodes off the tracked path (including the sink) contribute no
         validity; IP outputs are handled by the caller *)
      Ast.false_expr
  in
  Ast.and_expr extra_cond base

let instrument_in { ip_outputs; expand; _ } (plan : plan) (m : Ast.module_def)
    : Ast.module_def =
  if plan.scalar_checks = [] && plan.memory_checks = [] then m
  else (
    let clk = Instrument.find_clock m in
    let reset = Instrument.find_reset m in
    let assignments = seq_assignments m in
    let bit name = Ast.Ident name in
    (* whether the data a right-hand side reads is valid; an IP output
       counts as valid whenever it is read *)
    let valid_data rhs =
      List.concat_map
        (fun read ->
          List.map
            (fun (node, c) ->
              if List.mem node ip_outputs then c
              else validity_factor plan ~rhs node c)
            (expand read))
        (Ast.dedup (data_reads rhs))
      |> List.fold_left Ast.or_expr Ast.false_expr
    in
    (* --- scalar registers ------------------------------------------ *)
    let scalar_decls =
      List.concat_map
        (fun r ->
          List.map
            (fun name ->
              { Ast.name; kind = Ast.Reg; width = 1; depth = None; init = None })
            [ a_name r; v_name r; p_name r; n_name r ])
        plan.scalar_checks
    in
    let scalar_stmts =
      List.concat_map
        (fun r ->
          let my_assignments =
            List.filter (fun (l, _, _) -> Ast.lvalue_bases l = [ r ]) assignments
          in
          let a_expr =
            List.fold_left
              (fun acc (_, _, cond) -> Ast.or_expr acc cond)
              Ast.false_expr my_assignments
          in
          let v_expr =
            List.fold_left
              (fun acc (_, rhs, cond) ->
                Ast.or_expr acc (Ast.and_expr cond (valid_data rhs)))
              Ast.false_expr my_assignments
          in
          let p_expr =
            List.fold_left
              (fun acc (rel : relation) ->
                if rel.src = r then Ast.or_expr acc rel.cond else acc)
              Ast.false_expr plan.relations
          in
          let n_next =
            Ast.or_expr (bit (v_name r))
              (Ast.and_expr (bit (n_name r)) (Ast.not_expr (bit (p_name r))))
          in
          let n_update =
            match reset with
            | Some rst ->
                Ast.If
                  ( Ast.Ident rst,
                    [ Ast.Nonblocking (Ast.Lident (n_name r), Ast.false_expr) ],
                    [ Ast.Nonblocking (Ast.Lident (n_name r), n_next) ] )
            | None -> Ast.Nonblocking (Ast.Lident (n_name r), n_next)
          in
          [
            Ast.Nonblocking (Ast.Lident (a_name r), a_expr);
            Ast.Nonblocking (Ast.Lident (v_name r), v_expr);
            Ast.Nonblocking (Ast.Lident (p_name r), p_expr);
            n_update;
            Ast.If
              ( Ast.and_expr (bit (a_name r))
                  (Ast.and_expr
                     (Ast.not_expr (bit (p_name r)))
                     (bit (n_name r))),
                [ loss_display r ],
                [] );
          ])
        plan.scalar_checks
    in
    (* --- memories --------------------------------------------------- *)
    let mem_depth name =
      match Ast.find_decl m name with
      | Some { Ast.depth = Some d; _ } -> d
      | _ -> Instrument.err "LossCheck: %s is not a memory" name
    in
    let memory_decls =
      List.map
        (fun mem ->
          {
            Ast.name = nm_name mem;
            kind = Ast.Reg;
            width = 1;
            depth = Some (mem_depth mem);
            init = None;
          })
        plan.memory_checks
    in
    let memory_stmts =
      List.concat_map
        (fun mem ->
          (* writes: lvalue Lindex(mem, wi); reads: Index(mem, ri) in any
             assignment's rhs *)
          let writes =
            List.filter_map
              (fun (l, rhs, cond) ->
                match l with
                | Ast.Lindex (n, wi) when n = mem -> Some (wi, rhs, cond)
                | _ -> None)
              assignments
          in
          let comb_reads =
            List.filter_map
              (fun (l, e) ->
                ignore l;
                Option.map (fun i -> (i, Ast.true_expr)) (mem_read_index mem e))
              m.Ast.assigns
          in
          let seq_reads =
            List.filter_map
              (fun (_, rhs, cond) ->
                Option.map (fun i -> (i, cond)) (mem_read_index mem rhs))
              assignments
          in
          let reads = comb_reads @ seq_reads in
          let read_clears =
            List.map
              (fun (ri, cond) ->
                Ast.If
                  ( cond,
                    [
                      Ast.Nonblocking
                        (Ast.Lindex (nm_name mem, ri), Ast.false_expr);
                    ],
                    [] ))
              reads
          in
          let write_checks =
            List.map
              (fun (wi, rhs, cond) ->
                let consumed_now =
                  List.fold_left
                    (fun acc (ri, rcond) ->
                      Ast.or_expr acc
                        (Ast.and_expr rcond (Ast.Binop (Ast.Eq, ri, wi))))
                    Ast.false_expr reads
                in
                Ast.If
                  ( cond,
                    [
                      Ast.If
                        ( Ast.and_expr
                            (Ast.Index (nm_name mem, wi))
                            (Ast.not_expr consumed_now),
                          [ loss_display mem ],
                          [] );
                      Ast.Nonblocking
                        (Ast.Lindex (nm_name mem, wi), valid_data rhs);
                    ],
                    [] ))
              writes
          in
          read_clears @ write_checks)
        plan.memory_checks
    in
    Instrument.add_logic m
      ~decls:(scalar_decls @ memory_decls)
      ~always:
        [ { Ast.sens = Ast.Posedge clk; stmts = scalar_stmts @ memory_stmts } ])

let instrument plan m = instrument_in (context m plan.spec) plan m

(* ------------------------------------------------------------------ *)
(* Dynamic analysis                                                    *)
(* ------------------------------------------------------------------ *)

(* [decode_alarms] is the pure parser; the public {!alarms} also counts
   the alarms (once per call — {!alarm_registers} decodes without
   counting again). *)
let decode_alarms (log : (int * string) list) : (int * string) list =
  Instrument.tagged_lines tag log
  |> List.filter_map (fun (cycle, payload) ->
         let prefix = "potential data loss at " in
         let pl = String.length prefix in
         if String.length payload > pl && String.sub payload 0 pl = prefix then
           Some (cycle, String.sub payload pl (String.length payload - pl))
         else None)

let alarms_counter = Telemetry.Counter.make "losscheck.alarms"

let alarms (log : (int * string) list) : (int * string) list =
  let al = decode_alarms log in
  if al <> [] then Telemetry.Counter.bump alarms_counter (List.length al);
  al

let alarm_registers log = Ast.dedup (List.map snd (decode_alarms log))

type result = {
  reported : string list;  (* alarming registers after filtering *)
  suppressed : string list;  (* registers filtered as intentional drops *)
  raw_alarms : (int * string) list;
  original : Ast.module_def;  (* the top module as given *)
  instrumented : Ast.module_def;  (* the same with the checking logic *)
}

let generated_loc r = Instrument.added_loc ~before:r.original ~after:r.instrumented

(* Full workflow: instrument, run ground-truth stimuli to learn
   intentional drops, run the failing stimulus, report the difference. *)
let localize ?(ground_truth = []) ?(max_cycles = 10_000) ~top ~spec
    ~(stimulus : Testbench.stimulus) (design : Ast.design) : result =
  let m =
    match Ast.find_module design top with
    | Some m -> m
    | None -> Instrument.err "LossCheck: no module %s" top
  in
  let ctx = context m spec in
  let plan = analyze_in ctx ~design spec m in
  let m' = instrument_in ctx plan m in
  let design' =
    { Ast.modules = List.map (fun x -> if x == m then m' else x) design.Ast.modules }
  in
  let run stim cycles =
    let sim = Testbench.of_design ~top design' in
    let outcome = Testbench.run ~max_cycles:cycles sim stim in
    outcome.Testbench.log
  in
  let suppressed =
    Ast.dedup
      (List.concat_map
         (fun (stim, cycles) -> alarm_registers (run stim cycles))
         ground_truth)
  in
  let log = run stimulus max_cycles in
  let raw = alarms log in
  let reported =
    List.filter (fun r -> not (List.mem r suppressed)) (alarm_registers log)
  in
  { reported; suppressed; raw_alarms = raw; original = m; instrumented = m' }
