(* A small structural linter over the Verilog subset.

   The checks target the mechanical subclasses of the bug study:
   implicit truncation (section 3.2.2), potential out-of-range indexing
   of non-power-of-two structures (3.2.1), registers that are never
   reset or never driven (3.2.5), multiply-driven nets, and case
   statements that cover neither all values nor a default. The tools of
   lib/core localize bugs after the fact; the linter flags the ones
   visible statically before synthesis. *)

module Ast = Fpga_hdl.Ast

type severity = Warning | Error

type finding = {
  severity : severity;
  rule : string;
  signal : string;
  message : string;
}

let finding_to_string f =
  Printf.sprintf "%s [%s] %s: %s"
    (match f.severity with Warning -> "warning" | Error -> "error")
    f.rule f.signal f.message

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let all_assignments (m : Ast.module_def) =
  let from_always =
    List.concat_map
      (fun (a : Ast.always) -> Path_constraint.assignments_of_always a)
      m.Ast.always_blocks
  in
  let from_assigns =
    List.map (fun (l, e) -> (l, e, Ast.true_expr)) m.Ast.assigns
  in
  from_always @ from_assigns

let reads_of_module (m : Ast.module_def) =
  let stmt_reads =
    List.concat_map
      (fun (a : Ast.always) ->
        List.concat_map Ast.stmt_reads a.Ast.stmts)
      m.Ast.always_blocks
  in
  let assign_reads = List.concat_map (fun (_, e) -> Ast.expr_reads e) m.Ast.assigns in
  let instance_reads =
    List.concat_map
      (fun (i : Ast.instance) ->
        List.concat_map
          (fun (c : Ast.connection) -> Ast.expr_reads c.Ast.actual)
          i.Ast.conns)
      m.Ast.instances
  in
  Ast.dedup (stmt_reads @ assign_reads @ instance_reads)

let writes_of_module (m : Ast.module_def) =
  Ast.dedup (List.concat_map (fun (l, _, _) -> Ast.lvalue_bases l) (all_assignments m))

let instance_outputs (m : Ast.module_def) =
  List.concat_map
    (fun (i : Ast.instance) ->
      List.filter_map
        (fun (c : Ast.connection) ->
          match c.Ast.actual with Ast.Ident n -> Some n | _ -> None)
        i.Ast.conns)
    m.Ast.instances

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

(* Each rule reports (signal, message) pairs; [check] turns them into
   findings carrying the rule's name and declared severity. *)

(* R1: declared but never read and never written. *)
let unused_signals (m : Ast.module_def) =
  let reads = reads_of_module m in
  let writes = writes_of_module m in
  let connected = instance_outputs m in
  List.filter_map
    (fun (d : Ast.decl) ->
      if
        (not (List.mem d.Ast.name reads))
        && (not (List.mem d.Ast.name writes))
        && (not (List.mem d.Ast.name connected))
        && Ast.find_port m d.Ast.name = None
      then
        Some (d.Ast.name, "declared but never read or written")
      else None)
    m.Ast.decls

(* R2: a register read somewhere but driven nowhere. *)
let undriven_signals (m : Ast.module_def) =
  let reads = reads_of_module m in
  let writes = writes_of_module m in
  let connected = instance_outputs m in
  List.filter_map
    (fun (d : Ast.decl) ->
      let is_input =
        match Ast.find_port m d.Ast.name with
        | Some { Ast.dir = Ast.Input; _ } -> true
        | _ -> false
      in
      if
        List.mem d.Ast.name reads
        && (not (List.mem d.Ast.name writes))
        && (not (List.mem d.Ast.name connected))
        && (not is_input)
        && d.Ast.init = None
      then
        Some (d.Ast.name, "read but never driven")
      else None)
    m.Ast.decls

(* R3: a base signal assigned in more than one always block (or by both
   an always block and a continuous assign). *)
let multiple_drivers (m : Ast.module_def) =
  let driver_sets =
    List.mapi
      (fun i (a : Ast.always) ->
        ( Printf.sprintf "always#%d" i,
          Ast.dedup (List.concat_map Ast.stmt_writes a.Ast.stmts) ))
      m.Ast.always_blocks
    @ List.mapi
        (fun i (l, _) -> (Printf.sprintf "assign#%d" i, Ast.lvalue_bases l))
        m.Ast.assigns
  in
  let tally = Hashtbl.create 16 in
  List.iter
    (fun (driver, signals) ->
      List.iter
        (fun s ->
          let existing = Option.value (Hashtbl.find_opt tally s) ~default:[] in
          if not (List.mem driver existing) then
            Hashtbl.replace tally s (driver :: existing))
        signals)
    driver_sets;
  Hashtbl.fold
    (fun s drivers acc ->
      (* partial continuous assigns to distinct ranges of one net are a
         legitimate idiom; only flag cross-kind or cross-always drivers *)
      let always_drivers =
        List.filter (fun d -> String.length d > 6 && String.sub d 0 6 = "always") drivers
      in
      if List.length always_drivers > 1 then
        ( s,
          Printf.sprintf "driven from %d always blocks"
            (List.length always_drivers) )
        :: acc
      else acc)
    tally []

(* R4: implicit truncation - an assignment whose right-hand side is
   statically wider than its target (the Bit Truncation shape). *)
let truncating_assignments (m : Ast.module_def) =
  List.filter_map
    (fun (l, rhs, _) ->
      match l with
      | Ast.Lident name -> (
          match (Ast.signal_width m name, Width.of_expr m rhs) with
          | Some lw, rw when rw > lw && rw > 1 ->
              (* adding 32-bit literal constants to narrow counters is
                 ubiquitous and intentional; only flag non-constant excess *)
              let rhs_has_wide_signal =
                List.exists
                  (fun r ->
                    match Ast.signal_width m r with
                    | Some w -> w > lw
                    | None -> false)
                  (Ast.expr_reads rhs)
              in
              if rhs_has_wide_signal then
                Some
                  ( name,
                    Printf.sprintf "%d-bit expression assigned to %d-bit target"
                      rw lw )
              else None
          | _ -> None
          | exception Width.Unknown_width _ -> None)
      | _ -> None)
    (all_assignments m)

(* R5: indexing a non-power-of-two structure with an index wide enough
   to exceed it - the silent-drop flavor of buffer overflow. *)
let overflow_prone_indexing (m : Ast.module_def) =
  let check_index name size (idx : Ast.expr) =
    if size > 0 && size land (size - 1) = 0 then None
    else
      match idx with
      | Ast.Const _ -> None
      | _ -> (
          match Width.of_expr m idx with
          | iw when (1 lsl min iw 30) > size ->
              Some
                ( name,
                  Printf.sprintf
                    "%d-bit index can exceed the %d-entry non-power-of-two \
                     structure; out-of-range accesses are silently dropped"
                    iw size )
          | _ -> None
          | exception Width.Unknown_width _ -> None)
  in
  let rec of_expr (e : Ast.expr) =
    match e with
    | Ast.Index (n, i) -> (
        let nested = of_expr i in
        match Ast.find_decl m n with
        | Some { Ast.depth = Some d; _ } -> (
            match check_index n d i with Some f -> f :: nested | None -> nested)
        | _ -> nested)
    | Ast.Const _ | Ast.Ident _ | Ast.Range _ -> []
    | Ast.Unop (_, a) | Ast.Repeat (_, a) -> of_expr a
    | Ast.Binop (_, a, b) -> of_expr a @ of_expr b
    | Ast.Cond (c, a, b) -> of_expr c @ of_expr a @ of_expr b
    | Ast.Concat es -> List.concat_map of_expr es
  in
  List.concat_map
    (fun (l, rhs, cond) ->
      let from_lvalue =
        match l with
        | Ast.Lindex (n, i) -> (
            match Ast.find_decl m n with
            | Some { Ast.depth = Some d; _ } -> (
                match check_index n d i with Some f -> [ f ] | None -> [])
            | _ -> [])
        | _ -> []
      in
      from_lvalue @ of_expr rhs @ of_expr cond)
    (all_assignments m)

(* R6: a case over an n-bit scrutinee that covers neither all 2^n values
   nor a default - the incomplete-implementation shape. *)
let incomplete_cases (m : Ast.module_def) =
  let rec of_stmt (s : Ast.stmt) =
    match s with
    | Ast.Case (e, items, None) -> (
        let labels =
          List.concat_map (fun (it : Ast.case_item) -> it.Ast.match_exprs) items
        in
        let nested =
          List.concat_map
            (fun (it : Ast.case_item) -> List.concat_map of_stmt it.Ast.body)
            items
        in
        match Width.of_expr m e with
        | w when w <= 16 && List.length labels < 1 lsl w ->
            ( Fpga_hdl.Pp_verilog.expr_str e,
              Printf.sprintf "case covers %d of %d values and has no default"
                (List.length labels) (1 lsl w) )
            :: nested
        | _ -> nested
        | exception Width.Unknown_width _ -> nested)
    | Ast.Case (_, items, Some d) ->
        List.concat_map
          (fun (it : Ast.case_item) -> List.concat_map of_stmt it.Ast.body)
          items
        @ List.concat_map of_stmt d
    | Ast.If (_, t, f) -> List.concat_map of_stmt t @ List.concat_map of_stmt f
    | Ast.Blocking _ | Ast.Nonblocking _ | Ast.Display _ | Ast.Finish -> []
  in
  List.concat_map
    (fun (a : Ast.always) -> List.concat_map of_stmt a.Ast.stmts)
    m.Ast.always_blocks

let rules =
  [
    ("unused", Warning, unused_signals);
    ("undriven", Error, undriven_signals);
    ("multiple-drivers", Error, multiple_drivers);
    ("truncation", Warning, truncating_assignments);
    ("overflow-prone", Warning, overflow_prone_indexing);
    ("incomplete-case", Warning, incomplete_cases);
  ]

let check ?(only = []) (m : Ast.module_def) : finding list =
  List.concat_map
    (fun (rule, severity, run) ->
      if only = [] || List.mem rule only then
        List.map
          (fun (signal, message) -> { severity; rule; signal; message })
          (run m)
      else [])
    rules
  |> List.sort_uniq compare

let check_design ?only (d : Ast.design) : (string * finding list) list =
  List.map (fun m -> (m.Ast.mod_name, check ?only m)) d.Ast.modules
