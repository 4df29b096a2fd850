(* Elaboration: flatten a multi-module design into a single namespace of
   signals, continuous assigns, combinational and sequential processes,
   and builtin IP primitives.

   Instance-local names are prefixed with the instance path using '/'
   (e.g. "u_ram/mem"). Ports whose actual is a plain identifier are
   unified with the parent signal instead of introducing an alias, so
   clocks keep their top-level name through arbitrary nesting.

   Parameters and localparams are substituted as constants, with
   instance parameter overrides applied. Widths were already folded at
   parse time, so a parameter override may not change widths (a
   documented restriction of this subset). *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits

exception Elaboration_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Elaboration_error s)) fmt

type fsignal = {
  fs_name : string;
  fs_width : int;
  fs_depth : int option;
  fs_init : Bits.t option;
  fs_is_input : bool;
  fs_is_output : bool;
}

type prim_kind = Scfifo | Dcfifo | Altsyncram

type fprim = {
  fp_name : string;
  fp_kind : prim_kind;
  fp_params : (string * int) list;
  fp_inputs : (string * Ast.expr) list;  (* formal -> flattened expr *)
  fp_outputs : (string * string) list;  (* formal -> flat signal name *)
}

type clock_edge = Pos | Neg

type flat = {
  f_top : string;
  f_signals : (string, fsignal) Hashtbl.t;
  f_assigns : (Ast.lvalue * Ast.expr) list;
  f_comb : Ast.stmt list list;
  f_seq : (clock_edge * string * Ast.stmt list) list;
      (* edge * clock name * body *)
  f_prims : fprim list;
  f_inputs : (string * int) list;
  f_outputs : (string * int) list;
  f_signal_order : string array;  (* dense signal id -> flat name *)
  f_signal_ids : (string, int) Hashtbl.t;  (* flat name -> dense id *)
}

let prim_kind_of_target = function
  | "scfifo" -> Some Scfifo
  | "dcfifo" -> Some Dcfifo
  | "altsyncram" -> Some Altsyncram
  | _ -> None

(* Port directions of builtin IPs, from {!Ast.ip_ports}: [true] = output. *)
let prim_port_is_output target formal =
  match Ast.ip_ports target with
  | Some p -> List.mem formal p.Ast.ip_outputs
  | None -> false

(* Output widths of builtin IPs given their parameters. *)
let prim_output_width kind params formal =
  let param name default = Option.value (List.assoc_opt name params) ~default in
  let log2 n =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
    go 0 n
  in
  match (kind, formal) with
  | Scfifo, "q" -> param "lpm_width" 8
  | Scfifo, ("empty" | "full") -> 1
  | Scfifo, "usedw" -> max 1 (log2 (param "lpm_numwords" 16))
  | Dcfifo, "q" -> param "lpm_width" 8
  | Dcfifo, ("rdempty" | "wrfull") -> 1
  | Dcfifo, ("wrusedw" | "rdusedw") -> max 1 (log2 (param "lpm_numwords" 16))
  | Altsyncram, "q_a" -> param "width_a" 8
  | Altsyncram, "q_b" -> param "width_b" (param "width_a" 8)
  | _ -> err "unknown IP output %s" formal

type ctx = {
  design : Ast.design;
  signals : (string, fsignal) Hashtbl.t;
  mutable assigns : (Ast.lvalue * Ast.expr) list;
  mutable comb : Ast.stmt list list;
  mutable seq : (clock_edge * string * Ast.stmt list) list;
  mutable prims : fprim list;
}

let join prefix name = if prefix = "" then name else prefix ^ "/" ^ name

let add_signal ctx s =
  match Hashtbl.find_opt ctx.signals s.fs_name with
  | None -> Hashtbl.replace ctx.signals s.fs_name s
  | Some existing ->
      if existing.fs_width <> s.fs_width then
        err "signal %s elaborated with conflicting widths %d and %d" s.fs_name
          existing.fs_width s.fs_width;
      let merged =
        {
          existing with
          fs_init =
            (match s.fs_init with None -> existing.fs_init | some -> some);
          fs_depth =
            (match s.fs_depth with None -> existing.fs_depth | some -> some);
        }
      in
      Hashtbl.replace ctx.signals s.fs_name merged

(* Substitute identifiers: parameters/localparams become constants, other
   names are renamed through [rename]. *)
let rec subst_expr consts rename e =
  match e with
  | Ast.Const _ -> e
  | Ast.Ident n -> (
      match List.assoc_opt n consts with
      | Some b -> Ast.Const b
      | None -> Ast.Ident (rename n))
  | Ast.Index (n, i) -> (
      let i = subst_expr consts rename i in
      match List.assoc_opt n consts with
      | Some _ -> err "cannot index parameter %s" n
      | None -> Ast.Index (rename n, i))
  | Ast.Range (n, hi, lo) -> (
      match List.assoc_opt n consts with
      | Some b -> Ast.Const (Bits.slice b ~hi ~lo)
      | None -> Ast.Range (rename n, hi, lo))
  | Ast.Unop (op, a) -> Ast.Unop (op, subst_expr consts rename a)
  | Ast.Binop (op, a, b) ->
      Ast.Binop (op, subst_expr consts rename a, subst_expr consts rename b)
  | Ast.Cond (c, a, b) ->
      Ast.Cond
        ( subst_expr consts rename c,
          subst_expr consts rename a,
          subst_expr consts rename b )
  | Ast.Concat es -> Ast.Concat (List.map (subst_expr consts rename) es)
  | Ast.Repeat (n, a) -> Ast.Repeat (n, subst_expr consts rename a)

let rec subst_lvalue consts rename l =
  match l with
  | Ast.Lident n -> Ast.Lident (rename n)
  | Ast.Lindex (n, i) -> Ast.Lindex (rename n, subst_expr consts rename i)
  | Ast.Lrange (n, hi, lo) -> Ast.Lrange (rename n, hi, lo)
  | Ast.Lconcat ls -> Ast.Lconcat (List.map (subst_lvalue consts rename) ls)

let rec subst_stmt consts rename s =
  match s with
  | Ast.Blocking (l, e) ->
      Ast.Blocking (subst_lvalue consts rename l, subst_expr consts rename e)
  | Ast.Nonblocking (l, e) ->
      Ast.Nonblocking (subst_lvalue consts rename l, subst_expr consts rename e)
  | Ast.If (c, t, f) ->
      Ast.If
        ( subst_expr consts rename c,
          List.map (subst_stmt consts rename) t,
          List.map (subst_stmt consts rename) f )
  | Ast.Case (e, items, default) ->
      Ast.Case
        ( subst_expr consts rename e,
          List.map
            (fun it ->
              {
                Ast.match_exprs =
                  List.map (subst_expr consts rename) it.Ast.match_exprs;
                body = List.map (subst_stmt consts rename) it.Ast.body;
              })
            items,
          Option.map (List.map (subst_stmt consts rename)) default )
  | Ast.Display (fmt, args) ->
      Ast.Display (fmt, List.map (subst_expr consts rename) args)
  | Ast.Finish -> Ast.Finish

(* Inline one module instance. [port_map] maps local port names to
   existing flat signal names (identity connections). *)
let rec inline ctx prefix (m : Ast.module_def) param_overrides port_map =
  let params =
    List.map
      (fun (n, v) ->
        let v = Option.value (List.assoc_opt n param_overrides) ~default:v in
        (n, Bits.of_int ~width:32 v))
      m.Ast.params
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n m.Ast.params) then
        err "instance %s overrides unknown parameter %s" prefix n)
    param_overrides;
  let consts = params @ m.Ast.localparams in
  let rename n =
    match List.assoc_opt n port_map with
    | Some flat -> flat
    | None -> join prefix n
  in
  (* Declare signals for ports that were not unified with parent nets. *)
  List.iter
    (fun (p : Ast.port) ->
      if not (List.mem_assoc p.Ast.port_name port_map) then
        add_signal ctx
          {
            fs_name = join prefix p.Ast.port_name;
            fs_width = p.Ast.port_width;
            fs_depth = None;
            fs_init = None;
            fs_is_input = false;
            fs_is_output = false;
          })
    m.Ast.ports;
  (* Declare local signals (including "output reg" decls). *)
  List.iter
    (fun (d : Ast.decl) ->
      add_signal ctx
        {
          fs_name = rename d.Ast.name;
          fs_width = d.Ast.width;
          fs_depth = d.Ast.depth;
          fs_init = d.Ast.init;
          fs_is_input = false;
          fs_is_output = false;
        })
    m.Ast.decls;
  (* Continuous assigns and processes. *)
  List.iter
    (fun (l, e) ->
      ctx.assigns <-
        (subst_lvalue consts rename l, subst_expr consts rename e)
        :: ctx.assigns)
    m.Ast.assigns;
  List.iter
    (fun (a : Ast.always) ->
      let body = List.map (subst_stmt consts rename) a.Ast.stmts in
      match a.Ast.sens with
      | Ast.Star -> ctx.comb <- body :: ctx.comb
      | Ast.Posedge clk -> ctx.seq <- (Pos, rename clk, body) :: ctx.seq
      | Ast.Negedge clk -> ctx.seq <- (Neg, rename clk, body) :: ctx.seq)
    m.Ast.always_blocks;
  (* Instances. *)
  List.iter (fun i -> inline_instance ctx prefix consts rename i) m.Ast.instances

and inline_instance ctx prefix consts rename (i : Ast.instance) =
  let child_prefix = join prefix i.Ast.inst_name in
  match prim_kind_of_target i.Ast.target with
  | Some kind ->
      let inputs = ref [] and outputs = ref [] in
      List.iter
        (fun (c : Ast.connection) ->
          let actual = subst_expr consts rename c.Ast.actual in
          if prim_port_is_output i.Ast.target c.Ast.formal then (
            match actual with
            | Ast.Ident "_nc_" -> ()
            | Ast.Ident flat ->
                outputs := (c.Ast.formal, flat) :: !outputs;
                add_signal ctx
                  {
                    fs_name = flat;
                    fs_width = prim_output_width kind i.Ast.params c.Ast.formal;
                    fs_depth = None;
                    fs_init = None;
                    fs_is_input = false;
                    fs_is_output = false;
                  }
            | _ ->
                err "IP output %s of %s must connect to a plain identifier"
                  c.Ast.formal child_prefix)
          else
            match actual with
            | Ast.Ident "_nc_" -> ()
            | _ -> inputs := (c.Ast.formal, actual) :: !inputs)
        i.Ast.conns;
      ctx.prims <-
        {
          fp_name = child_prefix;
          fp_kind = kind;
          fp_params = i.Ast.params;
          fp_inputs = List.rev !inputs;
          fp_outputs = List.rev !outputs;
        }
        :: ctx.prims
  | None -> (
      match Ast.find_module ctx.design i.Ast.target with
      | None -> err "unknown module %s instantiated as %s" i.Ast.target child_prefix
      | Some child ->
          let port_map = ref [] in
          let extra_assigns = ref [] in
          List.iter
            (fun (c : Ast.connection) ->
              let port =
                match Ast.find_port child c.Ast.formal with
                | Some p -> p
                | None ->
                    err "module %s has no port %s" child.Ast.mod_name
                      c.Ast.formal
              in
              let actual = subst_expr consts rename c.Ast.actual in
              match (port.Ast.dir, actual) with
              | _, Ast.Ident "_nc_" -> ()
              | _, Ast.Ident flat ->
                  port_map := (c.Ast.formal, flat) :: !port_map
              | Ast.Input, e ->
                  (* feed expression through a fresh alias net *)
                  let alias = join child_prefix c.Ast.formal in
                  add_signal ctx
                    {
                      fs_name = alias;
                      fs_width = port.Ast.port_width;
                      fs_depth = None;
                      fs_init = None;
                      fs_is_input = false;
                      fs_is_output = false;
                    };
                  extra_assigns := (Ast.Lident alias, e) :: !extra_assigns;
                  port_map := (c.Ast.formal, alias) :: !port_map
              | Ast.Output, (Ast.Index _ | Ast.Range _) ->
                  let alias = join child_prefix c.Ast.formal in
                  add_signal ctx
                    {
                      fs_name = alias;
                      fs_width = port.Ast.port_width;
                      fs_depth = None;
                      fs_init = None;
                      fs_is_input = false;
                      fs_is_output = false;
                    };
                  let lv =
                    match actual with
                    | Ast.Index (n, ix) -> Ast.Lindex (n, ix)
                    | Ast.Range (n, hi, lo) -> Ast.Lrange (n, hi, lo)
                    | _ -> assert false
                  in
                  extra_assigns := (lv, Ast.Ident alias) :: !extra_assigns;
                  port_map := (c.Ast.formal, alias) :: !port_map
              | Ast.Output, _ ->
                  err "output port %s of %s connected to a non-lvalue"
                    c.Ast.formal child_prefix
              | Ast.Inout, _ -> err "inout ports are not supported (%s)" c.Ast.formal)
            i.Ast.conns;
          inline ctx child_prefix child i.Ast.params !port_map;
          ctx.assigns <- !extra_assigns @ ctx.assigns)

let elaborate_fresh (design : Ast.design) ~top : flat =
  let top_mod =
    match Ast.find_module design top with
    | Some m -> m
    | None -> err "top module %s not found" top
  in
  let ctx =
    { design; signals = Hashtbl.create 64; assigns = []; comb = []; seq = [];
      prims = [] }
  in
  inline ctx "" top_mod [] [];
  (* Mark top-level port directions. *)
  List.iter
    (fun (p : Ast.port) ->
      match Hashtbl.find_opt ctx.signals p.Ast.port_name with
      | None -> err "top port %s lost during elaboration" p.Ast.port_name
      | Some s ->
          Hashtbl.replace ctx.signals p.Ast.port_name
            {
              s with
              fs_is_input = (p.Ast.dir = Ast.Input);
              fs_is_output = (p.Ast.dir = Ast.Output);
            })
    top_mod.Ast.ports;
  let port_list dir =
    List.filter_map
      (fun (p : Ast.port) ->
        if p.Ast.dir = dir then Some (p.Ast.port_name, p.Ast.port_width)
        else None)
      top_mod.Ast.ports
  in
  (* Dense signal interning: every flat signal gets an integer id
     (sorted by name, so ids are deterministic across runs). The
     compiled evaluation path indexes its value array with these ids
     instead of hashing name strings on every expression node. *)
  let f_signal_order =
    Hashtbl.fold (fun name _ acc -> name :: acc) ctx.signals []
    |> List.sort String.compare |> Array.of_list
  in
  let f_signal_ids = Hashtbl.create (Array.length f_signal_order) in
  Array.iteri (fun i name -> Hashtbl.replace f_signal_ids name i) f_signal_order;
  {
    f_top = top;
    f_signals = ctx.signals;
    f_assigns = List.rev ctx.assigns;
    f_comb = List.rev ctx.comb;
    f_seq = List.rev ctx.seq;
    f_prims = List.rev ctx.prims;
    f_inputs = port_list Ast.Input;
    f_outputs = port_list Ast.Output;
    f_signal_order;
    f_signal_ids;
  }

(* A fuzz mutant is elaborated by its validity gate and then by each
   of its runs, with nothing elaborated in between, so each domain
   remembers its last elaboration, keyed on the physical design and
   the top. Designs are immutable and no code writes a flat after this
   function returns, so handing the same flat out again is safe; a
   design that fails to elaborate is not remembered and raises again. *)
let last : (Ast.design * string * flat) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let elaborate (design : Ast.design) ~top : flat =
  let slot = Domain.DLS.get last in
  match !slot with
  | Some (d, t, flat) when d == design && String.equal t top -> flat
  | _ ->
      let flat = elaborate_fresh design ~top in
      slot := Some (design, top, flat);
      flat

let signal flat name =
  match Hashtbl.find_opt flat.f_signals name with
  | Some s -> s
  | None -> err "unknown signal %s" name

let signal_width flat name = (signal flat name).fs_width
