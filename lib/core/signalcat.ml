(* SignalCat (section 4.1): unified logging for simulation and on-FPGA
   execution.

   A design annotated with $display statements can run in two modes:

   - [Simulation]: the statements execute directly in the simulator,
     which prints and logs them - the traditional flow.

   - [On_fpga]: the static pass strips every $display and synthesizes
     recording logic in its place: one wide ring buffer (the model of a
     SignalTap/ILA recording IP) stores, per cycle in which at least one
     statement's path constraint holds, a cycle counter, one constraint
     bit per statement, and every statement's argument values.
     [reconstruct] then reads the buffer back (the JTAG-readback analog)
     and rebuilds exactly the log the simulation mode would have printed,
     up to the buffer capacity.

   The equivalence of the two logs is the tool's headline property and
   is checked by the test suite. It holds by construction as far as
   rendering goes: both modes render through the one compiled
   [Display] format. [analyze] fixes each statement's place in the
   entry once per plan (its [layout]), and [reconstruct] decodes the
   ring in place: it reads each entry from the simulator's memory
   without copying the ring, takes arguments of at most 62 bits
   straight from the entry's limbs ([Bits.field_int]) and slices only
   wider ones. *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Width = Fpga_analysis.Width
module Path_constraint = Fpga_analysis.Path_constraint
module Simulator = Fpga_sim.Simulator

type mode = Simulation | On_fpga

type statement_info = {
  stmt_id : int;
  fmt : string;
  args : Ast.expr list;
  arg_widths : int list;
  cond : Ast.expr;  (* path constraint *)
}

(* Optional recording window (section 4.1): recording arms when [start]
   first holds and disarms [post] recorded entries after [stop] holds,
   so the ring buffer retains the interval around the event. Without a
   trigger the recorder runs from cycle 0. *)
type trigger = {
  start : Ast.expr option;
  stop : Ast.expr option;
  post : int;  (* extra entries recorded after the stop event *)
}

(* Where one statement sits in a buffer entry, and its format. *)
type layout = {
  cbit : int;  (* its constraint bit *)
  offsets : int array;  (* each argument's lowest bit *)
  widths : int array;
  format : Fpga_sim.Display.t;
}

type plan = {
  module_name : string;
  statements : statement_info list;
  buffer_depth : int;
  entry_width : int;  (* 32-bit cycle + constraint bits + argument bits *)
  trigger : trigger;
  layout : layout array;  (* per statement, in order *)
}

let no_trigger = { start = None; stop = None; post = 0 }

let buf_name = "_sc_buf"
let ptr_name = "_sc_ptr"
let total_name = "_sc_total"
let cycle_name = "_sc_cycle"
let stage_name = "_sc_stage"
let stage_vld_name = "_sc_stage_vld"
let armed_name = "_sc_armed"
let post_name = "_sc_post"
let gate_name = "_sc_gate"

(* ------------------------------------------------------------------ *)
(* Static analysis                                                     *)
(* ------------------------------------------------------------------ *)

let analyze ?(buffer_depth = 8192) ?(trigger = no_trigger)
    (m : Ast.module_def) : plan =
  if buffer_depth < 1 || buffer_depth land (buffer_depth - 1) <> 0 then
    Instrument.err "SignalCat buffer depth must be a power of two";
  (* the recorder must sample on the same edge the statements fire on;
     designs mixing display edges need two recording IPs, which this
     implementation does not synthesize *)
  let edges =
    List.filter_map
      (fun (a : Ast.always) ->
        let has_displays = Path_constraint.displays_of_always a <> [] in
        match a.Ast.sens with
        | Ast.Posedge _ when has_displays -> Some `Pos
        | Ast.Negedge _ when has_displays -> Some `Neg
        | _ -> None)
      m.Ast.always_blocks
    |> List.sort_uniq compare
  in
  if List.length edges > 1 then
    Instrument.err
      "SignalCat: $display statements on both clock edges need two        recording IPs; keep them on one edge";
  let statements =
    List.concat_map
      (fun (a : Ast.always) ->
        match a.Ast.sens with
        | Ast.Posedge _ | Ast.Negedge _ -> Path_constraint.displays_of_always a
        | Ast.Star -> [])
      m.Ast.always_blocks
    |> List.mapi (fun stmt_id (fmt, args, cond) ->
           {
             stmt_id;
             fmt;
             args;
             arg_widths = List.map (Width.of_expr m) args;
             cond;
           })
  in
  (* the entry [entry_expr] builds: after the 32-bit cycle, per
     statement its constraint bit, then its arguments *)
  let entry_width, layout =
    List.fold_left_map
      (fun cbit s ->
        let widths = Array.of_list s.arg_widths in
        let offsets = Array.make (Array.length widths) 0 in
        let pos = ref (cbit + 1) in
        Array.iteri
          (fun i w ->
            offsets.(i) <- !pos;
            pos := !pos + w)
          widths;
        (!pos, { cbit; offsets; widths; format = Fpga_sim.Display.compile s.fmt }))
      32 statements
  in
  {
    module_name = m.Ast.mod_name;
    statements;
    buffer_depth;
    entry_width;
    trigger;
    layout = Array.of_list layout;
  }

(* ------------------------------------------------------------------ *)
(* Instrumentation (On_fpga mode)                                      *)
(* ------------------------------------------------------------------ *)

let rec strip_displays (stmts : Ast.stmt list) : Ast.stmt list =
  List.filter_map
    (fun s ->
      match s with
      | Ast.Display _ -> None
      | Ast.If (c, t, f) -> Some (Ast.If (c, strip_displays t, strip_displays f))
      | Ast.Case (e, items, default) ->
          Some
            (Ast.Case
               ( e,
                 List.map
                   (fun (it : Ast.case_item) ->
                     { it with Ast.body = strip_displays it.Ast.body })
                   items,
                 Option.map strip_displays default ))
      | Ast.Blocking _ | Ast.Nonblocking _ | Ast.Finish -> Some s)
    stmts

(* Buffer entry, LSB to MSB: cycle(32), then per statement its
   constraint bit followed by its argument values. *)
let entry_expr plan : Ast.expr =
  let fields_lsb_first =
    Ast.Ident cycle_name
    :: List.concat_map
         (fun s -> (s.cond :: s.args))
         plan.statements
  in
  match List.rev fields_lsb_first with
  | [ single ] -> single
  | msb_first -> Ast.Concat msb_first

let instrument (plan : plan) (m : Ast.module_def) : Ast.module_def =
  if plan.statements = [] then m
  else (
    let clk = Instrument.find_clock m in
    (* clock the recorder on the edge the displays fire on *)
    let display_sens =
      List.find_map
        (fun (a : Ast.always) ->
          if Path_constraint.displays_of_always a <> [] then
            match a.Ast.sens with
            | (Ast.Posedge _ | Ast.Negedge _) as s -> Some s
            | Ast.Star -> None
          else None)
        m.Ast.always_blocks
    in
    let recorder_sens =
      match display_sens with Some s -> s | None -> Ast.Posedge clk
    in
    let stripped =
      {
        m with
        Ast.always_blocks =
          List.map
            (fun (a : Ast.always) ->
              { a with Ast.stmts = strip_displays a.Ast.stmts })
            m.Ast.always_blocks;
      }
    in
    let ptr_width = Width.clog2 plan.buffer_depth in
    let any_cond =
      List.fold_left
        (fun acc s -> Ast.or_expr acc s.cond)
        Ast.false_expr plan.statements
    in
    let armed_init =
      match plan.trigger.start with None -> Some (Bits.one 1) | Some _ -> None
    in
    let decls =
      [
        { Ast.name = armed_name; kind = Ast.Reg; width = 1; depth = None;
          init = armed_init };
        { Ast.name = post_name; kind = Ast.Reg; width = 16; depth = None;
          init = Some (Bits.of_int ~width:16 (plan.trigger.post + 1)) };
        {
          Ast.name = buf_name;
          kind = Ast.Reg;
          width = plan.entry_width;
          depth = Some plan.buffer_depth;
          init = None;
        };
        { Ast.name = ptr_name; kind = Ast.Reg; width = ptr_width; depth = None; init = None };
        { Ast.name = total_name; kind = Ast.Reg; width = 32; depth = None; init = None };
        { Ast.name = cycle_name; kind = Ast.Reg; width = 32; depth = None; init = None };
        { Ast.name = stage_name; kind = Ast.Reg; width = plan.entry_width;
          depth = None; init = None };
        { Ast.name = stage_vld_name; kind = Ast.Reg; width = 1; depth = None;
          init = None };
        { Ast.name = gate_name; kind = Ast.Reg; width = 1; depth = None;
          init = None };
      ]
    in
    let one w = Ast.Const (Bits.one w) in
    (* The recording window: armed from the start event (inclusive)
       until the stop event. Without a start trigger the recorder is
       armed from reset. *)
    let start_e = Option.value plan.trigger.start ~default:Ast.false_expr in
    let stop_e = Option.value plan.trigger.stop ~default:Ast.false_expr in
    (* once the stop event fires, a post-trigger countdown lets the ring
       keep a window after the event before the recorder freezes *)
    let post_zero =
      Ast.Binop (Ast.Eq, Ast.Ident post_name, Ast.Const (Bits.zero 16))
    in
    let armed_now =
      Ast.and_expr
        (Ast.or_expr (Ast.Ident armed_name) start_e)
        (Ast.not_expr post_zero)
    in
    let arm_update = Ast.Nonblocking (Ast.Lident armed_name, armed_now) in
    let post_update =
      match plan.trigger.stop with
      | None -> []
      | Some _ ->
          (* the stop event only counts once the recorder is armed, so a
             stop condition that holds at reset cannot pre-empt the
             start trigger *)
          let stop_while_armed =
            Ast.and_expr stop_e
              (Ast.or_expr (Ast.Ident armed_name) start_e)
          in
          [
            Ast.If
              ( Ast.and_expr
                  (Ast.or_expr stop_while_armed
                     (Ast.Binop
                        (Ast.Lt, Ast.Ident post_name,
                         Ast.Const (Bits.of_int ~width:16 (plan.trigger.post + 1)))))
                  (Ast.not_expr post_zero),
                [
                  Ast.Nonblocking
                    ( Ast.Lident post_name,
                      Ast.Binop
                        (Ast.Sub, Ast.Ident post_name, Ast.Const (Bits.one 16)) );
                ],
                [] );
          ]
    in
    (* The recording pipeline mirrors vendor trace IPs: samples are
       staged for one cycle, then committed to the ring buffer, keeping
       the capture logic off the design's critical path. *)
    let stage =
      (arm_update :: post_update)
      @ [
          Ast.Nonblocking (Ast.Lident stage_name, entry_expr plan);
          Ast.Nonblocking (Ast.Lident stage_vld_name, any_cond);
          (* the window gate is registered alongside the staged sample,
             keeping the armed logic off the staging path *)
          Ast.Nonblocking (Ast.Lident gate_name, armed_now);
        ]
    in
    let commit =
      Ast.If
        ( Ast.and_expr (Ast.Ident stage_vld_name) (Ast.Ident gate_name),
          [
            Ast.Nonblocking
              (Ast.Lindex (buf_name, Ast.Ident ptr_name), Ast.Ident stage_name);
            Ast.Nonblocking
              ( Ast.Lident ptr_name,
                Ast.Binop (Ast.Add, Ast.Ident ptr_name, one ptr_width) );
            Ast.Nonblocking
              ( Ast.Lident total_name,
                Ast.Binop (Ast.Add, Ast.Ident total_name, one 32) );
          ],
          [] )
    in
    let tick =
      Ast.Nonblocking
        (Ast.Lident cycle_name, Ast.Binop (Ast.Add, Ast.Ident cycle_name, one 32))
    in
    Instrument.add_logic stripped ~decls
      ~always:[ { Ast.sens = recorder_sens; stmts = (tick :: stage) @ [ commit ] } ])

(* The design with every $display removed; useful for accounting the
   gross size of the generated recording logic. *)
let strip_displays_module (m : Ast.module_def) : Ast.module_def =
  {
    m with
    Ast.always_blocks =
      List.map
        (fun (a : Ast.always) -> { a with Ast.stmts = strip_displays a.Ast.stmts })
        m.Ast.always_blocks;
  }

(* Single entry point used by the other tools: in [Simulation] mode the
   design is unchanged; in [On_fpga] mode the displays are compiled into
   recording logic. *)
let apply ?(buffer_depth = 8192) ?trigger mode (m : Ast.module_def) :
    Ast.module_def * plan =
  let plan = analyze ~buffer_depth ?trigger m in
  match mode with
  | Simulation -> (m, plan)
  | On_fpga -> (instrument plan m, plan)

(* ------------------------------------------------------------------ *)
(* Log reconstruction (On_fpga mode)                                   *)
(* ------------------------------------------------------------------ *)

(* Walk the ring buffer oldest entry first (from [ptr] once it has
   wrapped), then any entry still sitting in the capture pipeline when
   the run ends. Each entry's lines are consed onto [acc], last
   statement first, and the whole log reversed once at the end. *)
let reconstruct (plan : plan) (sim : Simulator.t) : (int * string) list =
  if plan.statements = [] then []
  else (
    let word = Simulator.memory_reader sim buf_name in
    let total = Simulator.read_int sim total_name in
    let depth = plan.buffer_depth in
    let first, count =
      if total <= depth then (0, total)
      else (Simulator.read_int sim ptr_name, depth)
    in
    let text = Buffer.create 64 in
    let entry = ref (Bits.zero 1) in
    (* each statement's argument reader, over the entry being decoded *)
    let arg l buf d i =
      let lo = l.offsets.(i) and w = l.widths.(i) in
      if w <= 62 then
        Fpga_sim.Display.add_int buf d ~width:w (Bits.field_int !entry ~lo ~w)
      else Fpga_sim.Display.add_bits buf d (Bits.slice !entry ~hi:(lo + w - 1) ~lo)
    in
    let args = Array.map arg plan.layout in
    let decode e acc =
      entry := e;
      let cycle = Bits.field_int e ~lo:0 ~w:32 in
      let acc = ref acc in
      for s = 0 to Array.length plan.layout - 1 do
        let l = plan.layout.(s) in
        (* a disabled statement's arguments are never rendered *)
        if Bits.bit e l.cbit then (
          Buffer.clear text;
          Fpga_sim.Display.render_to text l.format
            ~nargs:(Array.length l.widths) args.(s);
          acc := (cycle, Buffer.contents text) :: !acc)
      done;
      !acc
    in
    let acc = ref [] in
    for i = 0 to count - 1 do
      acc := decode (word ((first + i) mod depth)) !acc
    done;
    if
      Simulator.read_int sim stage_vld_name = 1
      && Simulator.read_int sim gate_name = 1
    then acc := decode (Simulator.read sim stage_name) !acc;
    List.rev !acc)

(* Run a design+stimulus in the given mode and return the unified log.
   This is the "single interface for tracing" the paper describes. *)
let run_and_log ?(buffer_depth = 8192) ?trigger ?(max_cycles = 10_000) ~mode
    ~top (design : Ast.design) (stimulus : Fpga_sim.Testbench.stimulus) :
    (int * string) list =
  let m =
    match Ast.find_module design top with
    | Some m -> m
    | None -> Instrument.err "no module %s" top
  in
  let m', plan = apply ~buffer_depth ?trigger mode m in
  let design' = Ast.replace_module design m m' in
  let sim = Fpga_sim.Testbench.of_design ~top design' in
  let outcome = Fpga_sim.Testbench.run ~max_cycles sim stimulus in
  match mode with
  | Simulation -> outcome.Fpga_sim.Testbench.log
  | On_fpga -> reconstruct plan sim

let generated_loc (plan : plan) (m : Ast.module_def) : int =
  let instrumented = instrument plan m in
  max 0 (Instrument.added_loc ~before:m ~after:instrumented)
