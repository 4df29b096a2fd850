(* The per-bug debugging recipe of Table 2: instrument the buggy design
   with use case 1's monitors (Session.recipe), then compile the
   resulting $display statements into recording logic with SignalCat
   (the "on-FPGA" use case measured in Figure 2). *)

module Ast = Fpga_hdl.Ast

type instrumented = {
  baseline : Ast.module_def;
  with_monitors : Ast.module_def;  (* monitors applied, displays intact *)
  on_fpga : Ast.module_def;  (* displays compiled into recording logic *)
  signalcat_plan : Fpga_debug.Signalcat.plan;
}

let apply ?(buffer_depth = 8192) (bug : Bug.t) : instrumented =
  let { Session.baseline; with_monitors; _ } =
    Session.instrument (Session.recipe bug) bug (Bug.design_of bug ~buggy:true)
  in
  let on_fpga, signalcat_plan =
    Fpga_debug.Signalcat.apply ~buffer_depth Fpga_debug.Signalcat.On_fpga
      with_monitors
  in
  { baseline; with_monitors; on_fpga; signalcat_plan }

(* Counting lines pretty-prints four modules, which costs more than the
   instrumentation itself, so only the callers that report it pay. *)
let loc r =
  ( Fpga_debug.Instrument.added_loc ~before:r.baseline ~after:r.with_monitors,
    (* gross size of the recording logic, measured against the
       display-stripped design *)
    Fpga_debug.Instrument.added_loc
      ~before:(Fpga_debug.Signalcat.strip_displays_module r.with_monitors)
      ~after:r.on_fpga )

(* Resource overhead of the recipe at a given recording depth
   (one point of Figure 2). *)
let overhead ?(buffer_depth = 8192) (bug : Bug.t) : Fpga_resources.Model.usage =
  let r = apply ~buffer_depth bug in
  Fpga_resources.Model.overhead ~baseline:r.baseline ~instrumented:r.on_fpga

(* Timing closure of the instrumented design (section 6.4). *)
let timing ?(buffer_depth = 8192) (bug : Bug.t) :
    Fpga_resources.Model.timing * Fpga_resources.Model.timing =
  let r = apply ~buffer_depth bug in
  let platform = Fpga_resources.Platforms.of_kind bug.Bug.platform in
  let before =
    Fpga_resources.Model.timing platform r.baseline
      ~target_mhz:bug.Bug.target_mhz
  in
  let after =
    Fpga_resources.Model.timing ~instrumented:true platform r.on_fpga
      ~target_mhz:bug.Bug.target_mhz
  in
  (before, after)

(* LossCheck instrumentation overhead (Figure 3). *)
let losscheck_overhead (bug : Bug.t) : Fpga_resources.Model.usage option =
  match bug.Bug.loss_spec with
  | None -> None
  | Some spec ->
      let m = Session.top bug (Bug.design_of bug ~buggy:true) in
      let plan = Fpga_debug.Losscheck.analyze spec m in
      let instrumented = Fpga_debug.Losscheck.instrument plan m in
      Some (Fpga_resources.Model.overhead ~baseline:m ~instrumented)
