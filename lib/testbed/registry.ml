(* A bug whose stimuli are tables of the inputs that change
   ([Testbench.tabulate]), grown over every cycle a caller runs: the
   bug's own and each ground-truth one. Every run, replay, fuzz mutant,
   LossCheck pass and on-FPGA session of a registry bug then applies
   only those inputs, with the results of the closures, which are all
   pure and total on cycles >= 0 (past its scripted traffic a closure
   returns its idle row). A ground-truth entry keeps its budget for the
   runs it drives. *)
let tabulated (bug : Bug.t) =
  let tabulate = Fpga_sim.Testbench.tabulate in
  {
    bug with
    Bug.stimulus = tabulate bug.Bug.stimulus;
    ground_truth =
      List.map (fun (f, cycles) -> (tabulate f, cycles)) bug.Bug.ground_truth;
  }

(* All reproducible bugs of the testbed, in Table 2 order, as their
   modules define them. *)
let table2 : Bug.t list =
  [
    App_rsd.bug;          (* D1 *)
    App_grayscale.bug;    (* D2 *)
    App_optimus.d3;       (* D3 *)
    App_frame_fifo.d4;    (* D4 *)
    App_sha512.d5;        (* D5 *)
    App_fft.bug;          (* D6 *)
    App_fadd.bug;         (* D7 *)
    App_axis_switch.bug;  (* D8 *)
    App_sdspi.d9;         (* D9 *)
    App_sha512.d10;       (* D10 *)
    App_frame_fifo.d11;   (* D11 *)
    App_frame_fifo.d12;   (* D12 *)
    App_frame_len.bug;    (* D13 *)
    App_sdspi.c1;         (* C1 *)
    App_optimus.c2;       (* C2 *)
    App_sdspi.c3;         (* C3 *)
    App_axis_fifo.bug;    (* C4 *)
    App_axil_demo.bug;    (* S1 *)
    App_axis_demo.bug;    (* S2 *)
    App_axis_adapter.bug; (* S3 *)
  ]

let all = List.map tabulated table2

let ids = List.map (fun (b : Bug.t) -> b.Bug.id) all

(* Bugs whose loss_spec makes them LossCheck targets. *)
let loss_bugs = List.filter (fun (b : Bug.t) -> b.Bug.loss_spec <> None) all

(* The designs the fuzz campaign mutates: cheap cycle budgets so the
   three runs of a valid mutant (primary, brute force, telemetry on;
   the unmutated base run is memoised per target) stay fast, and
   between them every structural feature a mutation template targets
   (IP instances in D4 and C4, case statements, concatenations,
   memories, reset logic). *)
let fuzz_targets =
  List.filter
    (fun (b : Bug.t) ->
      List.mem b.Bug.id [ "D2"; "D4"; "D8"; "D13"; "C4"; "S1"; "S2"; "S3" ])
    all

(* The extended reproductions beyond Table 2 (see Extended, App_cpu). *)
let extended_closures = Extended.all @ [ App_cpu.e7; App_cpu.e8 ]
let extended : Bug.t list = List.map tabulated extended_closures
let all_with_extended = all @ extended
let untabulated = table2 @ extended_closures

let find id =
  List.find_opt (fun (b : Bug.t) -> b.Bug.id = id) all_with_extended

(* Resolve a list of ids (extended set included), preserving request
   order; the second component collects the unknown ids so a CLI can
   report them all at once. *)
let find_many requested =
  List.fold_right
    (fun id (found, unknown) ->
      match find id with
      | Some b -> (b :: found, unknown)
      | None -> (found, id :: unknown))
    requested ([], [])
