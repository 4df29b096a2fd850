(* debug: one on-FPGA debugging session per Table 2 bug, on one domain,
   bug order shuffled by the seed. Recipe.apply adds the FSM, Stat and
   Dep monitors and compiles the displays into SignalCat recording
   logic; the instrumented design runs a fixed long window, then
   Signalcat.reconstruct reads the log back and Losscheck.localize runs
   on the data-loss bugs. Each item builds one simulator and steps it
   thousands of times, so the kernel does most of the work. The same
   session code serves both runs: with Layer enabled it is the composed
   item. *)

module Ast = Fpga_hdl.Ast
module Bug = Fpga_testbed.Bug
module Losscheck = Fpga_debug.Losscheck
module Recipe = Fpga_testbed.Recipe
module Registry = Fpga_testbed.Registry
module Signalcat = Fpga_debug.Signalcat
module Simulator = Fpga_sim.Simulator
module Trace = Fpga_telemetry.Telemetry.Trace

let window = 2000

(* one recording entry per cycle at most: the whole window fits, so the
   ring never overflows *)
let depth = 2048

let domains = 1
let pass_seconds = 0.13

type session = {
  log : (int * string) list;
  loss : Losscheck.result option;
  cycles : int;
}

let drive (bug : Bug.t) flat =
  let sim = Compose.create flat in
  Trace.with_span ~cat:"layer" "simulator.step" (fun () ->
      let i = ref 0 in
      while !i < window && not (Simulator.finished sim) do
        let c = !i in
        Layer.tick Layer.harness (fun () ->
            List.iter
              (fun (n, v) -> Simulator.set_input sim n v)
              (bug.Bug.stimulus c));
        Layer.tick Layer.sim_step (fun () -> Simulator.step sim);
        incr i
      done);
  sim

let substitute (design : Ast.design) (m : Ast.module_def) =
  {
    Ast.modules =
      List.map
        (fun (x : Ast.module_def) ->
          if x.Ast.mod_name = m.Ast.mod_name then m else x)
        design.Ast.modules;
  }

let elaborate (bug : Bug.t) design =
  Layer.call Layer.elaborate (fun () ->
      Fpga_sim.Elaborate.elaborate design ~top:bug.Bug.top)

(* The Simulation-mode log of the same session: the monitored design
   with its displays executed by the simulator. *)
let reference (bug : Bug.t) =
  let r = Recipe.apply ~buffer_depth:depth bug in
  let design = Bug.design_of bug ~buggy:true in
  Simulator.log (drive bug (elaborate bug (substitute design r.Recipe.with_monitors)))

let session (bug : Bug.t) =
  let r = Layer.call Layer.recipe (fun () -> Recipe.apply ~buffer_depth:depth bug) in
  let design = Compose.design_of bug ~buggy:true in
  let sim = drive bug (elaborate bug (substitute design r.Recipe.on_fpga)) in
  let log =
    Layer.call Layer.reconstruct (fun () ->
        Signalcat.reconstruct r.Recipe.signalcat_plan sim)
  in
  Layer.add Layer.q_log_lines (List.length log);
  Compose.count_lowered sim;
  let loss =
    Option.map
      (fun spec ->
        Layer.call Layer.localize (fun () ->
            Losscheck.localize ~ground_truth:bug.Bug.ground_truth
              ~max_cycles:bug.Bug.max_cycles ~top:bug.Bug.top ~spec
              ~stimulus:bug.Bug.stimulus design))
      bug.Bug.loss_spec
  in
  { log; loss; cycles = Simulator.cycle sim }

(* The verdicts test_testbed pins: each loss bug's root is reported,
   except D11, whose alarm the ground-truth filter suppresses (the
   paper's false negative). *)
let loss_ok (bug : Bug.t) loss =
  match (bug.Bug.loss_root, loss) with
  | _, None -> bug.Bug.loss_spec = None
  | Some root, Some r -> List.mem root r.Losscheck.reported
  | None, Some r -> r.Losscheck.reported = [] && r.Losscheck.suppressed <> []

type prepared = {
  seed : int;
  bugs : Bug.t array;
  reference : (int * string) list array;
}

let pass p pass ~composed : Item.pass =
  let results =
    Array.map
      (fun i ->
        let bug = p.bugs.(i) in
        let r, wall, words =
          Item.timed (fun () -> Item.run ~composed (fun () -> session bug))
        in
        let id = bug.Bug.id in
        match r with
        | Ok (s, layers) ->
            let failure =
              if s.log <> p.reference.(i) then
                Some (id ^ ": reconstructed log differs from the simulation-mode log")
              else if not (loss_ok bug s.loss) then
                Some (id ^ ": LossCheck verdict differs from the pinned one")
              else None
            in
            let names f = String.concat "," (Option.fold ~none:[] ~some:f s.loss) in
            ( Some s,
              {
                Item.wall;
                words;
                digest =
                  Item.digest_of
                    [
                      id;
                      string_of_int s.cycles;
                      Item.log_text s.log;
                      names (fun l -> l.Losscheck.reported);
                      names (fun l -> l.Losscheck.suppressed);
                    ];
                failure;
                layers;
              } )
        | Error e ->
            ( None,
              {
                Item.wall;
                words;
                digest = e;
                failure = Some (id ^ " raised: " ^ e);
                layers = None;
              } ))
      (Item.order ~seed:p.seed ~pass (Array.length p.bugs))
  in
  let items = Array.map snd results in
  let sum f =
    Array.fold_left (fun n (s, _) -> match s with Some s -> n + f s | None -> n) 0 results
  in
  {
    Item.items;
    wall = Array.fold_left (fun s (it : Item.t) -> s +. it.Item.wall) 0.0 items;
    busy_share = None;
    pool = None;
    segments = [];
    counts =
      [
        ("cycles", sum (fun s -> s.cycles));
        ("signalcat_log_lines", sum (fun s -> List.length s.log));
        ( "losscheck_reported",
          sum (fun s ->
              match s.loss with Some l -> List.length l.Losscheck.reported | None -> 0) );
        ( "minor_words",
          Array.fold_left
            (fun s (it : Item.t) -> s + int_of_float it.Item.words)
            0 items );
      ];
  }

let setup ~seed =
  let bugs = Array.of_list Registry.all in
  let p = { seed; bugs; reference = Array.map reference bugs } in
  ignore (pass p 0 ~composed:false);
  p
