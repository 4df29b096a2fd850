(* Smoke tests for the evaluation-report printers: every section runs
   without raising and the headline invariants of the evaluation hold
   when computed the same way the report computes them. *)

module Report = Fpga_report.Report
module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Recipe = Fpga_testbed.Recipe
module Model = Fpga_resources.Model

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_sections_run () =
  (* the printers write to stdout (captured by alcotest); the test is
     that none of them raises *)
  Report.table1 ();
  Report.extended_testbed ();
  Report.figure3 ();
  Report.frequency ()

let test_frequency_headline () =
  let kept, dropped =
    List.partition
      (fun (bug : Bug.t) ->
        let _, after = Recipe.timing ~buffer_depth:8192 bug in
        after.Model.meets_target)
      Registry.all
  in
  check_int "18 keep their target" 18 (List.length kept);
  Alcotest.(check (list string))
    "the two Optimus bugs drop" [ "C2"; "D3" ]
    (List.sort String.compare (List.map (fun (b : Bug.t) -> b.Bug.id) dropped));
  List.iter
    (fun (bug : Bug.t) ->
      let _, after = Recipe.timing ~buffer_depth:8192 bug in
      check_int (bug.Bug.id ^ " reduced to 200 MHz") 200 after.Model.achieved_mhz)
    dropped

let test_figure2_trends () =
  (* the Figure 2 invariants, checked for every bug rather than eyeballed *)
  List.iter
    (fun (bug : Bug.t) ->
      let u1 = Recipe.overhead ~buffer_depth:1024 bug in
      let u8 = Recipe.overhead ~buffer_depth:8192 bug in
      check_bool (bug.Bug.id ^ " bram overhead positive") true
        (u1.Model.bram_bits > 0);
      check_int
        (bug.Bug.id ^ " bram scales exactly 8x")
        (8 * u1.Model.bram_bits) u8.Model.bram_bits;
      check_bool (bug.Bug.id ^ " registers nearly flat") true
        (abs (u8.Model.registers - u1.Model.registers) <= 4))
    Registry.all

let test_generated_loc_average () =
  let locs =
    List.map
      (fun bug ->
        let monitor, recording =
          Recipe.loc (Recipe.apply ~buffer_depth:8192 bug)
        in
        monitor + recording)
      Registry.all
  in
  let avg = List.fold_left ( + ) 0 locs / List.length locs in
  check_bool
    (Printf.sprintf "average generated LoC (%d) near the paper's 72" avg)
    true
    (avg >= 50 && avg <= 100)

let suite =
  [
    Alcotest.test_case "report sections run" `Quick test_sections_run;
    Alcotest.test_case "frequency headline" `Quick test_frequency_headline;
    Alcotest.test_case "figure 2 trends" `Quick test_figure2_trends;
    Alcotest.test_case "generated loc average" `Quick test_generated_loc_average;
  ]
