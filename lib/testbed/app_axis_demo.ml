(* S2 - Protocol violation in an AXI-Stream source (Xilinx demo).

   AXI-Stream requires TDATA to stay stable while TVALID is high and
   TREADY is low. The buggy source keeps advancing its word counter
   during a stall, so the beat the consumer finally accepts is not the
   beat that was first offered. An external protocol checker (stability
   monitor) catches it. *)

module Simulator = Fpga_sim.Simulator

let set k v l = (k, v) :: List.remove_assoc k l

let source ~buggy =
  let stall_branch =
    if buggy then
      {|else begin
        // BUG: keeps producing while stalled
        tdata <= word_counter;
        word_counter <= word_counter + 8'd1;
      end|}
    else ""
  in
  Printf.sprintf
    {|
module axis_source (
  input clk,
  input reset,
  input start,
  input tready,
  output reg tvalid,
  output reg [7:0] tdata,
  output reg [3:0] sent
);
  reg [7:0] word_counter;
  reg active;

  always @(posedge clk) begin
    if (reset) begin
      tvalid <= 1'b0;
      word_counter <= 8'd0;
      sent <= 4'd0;
      active <= 1'b0;
    end else begin
      if (start) active <= 1'b1;
      if (active && !tvalid) begin
        tvalid <= 1'b1;
        tdata <= word_counter;
        word_counter <= word_counter + 8'd1;
      end else if (tvalid && tready) begin
        sent <= sent + 4'd1;
        if (sent + 4'd1 == 4'd6) begin
          tvalid <= 1'b0;
          active <= 1'b0;
        end else begin
          tdata <= word_counter;
          word_counter <= word_counter + 8'd1;
        end
      end %s
    end
  end
endmodule
|}
    stall_branch

let stimulus cycle =
  let base =
    [ ("reset", Bug.lo); ("start", Bug.lo);
      (* the consumer stalls for stretches *)
      ("tready", if cycle mod 5 < 2 then Bug.lo else Bug.hi) ]
  in
  if cycle = 0 then set "reset" Bug.hi base
  else if cycle = 1 then set "start" Bug.hi base
  else base

(* Stability checker with per-run state, reset at the start of a run.
   The state is domain-local: one [Bug.t] value is shared by every
   worker of a campaign or fuzz pool, and concurrent runs must not see
   each other's offered beat. *)
let make_ext_monitor () =
  (* the beat offered during cycle t is the registered value observed
     after step t-1; it may only change across the edge of cycle t if
     tready was high during t (the transfer completed) *)
  let key = Domain.DLS.new_key (fun () -> ref None) in
  fun sim ->
    let offered = Domain.DLS.get key in
    if Simulator.cycle sim <= 1 then offered := None;
    let tvalid = Simulator.read_int sim "tvalid" in
    let tdata = Simulator.read_int sim "tdata" in
    let tready = Simulator.read_int sim "tready" in
    let violation =
      match !offered with
      | Some (1, pd) -> tready = 0 && tvalid = 1 && tdata <> pd
      | _ -> false
    in
    offered := Some (tvalid, tdata);
    violation

let bug : Bug.t =
  {
    id = "S2";
    subclass = Fpga_study.Taxonomy.Protocol_violation;
    application = "AXI-Stream Demo";
    platform = Fpga_resources.Platforms.Xilinx;
    symptoms = [ Fpga_study.Taxonomy.External_error ];
    helpful_tools = [ Bug.SC ];
    description =
      "TDATA advances while TVALID is high and TREADY is low, violating \
       AXI-Stream stability";
    top = "axis_source";
    buggy_src = source ~buggy:true;
    fixed_src = source ~buggy:false;
    stimulus;
    max_cycles = 40;
    sample = (fun _ -> None);
    done_when = Some (fun sim -> Simulator.read_int sim "sent" >= 6);
    ext_monitor = Some (make_ext_monitor ());
    loss_spec = None;
    loss_root = None;
    ground_truth = [];
    manual_fsms = [ "tvalid"; "active" ];
    stat_events = [ ("beats_sent", "tvalid") ];
    dep_target = Some "tdata";
    target_mhz = 200;
  }
