(** LossCheck (section 4.5): precise localization of data loss.

    Given a Source, its valid signal, and a Sink, the static pass
    builds the table of propagation relations [X ~>_sigma Y] (through
    wires, IP models, and memories), finds the registers on a
    propagation sequence from Source to Sink, and instruments the
    design with shadow variables per such register R:

    - A(R): R was assigned this cycle,
    - V(R): R was assigned valid tracked data,
    - P(R): R's value propagated onward,
    - N(R): R holds valid data that has not yet propagated,

    following Equations (1) and (2) of the paper:

    {v
    N(R)_k    = V(R)_(k-1) \/ (N(R)_(k-1) /\ ~P(R)_(k-1))
    Loss(R)_k = A(R)_k /\ ~P(R)_k /\ N(R)_k
    v}

    Memories get one needs-propagation bit per word, so a wrapped
    buffer-overflow write landing on an unread word raises an alarm
    while normal FIFO traffic does not; a write into a
    non-power-of-two memory with an out-of-range index counts as not
    propagated (the dropped-write semantics of section 3.2.1).

    False positives from intentional drops are filtered by running the
    instrumented design on passing ("ground truth") test programs and
    suppressing every register that alarms there (section 4.5.3). The
    same mechanism causes the paper's (and this testbed's) D11 false
    negative. *)

type spec = {
  source : string;  (** the register/input whose data is tracked *)
  valid : Fpga_hdl.Ast.expr;  (** the source's valid signal *)
  sink : string;  (** where the data should arrive *)
}

type relation = { src : string; dst : string; cond : Fpga_hdl.Ast.expr }

type plan = {
  module_name : string;
  spec : spec;
  relations : relation list;  (** effective relations, wires expanded *)
  scalar_checks : string list;  (** registers instrumented with A/V/P/N *)
  memory_checks : string list;  (** memories instrumented per-word *)
}

val data_reads : Fpga_hdl.Ast.expr -> string list
(** Like {!Fpga_hdl.Ast.expr_reads} but index expressions are routing,
    not data, and are skipped. *)

val effective_relations :
  ?design:Fpga_hdl.Ast.design -> Fpga_hdl.Ast.module_def -> spec -> relation list
(** The propagation relations with combinational wires expanded down to
    storage nodes (registers, memories, inputs, IP outputs, the sink).
    With [design], user-module instances contribute conservative
    input-to-output pass-through relations. *)

val analyze : ?design:Fpga_hdl.Ast.design -> spec -> Fpga_hdl.Ast.module_def -> plan

val instrument : plan -> Fpga_hdl.Ast.module_def -> Fpga_hdl.Ast.module_def
(** Splice in the shadow variables, the per-word bits, the loss checks,
    and the alarm $display statements. *)

val alarms : (int * string) list -> (int * string) list
(** The (cycle, register) alarms found in a unified log. *)

val alarm_registers : (int * string) list -> string list

type result = {
  reported : string list;  (** alarming registers after filtering *)
  suppressed : string list;  (** filtered as intentional drops *)
  raw_alarms : (int * string) list;
  original : Fpga_hdl.Ast.module_def;  (** the top module as given *)
  instrumented : Fpga_hdl.Ast.module_def;
      (** the top module with the checking logic inserted *)
}

val generated_loc : result -> int
(** The lines of checking logic inserted. It pretty-prints both
    modules, so it is computed on demand rather than by {!localize}. *)

val localize :
  ?ground_truth:(Fpga_sim.Testbench.stimulus * int) list ->
  ?max_cycles:int ->
  top:string ->
  spec:spec ->
  stimulus:Fpga_sim.Testbench.stimulus ->
  Fpga_hdl.Ast.design ->
  result
(** The full workflow: instrument, run the ground-truth stimuli to
    learn intentional drops, run the failing stimulus, and report the
    difference. *)
