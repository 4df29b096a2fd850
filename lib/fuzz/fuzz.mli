(** Differential fuzz driver: generate mutants of testbed designs,
    gate them through {!Mutate.validate}, and run each valid mutant
    under a primary kernel (event-driven by default, any
    {!Fpga_sim.Simulator.kernel} via [?kernel]) vs the brute-force
    reference, and with telemetry on vs off. Any observable
    disagreement between those runs is a kernel bug found by the
    system itself; divergence from the unmutated design is merely the
    injected bug's symptom.

    Everything here is a pure function of [(seed, index)]: the same
    pair names the same target bug, the same mutant, and the same
    classification on every run, machine, and pool width. The
    campaign engine (see {!Fpga_campaign.Campaign.run_fuzz}) is just a
    parallel map of {!run_one} over indices.

    A valid mutant costs three simulations: primary, brute force, and
    primary with telemetry on. The symptom differential reuses the
    primary run. Each target's unmutated base is
    {!Fpga_testbed.Bug.design_of}'s process-wide parse of the fixed
    source, and it is run once per primary kernel, in a memo shared by
    all domains. The memoised run is computed under
    {!Fpga_telemetry.Telemetry.quietly}, so it never appears in traces
    or counters, and a campaign records the same trace whichever of its
    mutants computed it. *)

(** Classification lattice for one mutant. *)
type outcome =
  | Invalid of string
      (** rejected by the validity gate; the reason (never simulated) *)
  | Equivalent
      (** kernels agree and the mutant behaves like the base design *)
  | Symptom_divergent of string list
      (** kernels agree; the mutation changed observable behavior —
          the injected bug's symptom names *)
  | Kernel_mismatch of string
      (** the finding: primary vs brute-force, or telemetry-on vs off,
          disagree on the same design — description of the first
          disagreement *)

val outcome_name : outcome -> string
(** ["invalid" | "equivalent" | "symptom-divergent" |
    "kernel-mismatch"]. *)

val outcome_detail : outcome -> string
(** The carried reason/symptoms/mismatch text; [""] for
    [Equivalent]. *)

type result = {
  r_seed : int;  (** campaign seed *)
  r_index : int;  (** mutant index within the campaign *)
  r_sub_seed : int;  (** [Mutate.derive r_seed r_index] *)
  r_bug : string;  (** target testbed bug id *)
  r_mutations : Mutate.mutation list;  (** as generated, in order *)
  r_outcome : outcome;
  r_minimized : Mutate.mutation list;
      (** greedy-minimized subset still exhibiting the mismatch;
          [= r_mutations] for non-findings *)
  r_repro : string option;
      (** reproducer: commented header + plain-Verilog source of the
          minimized mutant; [Some] exactly for kernel mismatches *)
}

val targets : Fpga_testbed.Bug.t list
(** The designs the campaign mutates ({!Fpga_testbed.Registry.fuzz_targets}). *)

val target_of_index : int -> Fpga_testbed.Bug.t
(** Mutant [index] targets [targets[index mod length]] — round-robin,
    so any prefix of indices covers all designs evenly. *)

val generate :
  seed:int ->
  index:int ->
  Fpga_testbed.Bug.t * Fpga_hdl.Ast.design * Mutate.mutation list
(** The deterministic corpus: target bug, mutant design (1–3 stacked
    mutations of the bug's fixed design), and the mutations applied.
    Pre-gate — the mutant may still be invalid. *)

val classify :
  ?kernel:Fpga_sim.Simulator.kernel ->
  Fpga_testbed.Bug.t -> base:Fpga_hdl.Ast.design -> Fpga_hdl.Ast.design ->
  outcome
(** Classify one (already generated) mutant: validity gate, then the
    kernel and telemetry differentials (three simulations of a valid
    mutant), then comparison of the primary run against the [base]
    design's run. [kernel] is the primary kernel compared against the
    brute-force reference (default {!Fpga_sim.Simulator.Event_driven}).
    The base run comes from the memo only when [base] is physically
    [Bug.design_of bug ~buggy:false], the shared parse of the bug's
    fixed design (as in {!classify_identity}); any other [base] is
    simulated afresh. *)

val classify_identity :
  ?kernel:Fpga_sim.Simulator.kernel -> Fpga_testbed.Bug.t -> outcome
(** {!classify} of the unmutated design against itself — the fuzzer's
    null hypothesis, [Equivalent] for every testbed bug (pinned by
    test_fuzz). *)

val run_one :
  ?kernel:Fpga_sim.Simulator.kernel -> seed:int -> index:int -> unit -> result
(** Generate, gate, classify, and (for kernel mismatches) minimize and
    render a reproducer. Never raises. [kernel] picks the primary
    kernel of the differential (default event-driven). A valid mutant
    is simulated three times; the base it is compared with comes from
    the memo. *)

val clear_base_memo : unit -> unit
(** Forget every memoised base run, so the next mutant of each target
    recomputes it. The parse is not forgotten: it belongs to
    {!Fpga_testbed.Bug.design_of}. Results do not depend on the memo's
    state; tests use this to compare cold and warm runs. *)
