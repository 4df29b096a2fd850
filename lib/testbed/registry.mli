(** The reproducible-bug testbed of Table 2, in paper order:
    D1–D13 (data mis-access), C1–C4 (communication), S1–S3 (semantic).
    Every bug here drives its design from tabulated stimuli (see
    {!all_with_extended}), so a harness re-sets only the inputs that
    change, over whatever window it runs. *)

val all : Bug.t list
val ids : string list

val loss_bugs : Bug.t list
(** The bugs with a LossCheck specification — the section 6.3
    data-loss evaluation set. *)

val fuzz_targets : Bug.t list
(** The designs the fuzz campaign mutates ([D2 D4 D8 D13 C4 S1 S2
    S3]): small cycle budgets, and between them every structural
    feature an injection template targets (IP instances, case
    statements, concatenations, memories, reset logic). *)

val extended : Bug.t list
(** Eight additional study bugs reproduced beyond Table 2 (E1-E8,
    including two on the reduced CPU core), completing push-button
    coverage of all 13 subclasses. *)

val all_with_extended : Bug.t list
(** Every bug of {!all} and {!extended} carries tabulated stimuli
    ({!Fpga_sim.Testbench.tabulate}), its own and each ground-truth
    one: tables that grow over every cycle a caller runs, however far
    past [max_cycles] or a ground-truth budget that is. *)

val find : string -> Bug.t option
(** The bug of {!all_with_extended} with this id (ids are unique). *)

val untabulated : Bug.t list
(** {!all_with_extended} as the bug modules define them, in the same
    order: the same bugs with the stimulus closures the tables were
    built from, for checking the tables against. *)

val find_many : string list -> Bug.t list * string list
(** Resolve ids (extended set included) in request order; the second
    component lists the ids that matched nothing. *)
