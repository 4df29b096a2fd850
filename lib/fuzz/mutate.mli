(** Deterministic, seed-driven AST mutation engine over the Verilog
    subset.

    Mutations are organized as {e injection templates}, one per study
    subclass (section 3's thirteen subclasses): each template knows how
    to enumerate its candidate rewrite {e sites} in a design and how to
    rewrite the k-th one. Site enumeration follows a single fixed
    traversal order (modules, then assigns, instances, always blocks;
    expressions post-order), so [(template, site)] is a stable
    coordinate system: the same pair always denotes the same rewrite on
    the same design — the property the fuzz driver's byte-identical
    replay and the greedy minimizer both rely on.

    Applied mutations never add, remove, or rename declarations, so a
    mutant keeps the ports and signals a testbed harness observes. *)

type mutation = {
  mu_template : Fpga_study.Taxonomy.subclass;
  mu_site : int;  (** index into the template's site enumeration *)
  mu_detail : string;  (** human-readable description of the rewrite *)
}

val mutation_to_string : mutation -> string
(** ["<subclass>@<site>: <detail>"]. *)

val templates : Fpga_study.Taxonomy.subclass list
(** All thirteen templates, in the taxonomy's fixed order. *)

val site_count : Fpga_study.Taxonomy.subclass -> Fpga_hdl.Ast.design -> int
(** Number of candidate sites the template has in the design. *)

val site_counts :
  Fpga_hdl.Ast.design -> (Fpga_study.Taxonomy.subclass * int) list
(** Every template's {!site_count}, in {!templates} order, from one
    traversal of the design instead of thirteen. *)

val apply :
  Fpga_study.Taxonomy.subclass ->
  site:int ->
  Fpga_hdl.Ast.design ->
  (Fpga_hdl.Ast.design * mutation) option
(** Rewrite the [site]-th candidate; [None] when [site] is out of
    range. The input design is never modified. *)

val apply_all :
  Fpga_hdl.Ast.design ->
  mutation list ->
  (Fpga_hdl.Ast.design * mutation list) option
(** Re-apply a recorded mutation list in order (as the minimizer does
    with subsets); [None] as soon as one [(template, site)] pair no
    longer resolves. Details are recomputed from the evolving design. *)

(** {1 Deterministic PRNG}

    A splitmix64 stream, independent of [Stdlib.Random] and of any
    global state, so a (seed, index) pair names the same mutant on
    every run, machine, and pool width. *)

type rng

val rng : int -> rng
val rng_int : rng -> int -> int
(** [rng_int r bound] is uniform-ish in [\[0, bound)]. Raises
    [Invalid_argument] when [bound <= 0]. *)

val derive : int -> int -> int
(** [derive seed index] is the sub-seed of mutant [index] in campaign
    [seed] — mixing, not addition, so neighbouring indices share no
    stream prefix. *)

val pick : rng -> Fpga_hdl.Ast.design -> (Fpga_hdl.Ast.design * mutation) option
(** Choose a template uniformly among those with at least one site,
    then a site uniformly within it, and apply. [None] when no template
    applies anywhere (practically impossible for a non-empty design).
    The site counts of a design {!Fpga_testbed.Bug.design_of} shares
    (a fuzz target's unmutated base) are computed once per process; see
    {!validate}. *)

(** {1 Validity gate} *)

val validate :
  top:string ->
  baseline:Fpga_hdl.Ast.design ->
  Fpga_hdl.Ast.design ->
  (Fpga_hdl.Ast.design, string) result
(** The mutant validity filter. A mutant is valid when it
    + pretty-prints and re-parses (so a dumped reproducer is exactly
      what was tested — the returned design is the reparsed one),
    + elaborates at [top],
    + passes the static width checker on every expression,
    + introduces no lint finding of severity [Error] beyond those the
      [baseline] design already had, and
    + constructs a simulator (rejecting combinational cycles).

    [Error reason] classifies the rejected mutant; the gate never
    raises.

    The lint step runs only the rules {!Fpga_analysis.Lint.rules}
    declares [Error] ([undriven] and [multiple-drivers]): the gate
    reads no other finding, and [Lint.check] sorts its findings, so
    the verdict is the one a full lint filtered to [Error] gives. When
    [baseline] is a design {!Fpga_testbed.Bug.design_of} shares, its
    lint errors (and its site counts, for {!pick}) are computed once
    per process and kept in a lock-free table keyed on the physical
    design, which the registry bounds; no mutant, and no design of the
    caller's own, is ever admitted. *)
