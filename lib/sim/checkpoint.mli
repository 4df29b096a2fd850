(** Serializable simulator checkpoints — the on-disk half of the
    paper's "run long on the FPGA, reconstruct the interesting window
    in simulation" workflow (the Recheck/REMU checkpoint-and-replay
    line of work).

    A checkpoint captures the complete architectural state of a
    simulation at a cycle boundary: every register, net, and memory
    (name-keyed, so the snapshot is independent of the dense-id
    assignment of a particular {!Compiled.tab}), the contents of every
    builtin IP primitive (FIFO data/head/count, RAM words and the
    registered read port), the cycle count, the [$finish] flag, the
    accumulated [$display] log, and an open-ended metadata section the
    harness uses for its own replay state (observed output rows,
    monitor flags, stimulus seeds).

    The derived scheduler state of the lowered-dirty kernel (its
    closure and statement-group dirty flags) is deliberately {e not}
    captured: restore sets every flag, and re-running clean logic
    never changes a simulation result. The non-blocking
    assignment queue is empty at every cycle boundary by construction
    (writes commit inside {!Simulator.step}), so there is nothing of it
    to save — which is exactly why checkpoints are only taken between
    steps.

    The wire format is a versioned, line-oriented text format whose
    final line carries an MD5 content hash of everything above it;
    {!of_string} rejects truncation, bit-rot, and version skew with a
    clean {!Checkpoint_error}. A second hash, {!design_hash}, binds a
    checkpoint to the elaborated design it was taken from so a snapshot
    can never be restored into a structurally different design. *)

exception Checkpoint_error of string
(** Raised on malformed, corrupt, version-mismatched, or
    design-mismatched checkpoints. The message is user-facing. *)

val version : int
(** Current format version (serialized in the header line). *)

(** Saved state of one builtin IP primitive, keyed by flat instance
    path. *)
type prim =
  | Cfifo of {
      cf_name : string;
      cf_width : int;
      cf_data : Fpga_bits.Bits.t array;  (** all [depth] slots *)
      cf_head : int;
      cf_count : int;
    }
  | Cram of {
      cr_name : string;
      cr_width : int;
      cr_q : Fpga_bits.Bits.t;  (** registered read port *)
      cr_words : Fpga_bits.Bits.t array;
    }

type t = {
  ck_design : string;  (** {!design_hash} of the source design *)
  ck_tag : string;  (** free-form provenance, e.g. the bug id *)
  ck_cycle : int;  (** completed cycles at capture time *)
  ck_finished : bool;  (** the design had executed [$finish] *)
  ck_values : (string * Compiled.value) list;  (** flat name -> value *)
  ck_prims : prim list;
  ck_log : (int * string) list;  (** $display log, oldest first *)
  ck_meta : (string * string) list;  (** harness state, seeds, ... *)
}

val design_hash : Elaborate.flat -> string
(** Content hash of the design's structural signature: top name, every
    flat signal with width and depth (in dense-id order), and every
    primitive with kind and parameters. Two elaborations of the same
    source always agree; any structural change (renamed signal, width
    change, different primitive config) produces a different hash. *)

val to_string : t -> string
(** Serialize. The result ends with a ["sha <md5>"] trailer over the
    entire preceding text. *)

val of_string : string -> t
(** Parse and validate. Raises {!Checkpoint_error} when the input is
    not a checkpoint, is a different format version, fails the content
    hash, or is structurally malformed. *)

val content_hash : t -> string
(** The MD5 hex digest {!to_string} embeds in the trailer — a stable
    identity for a snapshot, independent of where it is stored. *)

val save : string -> t -> unit
(** [save path t] writes {!to_string} to [path] atomically (via a
    temporary file + rename in the same directory). *)

val load : string -> t
(** [load path] reads and validates; raises {!Checkpoint_error} on
    unreadable files as well as on invalid contents. *)
