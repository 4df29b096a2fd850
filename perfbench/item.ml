(* What a timed item and a pass leave behind, and the interface every
   workload gives main.ml. *)

type t = {
  wall : float;  (* seconds inside the item *)
  words : float;  (* minor words the item allocated on its own domain *)
  digest : string;  (* of the item's observable output *)
  failure : string option;  (* why the output check failed *)
  layers : Layer.snap option;  (* composed items only *)
}

type pass = {
  items : t array;
  wall : float;  (* the pass's timed window *)
  busy_share : float option;  (* pool busy time / (domains x wall) *)
  pool : Layer.snap option;  (* composed pool passes: the pool's frame *)
  segments : (string * Fpga_telemetry.Telemetry.Trace.segment) list;
      (* the pool jobs' trace slices, in submission order *)
  counts : (string * int) list;  (* exact quantities the pass observed *)
}

module type WORKLOAD = sig
  type prepared

  val domains : int
  (** Domains the workload runs items on; the calibration runs on as
      many ({!Calibrate}). *)

  val pass_seconds : float
  (** Host time of one pass on the 2-core x86 machine the bench was
      tuned on; sizes a run from --seconds, so every run of one
      (seed, seconds) has the same item sequence. *)

  val setup : seed:int -> prepared
  (** Inputs, reference outputs and a warm-up pass. *)

  val pass : prepared -> int -> composed:bool -> pass
  (** Pass [i] of the run: the real items, or with [composed] the same
      items rebuilt from layer calls. *)
end

let digest_of fields =
  Digest.to_hex (Digest.string (String.concat "\000" fields))

let log_text log =
  String.concat "" (List.map (fun (c, s) -> Printf.sprintf "%d %s\n" c s) log)

(* The order of pass [pass]'s [n] items: a fresh shuffle every pass,
   so each run averages over many orders whatever its seed. *)
let order ~seed ~pass n =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [f ()] with its wall time and the minor words it allocated on the
   calling domain; an exception is a result, not a crash. *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  let wall = Unix.gettimeofday () -. t0 in
  (r, wall, Gc.minor_words () -. w0)

(* [f ()] as a real item, or as a composed one with its layer frames. *)
let run ~composed f =
  if composed then
    let v, snap = Layer.item f in
    (v, Some snap)
  else (f (), None)
