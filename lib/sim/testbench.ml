(* Testbench driver: the push-button harness used to reproduce each bug
   in the testbed and to run the tools' dynamic phases. A stimulus is a
   function from the cycle number to a set of input bindings; the driver
   applies it, steps the clock, and watches for stop conditions.
   [tabulate] turns a stimulus into a table of the bindings that change,
   so a harness re-sets only the inputs whose value moves. *)

module Bits = Fpga_bits.Bits

type stimulus = int -> (string * Bits.t) list

type outcome = {
  cycles_run : int;
  finished : bool;  (* the design executed $finish *)
  stuck : bool;  (* a watched condition never became true *)
  log : (int * string) list;
}

let const_stimulus bindings _cycle = bindings

(* [row] with one binding per name: each name's last binding, at the
   position of its first. *)
let last_wins row =
  List.fold_left
    (fun acc (n, v) ->
      if List.mem_assoc n acc then
        List.map (fun (m, w) -> if String.equal m n then (m, v) else (m, w)) acc
      else (n, v) :: acc)
    [] row
  |> List.rev

(* Rows [0 .. cycles-1] of [f], each cut down to the bindings that
   change the value a name holds after the previous rows. A name seen
   for the first time is a change, so row 0 holds every binding. *)
let changes ~cycles f =
  let current = Hashtbl.create 16 in
  Array.init cycles (fun c ->
      List.filter
        (fun (n, v) ->
          match Hashtbl.find_opt current n with
          | Some old when Bits.equal old v -> false
          | _ ->
              Hashtbl.replace current n v;
              true)
        (last_wins (f c)))

(* The table is built on the first call, not when the stimulus is
   made, and published like [Bug.design_of]'s memo: domains that race
   build equal tables and all use the one that won. Forcing a [Lazy]
   from two domains at once raises, so there is none here. *)
let tabulate ~cycles (f : stimulus) : stimulus =
  let table = Atomic.make None in
  let rows () =
    match Atomic.get table with
    | Some rows -> rows
    | None ->
        let rows = changes ~cycles f in
        if Atomic.compare_and_set table None (Some rows) then rows
        else Option.get (Atomic.get table)
  in
  fun cycle -> if cycle < 0 || cycle >= cycles then f cycle else (rows ()).(cycle)

(* Drive [sim] for up to [max_cycles] with [stimulus]; stop early when
   [until] becomes true (if given) or the design finishes. The [stuck]
   flag reports that [until] was provided but never satisfied - the
   "application stuck / infinite wait" symptom of Table 2. *)
let run ?(max_cycles = 10_000) ?until (sim : Simulator.t) (stimulus : stimulus)
    : outcome =
  let stop = ref false in
  let satisfied = ref false in
  let i = ref 0 in
  while (not !stop) && !i < max_cycles && not (Simulator.finished sim) do
    List.iter (fun (n, v) -> Simulator.set_input sim n v) (stimulus !i);
    Simulator.step sim;
    (match until with
    | Some cond when cond sim ->
        satisfied := true;
        stop := true
    | _ -> ());
    incr i
  done;
  {
    cycles_run = !i;
    finished = Simulator.finished sim;
    stuck = (match until with Some _ -> not !satisfied | None -> false);
    log = Simulator.log sim;
  }

let of_design ?kernel ?(top = "top") design =
  Simulator.create ?kernel (Elaborate.elaborate design ~top)

let of_source ?kernel ?(top = "top") src =
  of_design ?kernel ~top (Fpga_hdl.Parser.parse_design src)
