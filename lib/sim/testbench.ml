(* Testbench driver: the push-button harness used to reproduce each bug
   in the testbed and to run the tools' dynamic phases. A stimulus is a
   function from the cycle number to a set of input bindings; the driver
   applies it, steps the clock, and watches for stop conditions.
   [tabulate] turns a stimulus into a table of the bindings that change,
   grown block by block over the cycles callers reach, so a harness
   re-sets only the inputs whose value moves. [print_rows] and
   [read_rows] are the one text form of rows. *)

module Bits = Fpga_bits.Bits

type stimulus = int -> (string * Bits.t) list

type outcome = {
  cycles_run : int;
  finished : bool;  (* the design executed $finish *)
  stuck : bool;  (* a watched condition never became true *)
  log : (int * string) list;
}

let const_stimulus bindings _cycle = bindings

(* whether some name is bound twice in [row] *)
let rec has_repeat = function
  | [] -> false
  | (n, _) :: rest -> List.mem_assoc n rest || has_repeat rest

(* [row] with one binding per name: each name's last binding, at the
   position of its first. Most rows name each input once and are
   returned as they are. *)
let last_wins row =
  if not (has_repeat row) then row
  else
    List.fold_left
      (fun acc (n, v) ->
        if List.mem_assoc n acc then
          List.map (fun (m, w) -> if String.equal m n then (m, v) else (m, w)) acc
        else (n, v) :: acc)
      [] row
    |> List.rev

module Names = Map.Make (String)

let block_bits = 6
let table_block = 1 lsl block_bits
let table_ceiling = 1 lsl 16

(* The rows built so far, one block per entry of [blocks], and the value
   each name holds after them. Both are immutable, so a block built
   from one spine is the same whichever domain builds it. *)
type spine = {
  blocks : (string * Bits.t) list array array;
  held : Bits.t Names.t;
}

(* Rows [first ..] of [f], one block of them, each cut down to the
   bindings that change the value a name holds after the previous rows.
   A name seen for the first time is a change, so row 0 holds every
   binding. *)
let next_block f ~first held =
  let held = ref held in
  let rows =
    Array.init table_block (fun i ->
        List.filter
          (fun (n, v) ->
            match Names.find n !held with
            | old when Bits.equal old v -> false
            | _ | (exception Not_found) ->
                held := Names.add n v !held;
                true)
          (last_wins (f (first + i))))
  in
  (rows, !held)

(* Blocks are built on the first call that reaches them, not when the
   stimulus is made, and appended like [Bug.design_of]'s memo: a domain
   that loses the race to append drops its block and reads the
   winner's. Forcing a [Lazy] from two domains at once raises, so there
   is none here. *)
let tabulate (f : stimulus) : stimulus =
  let spine = Atomic.make { blocks = [||]; held = Names.empty } in
  let rec row cycle =
    let s = Atomic.get spine in
    let b = cycle lsr block_bits in
    let built = Array.length s.blocks in
    if b < built then s.blocks.(b).(cycle land (table_block - 1))
    else
      let rows, held = next_block f ~first:(built * table_block) s.held in
      ignore
        (Atomic.compare_and_set spine s
           { blocks = Array.append s.blocks [| rows |]; held });
      row cycle
  in
  fun cycle -> if cycle < 0 || cycle >= table_ceiling then f cycle else row cycle

(* Drive [sim] until its cycle [max_cycles] with [stimulus]; stop early
   when [until] becomes true (if given) or the design finishes. The
   [stuck] flag reports that [until] was provided but never satisfied -
   the "application stuck / infinite wait" symptom of Table 2. *)
let run ?(max_cycles = 10_000) ?until (sim : Simulator.t) (stimulus : stimulus)
    : outcome =
  let satisfied = ref false in
  while
    (not !satisfied)
    && Simulator.cycle sim < max_cycles
    && not (Simulator.finished sim)
  do
    List.iter
      (fun (n, v) -> Simulator.set_input sim n v)
      (stimulus (Simulator.cycle sim));
    Simulator.step sim;
    match until with Some cond when cond sim -> satisfied := true | _ -> ()
  done;
  {
    cycles_run = Simulator.cycle sim;
    finished = Simulator.finished sim;
    stuck = (match until with Some _ -> not !satisfied | None -> false);
    log = Simulator.log sim;
  }

type row = int * (string * int) list

exception Bad_row of int * string

let print_rows rows =
  String.concat ""
    (List.map
       (fun (cycle, bindings) ->
         String.concat " "
           (("@" ^ string_of_int cycle)
           :: List.map (fun (n, v) -> n ^ "=" ^ string_of_int v) bindings)
         ^ "\n")
       rows)

let read_rows ~check text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (line, trimmed) ->
         let fail fmt =
           Printf.ksprintf (fun m -> raise (Bad_row (line, m))) fmt
         in
         let binding word =
           match String.split_on_char '=' word with
           | [ name; v ] when name <> "" -> (
               Option.iter (fail "%s") (check name);
               match int_of_string_opt v with
               | Some v -> (name, v)
               | None -> fail "bad value %S" v)
           | _ -> fail "bad binding %S" word
         in
         match List.filter (( <> ) "") (String.split_on_char ' ' trimmed) with
         | [] -> None
         | w :: _ when w.[0] = '#' -> None
         | at :: bindings when at.[0] = '@' -> (
             let c = String.sub at 1 (String.length at - 1) in
             match int_of_string_opt c with
             | Some cycle when cycle >= 0 ->
                 Some (cycle, List.map binding bindings)
             | _ -> fail "bad cycle %S" c)
         | w :: _ -> fail "expected @CYCLE, got %S" w)

let of_rows (flat : Elaborate.flat) (rows : row list) : stimulus =
  let bind (name, v) =
    match Hashtbl.find_opt flat.Elaborate.f_signals name with
    | Some s -> (name, Bits.of_int ~width:s.Elaborate.fs_width v)
    | None -> invalid_arg ("Testbench.of_rows: unknown " ^ name)
  in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (cycle, bindings) ->
      let earlier = Option.value (Hashtbl.find_opt table cycle) ~default:[] in
      Hashtbl.replace table cycle (earlier @ List.map bind bindings))
    rows;
  fun cycle -> Option.value (Hashtbl.find_opt table cycle) ~default:[]

let of_design ?kernel ?(top = "top") design =
  Simulator.create ?kernel (Elaborate.elaborate design ~top)

let of_source ?kernel ?(top = "top") src =
  of_design ?kernel ~top (Fpga_hdl.Parser.parse_design src)
