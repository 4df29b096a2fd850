(* A fixed loop that measures how fast the machine runs right now.

   The 2-vCPU machine the bench was tuned on is shared: for seconds to
   minutes at a time a neighbour slows every process on it by up to a
   half, and a run's items slow down with it. This loop allocates short
   lists and updates a hash table, as the workloads do, and its time
   moves with theirs (per-pass correlation 0.8 to 0.9 on the debug
   workload; an allocation-free loop over a table tracked them at 0.46).
   The runner times it between passes, on as many domains as the
   workload uses, and scales every time it reports by
   [nominal /. seconds ~domains]: the time the loop takes on the idle
   machine over the time it takes now. The loop does not call into the
   libraries, so no change to them moves it. *)

let iterations = 4_000

let loop () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 256 in
  let acc = ref 0 in
  for i = 0 to iterations - 1 do
    let l = List.init 8 (fun k -> (i + k, string_of_int k)) in
    acc := !acc + List.fold_left (fun a (x, _) -> a lxor x) 0 l;
    Hashtbl.replace h (i land 1023) !acc
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

(* The loop on [domains] domains at once, the mean of their times: a
   pool pass slows down when either of its CPUs does. *)
let seconds ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn loop) in
  let mine = loop () in
  let all = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0.0 all /. float_of_int domains

(* [seconds ~domains:1] on the idle machine: the fastest tenth of the
   calls between passes on a 2-vCPU x86 machine. *)
let nominal = 0.0027
