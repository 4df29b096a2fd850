(* In-memory waveform capture, differencing, and ASCII rendering.

   The paper motivates its tools against the baseline workflow of
   "inspecting a massive waveform"; this module makes that baseline
   available (and bearable) for the testbed: capture the signals of
   interest, render them, and - the genuinely useful operation - diff
   the buggy run against the fixed run to find the first cycle at which
   they diverge. *)

module Bits = Fpga_bits.Bits

type trace = { signal : string; width : int; values : Bits.t array }

type t = { cycles : int; traces : trace list }

(* Capture a design over a stimulus, sampling [signals] every cycle. *)
let capture ?(max_cycles = 200) ~top ~signals design
    (stimulus : Testbench.stimulus) : t =
  let sim = Testbench.of_design ~top design in
  let samples = ref [] in
  ignore
    (Testbench.run ~max_cycles
       ~until:(fun sim ->
         let row = List.map (fun s -> (s, Simulator.read sim s)) signals in
         samples := row :: !samples;
         false)
       sim stimulus);
  let rows = List.rev !samples in
  let cycles = List.length rows in
  let traces =
    List.map
      (fun signal ->
        let values = Array.of_list (List.map (List.assoc signal) rows) in
        let width = if cycles = 0 then 1 else Bits.width values.(0) in
        { signal; width; values })
      signals
  in
  { cycles; traces }

let trace t signal = List.find_opt (fun tr -> tr.signal = signal) t.traces

(* ------------------------------------------------------------------ *)
(* Differencing                                                        *)
(* ------------------------------------------------------------------ *)

type divergence = {
  cycle : int;
  signal : string;
  left : Bits.t;
  right : Bits.t;
}

(* All (cycle, signal) points where two captures disagree, in time
   order; only signals present in both captures are compared. *)
let diff (a : t) (b : t) : divergence list =
  let common =
    List.filter (fun (tr : trace) -> trace b tr.signal <> None) a.traces
  in
  let n = min a.cycles b.cycles in
  let out = ref [] in
  for cycle = 0 to n - 1 do
    List.iter
      (fun (tr : trace) ->
        let other = Option.get (trace b tr.signal) in
        let va = tr.values.(cycle) and vb = other.values.(cycle) in
        if not (Bits.equal va vb) then
          out := { cycle; signal = tr.signal; left = va; right = vb } :: !out)
      common
  done;
  List.rev !out

let first_divergence a b = match diff a b with [] -> None | d :: _ -> Some d

let divergence_to_string d =
  Printf.sprintf "cycle %d: %s = %s vs %s" d.cycle d.signal
    (Bits.to_string d.left) (Bits.to_string d.right)

(* ------------------------------------------------------------------ *)
(* ASCII rendering                                                     *)
(* ------------------------------------------------------------------ *)

(* Render a window of the waveform: single-bit signals as _/~ rails,
   multi-bit signals as hex values at their change points. *)
let render ?(from_cycle = 0) ?(cycles = 32) (t : t) : string =
  let buf = Buffer.create 1024 in
  let upto = min t.cycles (from_cycle + cycles) in
  let name_width =
    List.fold_left (fun acc (tr : trace) -> max acc (String.length tr.signal)) 8 t.traces
  in
  Buffer.add_string buf (String.make name_width ' ');
  Buffer.add_string buf "  ";
  for c = from_cycle to upto - 1 do
    if c mod 5 = 0 then Buffer.add_string buf (Printf.sprintf "%-5d" c)
  done;
  Buffer.add_char buf '\n';
  List.iter
    (fun (tr : trace) ->
      Buffer.add_string buf (Printf.sprintf "%-*s  " name_width tr.signal);
      if tr.width = 1 then
        for c = from_cycle to upto - 1 do
          Buffer.add_char buf (if Bits.is_zero tr.values.(c) then '_' else '~')
        done
      else (
        let last = ref None in
        for c = from_cycle to upto - 1 do
          let v = tr.values.(c) in
          let changed =
            match !last with None -> true | Some p -> not (Bits.equal p v)
          in
          last := Some v;
          if changed then (
            let hex = Bits.to_hex_string v in
            Buffer.add_char buf '|';
            Buffer.add_string buf hex)
          else Buffer.add_char buf '.'
        done);
      Buffer.add_char buf '\n')
    t.traces;
  Buffer.contents buf
