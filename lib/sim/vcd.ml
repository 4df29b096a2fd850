(* Value Change Dump (VCD) writer, the waveform format consumed by
   GTKWave and most hardware debug tooling. Memories are omitted, as in
   common simulator defaults. *)

module Bits = Fpga_bits.Bits

(* One slot per dumped signal, in sorted-name order (the header order):
   dense simulator id, VCD id code, declared width, and the value last
   written to the dump. *)
type t = {
  buf : Buffer.t;  (* the header, then every sample so far *)
  ids : int array;
  codes : string array;
  widths : int array;
  last : Bits.t array;
  mutable sampled : bool;  (* [last] holds a value for every slot *)
}

(* VCD identifier codes: printable ASCII starting at '!'. *)
let id_code i =
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let write_header b signals codes =
  Buffer.add_string b "$date reproduction run $end\n";
  Buffer.add_string b "$version fpga-debug simulator $end\n";
  Buffer.add_string b "$timescale 1ns $end\n";
  Buffer.add_string b "$scope module top $end\n";
  Array.iteri
    (fun i (name, w) ->
      Buffer.add_string b "$var wire ";
      Buffer.add_string b (string_of_int w);
      Buffer.add_char b ' ';
      Buffer.add_string b codes.(i);
      Buffer.add_char b ' ';
      (* '/'-separated hierarchy is flattened into escaped names *)
      Buffer.add_string b (String.map (fun c -> if c = '/' then '.' else c) name);
      Buffer.add_string b " $end\n")
    signals;
  Buffer.add_string b "$upscope $end\n$enddefinitions $end\n"

let create (flat : Elaborate.flat) : t =
  let signals =
    Hashtbl.fold
      (fun name (s : Elaborate.fsignal) acc ->
        match s.fs_depth with Some _ -> acc | None -> (name, s.fs_width) :: acc)
      flat.f_signals []
    |> List.sort compare |> Array.of_list
  in
  let codes = Array.mapi (fun i _ -> id_code i) signals in
  (* Most testbed dumps are 0.5-4 KB. A 4 KB buffer would go straight
     to the major heap on every dump and grow that heap between major
     collections; a 1 KB one starts on the minor heap. *)
  let buf = Buffer.create 1024 in
  write_header buf signals codes;
  {
    buf;
    ids = Array.map (fun (name, _) -> Hashtbl.find flat.f_signal_ids name) signals;
    codes;
    widths = Array.map snd signals;
    last = Array.make (Array.length signals) (Bits.zero 1);
    sampled = false;
  }

(* One value-change line: [0]/[1] plus the code for a 1-bit signal,
   [b<bits> code] otherwise, bits most significant first. *)
let add_value b v w code =
  if w = 1 then Buffer.add_char b (if Bits.is_zero v then '0' else '1')
  else begin
    Buffer.add_char b 'b';
    for i = Bits.width v - 1 downto 0 do
      Buffer.add_char b (if Bits.bit v i then '1' else '0')
    done;
    Buffer.add_char b ' '
  end;
  Buffer.add_string b code;
  Buffer.add_char b '\n'

let sample t (sim : Simulator.t) =
  let b = t.buf in
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int (Simulator.cycle sim));
  Buffer.add_char b '\n';
  let first = not t.sampled in
  for k = 0 to Array.length t.ids - 1 do
    let v = Simulator.read_id sim (Array.unsafe_get t.ids k) in
    if first || not (Bits.equal (Array.unsafe_get t.last k) v) then begin
      add_value b v (Array.unsafe_get t.widths k) (Array.unsafe_get t.codes k);
      Array.unsafe_set t.last k v
    end
  done;
  t.sampled <- true

let contents t = Buffer.contents t.buf

let save t path =
  let oc = open_out path in
  output_string oc (contents t);
  close_out oc
