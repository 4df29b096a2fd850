(* Reference expression evaluator over a name-keyed environment: a
   tree-walking oracle the simulator's compiled and lowered evaluators
   are tested against, plus the value type and index semantics they
   share.

   Width rules follow the Verilog synthesizable subset: binary operands
   are zero-extended to the wider of the two widths, comparisons and
   logical operators produce 1-bit results, and shifts keep the left
   operand's width.

   Out-of-range accesses implement the semantics documented in the bug
   study (section 3.2.1): when the buffer size is a power of two the
   index is truncated (wraps); otherwise the access is ignored (writes
   dropped, reads return zero). *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits

exception Eval_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

type value = Vec of Bits.t | Mem of Bits.t array

type env = (string, value) Hashtbl.t

let get env name =
  match Hashtbl.find_opt env name with
  | Some v -> v
  | None -> err "unbound signal %s" name

let get_vec env name =
  match get env name with
  | Vec b -> b
  | Mem _ -> err "memory %s used without an index" name

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* Resolve an index into a structure of size [n]; [None] = dropped. *)
let resolve_index ~size idx =
  if idx >= 0 && idx < size then Some idx
  else if is_power_of_two size then Some (idx land (size - 1))
  else None

let bool_bits b = Bits.of_bool b

(* [ctx] is the Verilog context width: in an assignment the target's
   width flows into arithmetic and bitwise operands, so a carry computed
   into a wider target is not lost ({co, s} <= a + b). Self-determined
   contexts pass [ctx = 0]. *)
let rec eval_ctx env ~ctx (e : Ast.expr) : Bits.t =
  let widen v = if Bits.width v < ctx then Bits.resize v ctx else v in
  match e with
  | Ast.Const b -> widen b
  | Ast.Ident n -> widen (get_vec env n)
  | Ast.Index (n, i) -> (
      let idx = Bits.to_int_trunc (eval_ctx env ~ctx:0 i) in
      match get env n with
      | Mem a ->
          widen
            (match resolve_index ~size:(Array.length a) idx with
            | Some k -> a.(k)
            | None ->
                (* ignored access: reads return zero of the word width *)
                Bits.zero (Bits.width a.(0)))
      | Vec b ->
          widen
            (match resolve_index ~size:(Bits.width b) idx with
            | Some k -> bool_bits (Bits.bit b k)
            | None -> Bits.zero 1))
  | Ast.Range (n, hi, lo) ->
      let b = get_vec env n in
      if hi >= Bits.width b then
        err "part select %s[%d:%d] exceeds width %d" n hi lo (Bits.width b)
      else widen (Bits.slice b ~hi ~lo)
  | Ast.Unop (op, a) -> eval_unop env ~ctx op a
  | Ast.Binop (op, a, b) -> eval_binop env ~ctx op a b
  | Ast.Cond (c, t, f) ->
      let c = Bits.reduce_or (eval_ctx env ~ctx:0 c) in
      let tv = eval_ctx env ~ctx t and fv = eval_ctx env ~ctx f in
      let w = max (Bits.width tv) (Bits.width fv) in
      if c then Bits.resize tv w else Bits.resize fv w
  | Ast.Concat es -> widen (Bits.concat (List.map (eval_ctx env ~ctx:0) es))
  | Ast.Repeat (n, a) -> widen (Bits.repeat n (eval_ctx env ~ctx:0 a))

and eval_unop env ~ctx op a =
  match op with
  | Ast.Bnot -> Bits.lognot (eval_ctx env ~ctx a)
  | Ast.Neg -> Bits.neg (eval_ctx env ~ctx a)
  | Ast.Lnot -> bool_bits (Bits.is_zero (eval_ctx env ~ctx:0 a))
  | Ast.Rand -> bool_bits (Bits.reduce_and (eval_ctx env ~ctx:0 a))
  | Ast.Ror -> bool_bits (Bits.reduce_or (eval_ctx env ~ctx:0 a))
  | Ast.Rxor -> bool_bits (Bits.reduce_xor (eval_ctx env ~ctx:0 a))

and eval_binop env ~ctx op a b =
  match op with
  | Ast.Land ->
      bool_bits
        (Bits.reduce_or (eval_ctx env ~ctx:0 a)
        && Bits.reduce_or (eval_ctx env ~ctx:0 b))
  | Ast.Lor ->
      bool_bits
        (Bits.reduce_or (eval_ctx env ~ctx:0 a)
        || Bits.reduce_or (eval_ctx env ~ctx:0 b))
  | Ast.Shl | Ast.Shr | Ast.Ashr ->
      let va = eval_ctx env ~ctx a in
      let amount = min (Bits.to_int_trunc (eval_ctx env ~ctx:0 b)) (Bits.width va) in
      (match op with
      | Ast.Shl -> Bits.shift_left va amount
      | Ast.Shr -> Bits.shift_right va amount
      | _ -> Bits.arith_shift_right va amount)
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      let va = eval_ctx env ~ctx:0 a and vb = eval_ctx env ~ctx:0 b in
      let w = max (Bits.width va) (Bits.width vb) in
      let va = Bits.resize va w and vb = Bits.resize vb w in
      bool_bits
        (match op with
        | Ast.Eq -> Bits.equal va vb
        | Ast.Neq -> not (Bits.equal va vb)
        | Ast.Lt -> Bits.lt va vb
        | Ast.Le -> Bits.le va vb
        | Ast.Gt -> Bits.gt va vb
        | _ -> Bits.ge va vb)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor
  | Ast.Bxor ->
      let va = eval_ctx env ~ctx a and vb = eval_ctx env ~ctx b in
      let w = max (Bits.width va) (Bits.width vb) in
      let va = Bits.resize va w and vb = Bits.resize vb w in
      (match op with
      | Ast.Add -> Bits.add va vb
      | Ast.Sub -> Bits.sub va vb
      | Ast.Mul -> Bits.mul va vb
      | Ast.Div -> Bits.div va vb
      | Ast.Mod -> Bits.rem va vb
      | Ast.Band -> Bits.logand va vb
      | Ast.Bor -> Bits.logor va vb
      | _ -> Bits.logxor va vb)
