open Moard_bits
module I = Moard_ir.Instr
module T = Moard_ir.Types

let width_bits ty = Bitval.bits_in (T.width ty)

let shift_result ty op a amount =
  let bits = width_bits ty in
  let x = Bitval.to_int64 a in
  if amount < 0 || amount >= bits then
    match op with
    | I.Ashr ->
      (* All sign bits. *)
      Bitval.make (T.width ty) (Int64.shift_right x 63)
    | _ -> Bitval.zero (T.width ty)
  else
    let r =
      match op with
      | I.Shl -> Int64.shift_left x amount
      | I.Lshr ->
        (* Logical shift within the type's width: mask first for I32. *)
        let masked =
          if bits = 32 then Int64.logand x 0xFFFF_FFFFL else x
        in
        Int64.shift_right_logical masked amount
      | I.Ashr -> Int64.shift_right x amount
      | _ -> assert false
    in
    Bitval.make (T.width ty) r

let ibin_or_trap op ty a b =
  let w = T.width ty in
  let x = Bitval.to_int64 a and y = Bitval.to_int64 b in
  match op with
  | I.Add -> Bitval.make w (Int64.add x y)
  | I.Sub -> Bitval.make w (Int64.sub x y)
  | I.Mul -> Bitval.make w (Int64.mul x y)
  | I.Sdiv ->
    if Int64.equal y 0L then raise (Trap.Trap_exn Trap.Div_by_zero)
    else if Int64.equal x Int64.min_int && Int64.equal y (-1L) then
      Bitval.make w Int64.min_int
    else Bitval.make w (Int64.div x y)
  | I.Srem ->
    if Int64.equal y 0L then raise (Trap.Trap_exn Trap.Div_by_zero)
    else if Int64.equal x Int64.min_int && Int64.equal y (-1L) then
      Bitval.make w 0L
    else Bitval.make w (Int64.rem x y)
  | I.And -> Bitval.make w (Int64.logand x y)
  | I.Or -> Bitval.make w (Int64.logor x y)
  | I.Xor -> Bitval.make w (Int64.logxor x y)
  | I.Shl | I.Lshr | I.Ashr ->
    let amount =
      let a64 = Bitval.to_int64 b in
      if Int64.compare a64 0L < 0 || Int64.compare a64 64L >= 0 then -1
      else Int64.to_int a64
    in
    shift_result ty op a amount

let ibin op ty a b =
  match ibin_or_trap op ty a b with
  | v -> Ok v
  | exception Trap.Trap_exn trap -> Error trap

let fbin op a b =
  let x = Bitval.to_float a and y = Bitval.to_float b in
  let r =
    match op with
    | I.Fadd -> x +. y
    | I.Fsub -> x -. y
    | I.Fmul -> x *. y
    | I.Fdiv -> x /. y
  in
  Bitval.of_float r

let icmp op a b =
  let x = Bitval.to_int64 a and y = Bitval.to_int64 b in
  let c = Int64.compare x y in
  let r =
    match op with
    | I.Ieq -> c = 0
    | I.Ine -> c <> 0
    | I.Islt -> c < 0
    | I.Isle -> c <= 0
    | I.Isgt -> c > 0
    | I.Isge -> c >= 0
  in
  Bitval.of_bool r

let fcmp op a b =
  let x = Bitval.to_float a and y = Bitval.to_float b in
  let ordered = not (Float.is_nan x || Float.is_nan y) in
  let r =
    match op with
    | I.Foeq -> ordered && Float.equal x y
    | I.Fone -> ordered && not (Float.equal x y)
    | I.Folt -> ordered && x < y
    | I.Fole -> ordered && x <= y
    | I.Fogt -> ordered && x > y
    | I.Foge -> ordered && x >= y
  in
  Bitval.of_bool r

let f64_to_i64 f =
  if Float.is_nan f then 0L
  else if f >= 9.2233720368547758e18 then Int64.max_int
  else if f <= -9.2233720368547758e18 then Int64.min_int
  else Int64.of_float f

let cast c a =
  match c with
  | I.Trunc_to_i32 -> Bitval.make Bitval.W32 (Bitval.to_int64 a)
  | I.Sext_to_i64 | I.Zext_to_i64 ->
    let bits =
      match c with
      | I.Sext_to_i64 -> Bitval.to_int64 a (* sign-extended accessor *)
      | _ -> (a : Bitval.t).bits           (* raw low bits: zero extension *)
    in
    Bitval.of_int64 bits
  | I.Fp_to_si -> Bitval.of_int64 (f64_to_i64 (Bitval.to_float a))
  | I.Si_to_fp -> Bitval.of_float (Int64.to_float (Bitval.to_int64 a))
  | I.Bitcast_f_to_i | I.Bitcast_i_to_f -> Bitval.of_int64 (a : Bitval.t).bits

let gep base index scale =
  let b = Bitval.to_int64 base and i = Bitval.to_int64 index in
  Bitval.of_int64 (Int64.add b (Int64.mul i (Int64.of_int scale)))

let select c x y = if Bitval.to_bool c then x else y

let table : (string * (int * (float array -> float))) list =
  [
    ("sqrt", (1, fun a -> sqrt a.(0)));
    ("sin", (1, fun a -> sin a.(0)));
    ("cos", (1, fun a -> cos a.(0)));
    ("exp", (1, fun a -> exp a.(0)));
    ("log", (1, fun a -> log a.(0)));
    ("fabs", (1, fun a -> Float.abs a.(0)));
    ("floor", (1, fun a -> Float.floor a.(0)));
    ("pow", (2, fun a -> Float.pow a.(0) a.(1)));
    ("fmin", (2, fun a -> Float.min_num a.(0) a.(1)));
    ("fmax", (2, fun a -> Float.max_num a.(0) a.(1)));
  ]

let intrinsics = List.map fst table

(* Hart-coordination primitives. They are call targets like the math
   intrinsics, but their meaning lives in the machine's scheduler (which
   hart is running, how many exist, barrier parking), not in pure
   instruction semantics — so they are listed here only so validation and
   the front end can resolve the names. All take no arguments. *)
let hart_intrinsics = [ "hart_id"; "hart_count"; "barrier" ]

let math_intrinsic name = List.assoc_opt name table

let intrinsic_arity name = Option.map fst (math_intrinsic name)

let intrinsic name args =
  match math_intrinsic name with
  | None -> invalid_arg ("Semantics.intrinsic: " ^ name)
  | Some (arity, f) ->
    if List.length args <> arity then
      Error (Trap.Arity { callee = name; expected = arity; got = List.length args })
    else
      let floats = Array.of_list (List.map Bitval.to_float args) in
      Ok (Bitval.of_float (f floats))
