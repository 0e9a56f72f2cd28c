module Bitval = Moard_bits.Bitval

type t = { data : Bytes.t }

let null_guard = 256

let create ~bytes =
  if bytes <= null_guard then invalid_arg "Memory.create: too small";
  { data = Bytes.make bytes '\000' }

let size t = Bytes.length t.data

let copy t = { data = Bytes.copy t.data }

let equal a b = Bytes.equal a.data b.data

let in_range t addr size =
  addr >= null_guard && addr + size <= Bytes.length t.data

let load_or_trap t ty addr =
  let sz = Moard_ir.Types.size ty in
  if not (in_range t addr sz) then
    raise (Trap.Trap_exn (Trap.Out_of_bounds { addr; size = sz }));
  let bits =
    match sz with
    | 1 -> Int64.of_int (Char.code (Bytes.get t.data addr))
    | 4 -> Int64.of_int32 (Bytes.get_int32_le t.data addr)
    | _ -> Bytes.get_int64_le t.data addr
  in
  Bitval.make (Moard_ir.Types.width ty) bits

let store_or_trap t ty addr v =
  let sz = Moard_ir.Types.size ty in
  if not (in_range t addr sz) then
    raise (Trap.Trap_exn (Trap.Out_of_bounds { addr; size = sz }));
  let bits = (v : Bitval.t).bits in
  match sz with
  | 1 -> Bytes.set t.data addr (Char.chr (Int64.to_int bits land 0xFF))
  | 4 -> Bytes.set_int32_le t.data addr (Int64.to_int32 bits)
  | _ -> Bytes.set_int64_le t.data addr bits

let load t ty addr =
  match load_or_trap t ty addr with
  | v -> Ok v
  | exception Trap.Trap_exn trap -> Error trap

let store t ty addr v =
  match store_or_trap t ty addr v with
  | () -> Ok ()
  | exception Trap.Trap_exn trap -> Error trap

let load_exn t ty addr =
  match load t ty addr with
  | Ok v -> v
  | Error trap -> invalid_arg ("Memory.load_exn: " ^ Trap.to_string trap)

let store_exn t ty addr v =
  match store t ty addr v with
  | Ok () -> ()
  | Error trap -> invalid_arg ("Memory.store_exn: " ^ Trap.to_string trap)
