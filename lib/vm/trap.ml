type t =
  | Out_of_bounds of { addr : int; size : int }
  | Div_by_zero
  | Step_limit of int
  | Call_depth of int
  | No_function of string
  | Arity of { callee : string; expected : int; got : int }

exception Trap_exn of t

let pp ppf = function
  | Out_of_bounds { addr; size } ->
    Format.fprintf ppf "out-of-bounds access of %d bytes at address %d" size addr
  | Div_by_zero -> Format.fprintf ppf "integer division by zero"
  | Step_limit n -> Format.fprintf ppf "step limit of %d exceeded" n
  | Call_depth n -> Format.fprintf ppf "call depth limit of %d exceeded" n
  | No_function f -> Format.fprintf ppf "no function or intrinsic named %s" f
  | Arity { callee; expected; got } ->
    Format.fprintf ppf "%s expects %d arguments, got %d" callee expected got

let to_string t = Format.asprintf "%a" pp t

let equal (a : t) (b : t) = a = b
