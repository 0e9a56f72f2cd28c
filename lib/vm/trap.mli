(** Runtime traps. In the fault model these are the "segmentation error"
    class of outcomes: a corrupted value drives the machine into an invalid
    state that the platform catches. *)

type t =
  | Out_of_bounds of { addr : int; size : int }
  | Div_by_zero
  | Step_limit of int      (** runaway execution (e.g. corrupted loop bound) *)
  | Call_depth of int
  | No_function of string
  | Arity of { callee : string; expected : int; got : int }

exception Trap_exn of t
(** How a trap leaves the interpreter's step loop: the machine's own
    memory accesses and integer arithmetic raise it directly, so a step
    that does not trap builds no [result]. {!Machine.run} catches it and
    reports [Trapped]; it never escapes the machine. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
