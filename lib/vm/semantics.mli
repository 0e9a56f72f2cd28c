(** Pure instruction semantics.

    Shared between the interpreter and the resilience model: the model
    recomputes an operation's result with a corrupted operand to decide
    whether the corruption changes it, so both must agree exactly on what
    every operation computes. *)

open Moard_bits

val ibin :
  Moard_ir.Instr.ibin -> Moard_ir.Types.t -> Bitval.t -> Bitval.t ->
  (Bitval.t, Trap.t) result
(** Integer arithmetic at I32 or I64. Division/remainder by zero traps.
    Shift amounts outside [0, width) yield 0 (or all sign bits for ashr). *)

val ibin_or_trap :
  Moard_ir.Instr.ibin -> Moard_ir.Types.t -> Bitval.t -> Bitval.t -> Bitval.t
(** {!ibin} for the interpreter's step loop.
    @raise Trap.Trap_exn where {!ibin} returns [Error]. *)

val fbin : Moard_ir.Instr.fbin -> Bitval.t -> Bitval.t -> Bitval.t
val icmp : Moard_ir.Instr.icmp -> Bitval.t -> Bitval.t -> Bitval.t
val fcmp : Moard_ir.Instr.fcmp -> Bitval.t -> Bitval.t -> Bitval.t
(** Ordered comparisons: any comparison with a NaN is false, except [Fone]
    which is ordered-and-unequal. *)

val cast : Moard_ir.Instr.cast -> Bitval.t -> Bitval.t
val gep : Bitval.t -> Bitval.t -> int -> Bitval.t
val select : Bitval.t -> Bitval.t -> Bitval.t -> Bitval.t

val intrinsics : string list
(** Names resolvable as math intrinsics. *)

val hart_intrinsics : string list
(** Names of the hart-coordination primitives ([hart_id], [hart_count],
    [barrier]), resolved by the machine's scheduler rather than here: their
    results depend on execution context (the running hart, the hart count),
    not on operand values. All are nullary. *)

val intrinsic_arity : string -> int option

val math_intrinsic : string -> (int * (float array -> float)) option
(** Arity and implementation of a math intrinsic, for callers that resolve
    the name once (the machine's decoder) instead of on every call. *)

val intrinsic : string -> Bitval.t list -> (Bitval.t, Trap.t) result
(** @raise Invalid_argument on unknown name (callers check first). *)
