(** Flat byte-addressable memory.

    Addresses below [null_guard] trap, so corrupted pointers that land near
    zero behave like the segmentation faults the paper's injector observes.
    Unaligned access is permitted (a corrupted index can produce any byte
    address); out-of-range access traps. *)

type t

val null_guard : int

val create : bytes:int -> t
(** Fresh zeroed memory of [bytes] bytes. *)

val size : t -> int

val copy : t -> t
(** Snapshot, used to reset between runs of the same workload. *)

val equal : t -> t -> bool
(** Same size and the same bytes. *)

val load : t -> Moard_ir.Types.t -> int -> (Moard_bits.Bitval.t, Trap.t) result
val store : t -> Moard_ir.Types.t -> int -> Moard_bits.Bitval.t -> (unit, Trap.t) result

val load_or_trap : t -> Moard_ir.Types.t -> int -> Moard_bits.Bitval.t
val store_or_trap : t -> Moard_ir.Types.t -> int -> Moard_bits.Bitval.t -> unit
(** {!load}/{!store} for the interpreter's step loop: same checks, but an
    out-of-range access raises {!Trap.Trap_exn} instead of returning a
    [result], so an access that succeeds allocates nothing beyond the
    loaded value. *)

val load_exn : t -> Moard_ir.Types.t -> int -> Moard_bits.Bitval.t
(** For initialization and observation code where the address is trusted.
    @raise Invalid_argument on a trap. *)

val store_exn : t -> Moard_ir.Types.t -> int -> Moard_bits.Bitval.t -> unit
