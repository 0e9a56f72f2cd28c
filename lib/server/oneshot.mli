(** A one-shot result cell: one waiter, any number of would-be fillers.

    The first {!fill} wins a compare-and-set and wakes the waiter through
    a self-pipe, so the waiter sleeps in [Unix.select] — no polling —
    until the value arrives or its own timer passes.  Later fills, and
    every fill after the waiter {!abandon}ed the cell, are dropped.

    Descriptor lifecycle: the pipe is created with the cell and closed by
    the waiter exactly once — after it has read the winning filler's wake
    byte, or after an abandonment that no fill can beat any more.  A fill
    that arrives late therefore never writes into a closed (or reused)
    descriptor, and a cell that reached {!await}'s [Some] or {!abandon}
    holds no descriptor. *)

type 'a t

val create : unit -> 'a t
(** A fresh, empty cell (opens its self-pipe). *)

val fill : 'a t -> 'a -> bool
(** Publish a value. [true] iff this call won: the cell was empty and
    not abandoned. Safe from any thread or domain. *)

val await : 'a t -> until:float -> 'a option
(** Block until the cell is filled ([Some v], descriptors released) or
    the monotonic clock ({!Moard_chaos.Monotime}) reaches [until]
    ([None], the cell stays live for another [await]). Single waiter:
    only the thread that owns the cell may call [await] and
    {!abandon}. *)

val abandon : 'a t -> 'a option
(** Give up on the cell and release its descriptors. Returns [Some v]
    when a fill won before the abandonment did. Idempotent, and a no-op
    on a cell {!await} already returned from with [Some]. *)
