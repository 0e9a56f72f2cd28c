(** Seeded, deterministic fault plans for the serving stack.

    The same methodology MOARD applies to application data objects,
    turned on moardd itself: a plan derives one SplitMix64 stream per
    injection scope from a single seed (mirroring campaign plan
    streams), so the fault schedule a component sees depends only on
    the seed and on that component's own operation sequence — never on
    how operations in other scopes interleave.  Socket scopes go one
    step further: every connection draws from streams keyed by (seed,
    connection index, op index within the connection), so concurrent
    connections cannot shift each other's faults either.  Replaying a
    workload against the same seed reproduces the same faults.

    Faults are injected only at explicit shim points: the filesystem
    effects records used by the store and the journal ({!Fx.t}), the
    socket primitives used by the wire protocol ({!Sock.t}), and a
    wrapper around pool jobs.  Production code runs with
    {!passthrough}, which is exactly the real implementations. *)

type scope =
  | Store_read
  | Store_write
  | Journal_read
  | Journal_write
  | Sock_recv
  | Sock_send
  | Job
  | Inter_send  (** proxy->shard frames on the cluster wire *)
  | Inter_recv  (** shard->proxy frames on the cluster wire *)
  | Shard_crash  (** crash-stop of a whole shard process *)
  | Shard_partition  (** proxy<->shard link goes dark for a while *)

type fault =
  | Flip of int  (** flip one bit of the payload, position selector *)
  | Short of float  (** keep only this fraction of the payload *)
  | Io_error of string  (** raise, e.g. ENOSPC / EIO *)
  | Drop  (** pretend the operation happened; do nothing *)
  | Delay of float  (** sleep this many seconds, then proceed *)
  | Disconnect  (** shut the peer down mid-frame *)
  | Raise  (** job raises instead of running *)
  | Slow of float  (** job sleeps before running *)
  | Crash  (** kill one shard, crash-stop *)
  | Partition of int  (** unreachable link for this many requests *)

val all_scopes : scope list
val scope_name : scope -> string
val fault_name : fault -> string

type t

val make : ?rates:(scope -> float) -> seed:int -> unit -> t
(** [make ~seed ()] builds a plan.  [rates] maps each scope to the
    per-operation fault probability (default 0.05 everywhere); return
    [0.] to disable a scope entirely. *)

val seed : t -> int

val draw : t -> scope -> fault option
(** One Bernoulli trial on the scope's stream; [Some f] with
    probability [rates scope].  Exposed for the shims and for
    determinism tests; thread-safe. *)

val draw_at : t -> scope -> conn:int -> op:int -> fault option
(** One Bernoulli trial on a stream of its own, derived from (seed,
    scope, [conn], [op]) — the socket shims' per-connection draws.  The
    outcome depends on nothing else, so it is the same whenever and
    from whichever thread it is drawn. *)

type shims = {
  store_fx : Fx.t;
  journal_fx : Fx.t;
  sock : unit -> Sock.t;
      (** a fresh socket shim for each connection, called in the order
          connections are accepted *)
  wrap_job : (unit -> unit) -> unit -> unit;
}

val passthrough : shims
(** The real implementations; injects nothing. *)

val shims : t -> shims
(** Shims that consult the plan on every operation. *)

val internode_sock : t -> unit -> Sock.t
(** Socket primitives for the proxy<->shard wire, one shim per shard
    connection (numbered in connection order, drawn through
    {!draw_at}), driven by the [Inter_recv]/[Inter_send] scopes.
    Unlike the client-facing [shims].sock, [Flip] here silently
    corrupts the bytes on the wire (in a copy on the send side), which
    the protocol's frame checksums must catch; the menus carry no
    timing faults so cluster harness reports are deterministic per
    seed. *)

val stats : t -> (scope * int * int) list
(** Per scope: (operations seen, faults injected), in [all_scopes]
    order, including quiet scopes. *)

val schedule : t -> (scope * fault list) list
(** Faults injected so far, grouped by scope in [all_scopes] order,
    each list in injection order — for keyed socket draws, in
    (connection, op) order, which does not depend on scheduling. *)

val schedule_hash : t -> string
(** FNV-1a64 hex digest of the rendered schedule.  Two runs survived
    the same faults iff their hashes match. *)
