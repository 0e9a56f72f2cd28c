(** The MOARD virtual machine.

    Loads an IR program (laying out all globals at fixed addresses), then
    executes it any number of times. Each run starts from the pristine
    initial memory image, optionally emits the dynamic trace, and optionally
    applies one deterministic fault. Execution is fully deterministic, so a
    run with no fault is the golden run every fault-injection outcome is
    compared against. *)

type t

type outcome =
  | Finished of Moard_bits.Bitval.t option  (** entry function's return value *)
  | Trapped of Trap.t

type run = {
  outcome : outcome;
  mem : Memory.t;   (** final memory, for observing output data objects *)
  steps : int;      (** dynamic instructions executed *)
}

val load : ?mem_bytes:int -> Moard_ir.Program.t -> t
(** Validates the program, assigns every global an address and decodes
    every instruction once: global operands become address constants, call
    targets become the function or intrinsic they name, and each
    instruction gets its {!Moard_ir.Iid.t}. The result is never written
    after [load] returns, so one [t] may run on several domains at once.
    Default memory size fits all globals plus 64 KiB of slack.
    @raise Invalid_argument if validation fails. *)

val program : t -> Moard_ir.Program.t

val image : t -> Memory.t
(** The pristine initial memory image every run starts from (globals laid
    out and initialized, nothing executed). Callers must treat it as
    read-only: it is the template {!run} copies, and writing through it
    would corrupt every subsequent run. The golden-memory timeline of the
    vectorized replay reads initial values from it. *)

val base_of : t -> string -> int
(** Load address of a global. @raise Not_found *)

val object_of : t -> string -> Moard_trace.Data_object.t
(** The data object a global defines. @raise Not_found *)

val registry : t -> Moard_trace.Registry.t
(** Every global as a data object. *)

val max_harts : int
(** Upper bound on [harts] (62: hart sets pack into an OCaml int as
    bitmasks, e.g. in {!Moard_trace.Sharing}). *)

type checkpoint
(** The complete machine state captured at one dynamic-instruction
    boundary of a fault-free run: memory, every hart's frame stack and
    barrier state, the scheduler position, and the event counter. Because
    execution (including the round-robin schedule) is deterministic and a
    fault at event [i] leaves everything before [i] byte-identical to the
    golden run, resuming an injected run from a checkpoint at the fault
    event is exact — it only skips re-executing a prefix both runs
    share. *)

val checkpoint :
  ?step_limit:int -> ?args:Moard_bits.Bitval.t list -> ?harts:int ->
  t -> entry:string -> at:int -> checkpoint
(** Execute [entry] without a fault up to (not including) dynamic event
    [at] and freeze the state there. [harts] as in {!run}; a checkpoint
    remembers its hart count, so resumes rebuild the same configuration.
    @raise Invalid_argument if the run ends (or traps) before [at]. *)

val checkpoint_at : checkpoint -> int
(** The event index a run resumed {!run}[ ~from] starts at. *)

val run :
  ?step_limit:int ->
  ?fault:Fault.t ->
  ?sink:Trace_sink.t ->
  ?args:Moard_bits.Bitval.t list ->
  ?harts:int ->
  ?from:checkpoint ->
  t -> entry:string -> run
(** Execute [entry]. [step_limit] defaults to 20 million. [sink] defaults
    to {!Trace_sink.Null}: untraced executions (fault injections, golden
    re-executions) do no tracing work, and a step allocates only the value
    it produces (see {!Trace_sink} for the rest). Every run executes the
    program {!load} decoded; the names, operands and callees of the source
    IR are never looked up during a run.

    [harts] (default 1) launches that many cooperating harts SPMD-style:
    each runs [entry] with the same [args] over the shared flat memory,
    under a deterministic round-robin scheduler with a quantum of one
    dynamic instruction. The [hart_id]/[hart_count] intrinsics expose the
    lane identity; [barrier] parks a hart until every other live hart
    arrives (harts that already returned leave the quorum, so a barrier
    never deadlocks). The outcome is hart 0's return value; a trap on any
    hart traps the whole run. With one hart the scheduler degenerates to
    the serial interpreter loop, event for event.

    With [from], execution resumes from the checkpoint instead of the
    pristine image ([entry], [args] and [harts] are then ignored — the
    checkpoint carries the hart configuration — and [run.steps] stays the
    absolute dynamic event count, prefix included); a [fault] whose event
    index predates the checkpoint can never fire. *)

val trace :
  ?step_limit:int -> ?args:Moard_bits.Bitval.t list -> ?harts:int ->
  t -> entry:string -> run * Moard_trace.Tape.t
(** Golden traced run: executes with a {!Trace_sink.Tape} sink — events
    are packed straight into the tape, never boxed — and returns the tape
    already {!Moard_trace.Tape.freeze}d, ready to be shared across
    domains. *)

(** {2 Observation of final memory} *)

val read_f64s : t -> Memory.t -> string -> float array
val read_i64s : t -> Memory.t -> string -> int64 array
val read_i32s : t -> Memory.t -> string -> int32 array
