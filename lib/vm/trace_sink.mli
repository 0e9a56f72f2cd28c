(** Where the interpreter sends the dynamic trace.

    The machine emits one trace record per executed instruction. A sink
    decides what happens to it:

    - [Null]: nothing, for executions that only need final outputs
      (every fault-injection run, golden re-executions). The machine then
      skips all tracing work: no operand snapshot, no write record, no
      event. What an untraced step still allocates is the value it
      produces (a {!Moard_bits.Bitval.t}, about six words); calls and
      returns also allocate their frame and its registers, and math
      intrinsics their argument array;
    - [Tape]: packed directly into a {!Moard_trace.Tape.t} through
      {!Moard_trace.Tape.emit}, without materializing a boxed
      {!Moard_trace.Event.t} per instruction — the golden-run fast path;
    - [Fn]: a decoded {!Moard_trace.Event.t} per instruction, for ad-hoc
      observers (tests, debugging dumps). *)

type t =
  | Null
  | Tape of Moard_trace.Tape.t
  | Fn of (Moard_trace.Event.t -> unit)

val is_null : t -> bool
