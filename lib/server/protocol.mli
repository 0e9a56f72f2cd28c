(** The [moardd] wire protocol: length-prefixed JSON over a Unix socket.

    A message is one JSON {e header} frame, optionally followed by one raw
    {e payload} frame:

    {v
    [4-byte big-endian length][header JSON]
    [4-byte big-endian length][payload bytes]     (iff the header says so)
    v}

    The header announces a payload by carrying a ["payload_bytes": n]
    field, and the payload frame's length must equal [n]. Payloads are
    opaque bytes — the store's canonical result strings pass through
    untouched, which is what makes daemon-served results byte-comparable
    with offline CLI output.

    Requests are headers: [{"proto": 1, "op": "advf", ...}]. Responses
    are [{"status": "ok", ...}] or [{"status": "error", "code": ...,
    "message": ...}]. See DESIGN.md §10 for the op catalogue. *)

val version : int
(** Protocol version; both sides send it, either side may reject a
    mismatch ([code = "proto-mismatch"]). *)

val max_frame : int
(** Frame-length sanity bound (16 MiB); longer frames are a protocol
    error. *)

exception Protocol_error of string
(** Framing violation: mid-frame EOF, oversized or negative length,
    payload length or checksum disagreeing with the header, unparseable
    header. *)

val fnv_hex : string -> string
(** FNV-1a64 hex digest (the store's record checksum), used for the
    ["payload_fnv"] header field and for request integrity checksums
    (["req_fnv"]) on inter-node hops. *)

val send :
  ?sock:Moard_chaos.Sock.t -> Unix.file_descr -> ?payload:string -> Jsonx.t ->
  unit
(** Write a header (with ["payload_bytes"] and ["payload_fnv"] appended
    when [payload] is given) and the payload frame. [recv] verifies the
    checksum when present, so a silently corrupted payload frame —
    e.g. a flipped bit on the proxy–shard wire — surfaces as
    [Protocol_error] instead of corrupt bytes reaching a client. A
    single [send] is atomic with respect
    to other senders only if callers serialize per socket — the daemon
    and client both do. [sock] (default: the real syscalls) is the chaos
    shim point for truncated/dropped/delayed frames. *)

val recv :
  ?sock:Moard_chaos.Sock.t -> Unix.file_descr ->
  (Jsonx.t * string option) option
(** Read one message. [None] on clean EOF at a message boundary.
    @raise Protocol_error on a torn or malformed message. *)

val recv_response :
  ?sock:Moard_chaos.Sock.t -> Unix.file_descr ->
  (Jsonx.t * string option) option
(** {!recv} for the answering side of a request: the header must carry
    a ["status"] of ["ok"] or ["error"]. A payload frame whose header
    frame was dropped on the wire is otherwise a well-formed JSON
    message, and would pass for a status-less answer.
    @raise Protocol_error on such a frame, as on any torn message. *)

(** {2 Header constructors} *)

val error : code:string -> message:string -> Jsonx.t
val ok : (string * Jsonx.t) list -> Jsonx.t
