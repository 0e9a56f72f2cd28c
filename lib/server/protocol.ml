module Sock = Moard_chaos.Sock

let version = 1
let max_frame = 16 * 1024 * 1024

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let write_all ~sock fd b off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    let n = sock.Sock.write fd b !off !len in
    off := !off + n;
    len := !len - n
  done

let write_frame ~sock fd s =
  let n = String.length s in
  if n > max_frame then fail "frame of %d bytes exceeds max %d" n max_frame;
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string s 0 b 4 n;
  write_all ~sock fd b 0 (4 + n)

(* Read exactly [len] bytes; [None] on EOF at offset 0 when [eof_ok]. *)
let read_exact ?(eof_ok = false) ~sock fd len =
  let b = Bytes.create len in
  let off = ref 0 in
  let eof = ref false in
  while !off < len && not !eof do
    let n = sock.Sock.read fd b !off (len - !off) in
    if n = 0 then
      if !off = 0 && eof_ok then eof := true
      else fail "connection closed mid-frame (%d of %d bytes)" !off len
    else off := !off + n
  done;
  if !eof then None else Some b

let read_frame ?eof_ok ~sock fd =
  match read_exact ?eof_ok ~sock fd 4 with
  | None -> None
  | Some hdr ->
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame then fail "bad frame length %d" len;
    (match read_exact ~sock fd len with
    | Some b -> Some (Bytes.unsafe_to_string b)
    | None -> assert false)

let fnv_hex = Moard_store.Record.fnv1a64_hex

let send ?(sock = Sock.real) fd ?payload header =
  let header =
    match (payload, header) with
    | None, h -> h
    | Some p, Jsonx.Obj fields ->
      (* length alone cannot catch a flipped bit on an inter-node hop;
         the checksum can, and the store's canonical payloads make it
         cheap relative to the compute they carry. Stale copies from an
         earlier hop (a proxy re-sending a shard's header) are replaced,
         not duplicated. *)
      let fields =
        List.filter
          (fun (k, _) ->
            not (String.equal k "payload_bytes")
            && not (String.equal k "payload_fnv"))
          fields
      in
      Jsonx.Obj
        (fields
        @ [
            ("payload_bytes", Jsonx.Int (String.length p));
            ("payload_fnv", Jsonx.Str (fnv_hex p));
          ])
    | Some _, _ -> invalid_arg "Protocol.send: payload on a non-object header"
  in
  write_frame ~sock fd (Jsonx.to_string header);
  match payload with Some p -> write_frame ~sock fd p | None -> ()

let recv ?(sock = Sock.real) fd =
  match read_frame ~eof_ok:true ~sock fd with
  | None -> None
  | Some raw ->
    let header =
      match Jsonx.parse raw with
      | Ok h -> h
      | Error e -> fail "bad header: %s" e
    in
    (match Jsonx.int (Jsonx.member "payload_bytes" header) with
    | None -> Some (header, None)
    | Some n ->
      (match read_frame ~sock fd with
      | None -> fail "connection closed before announced payload"
      | Some p ->
        if String.length p <> n then
          fail "payload frame of %d bytes where header announced %d"
            (String.length p) n;
        (match Jsonx.str (Jsonx.member "payload_fnv" header) with
        | Some h when not (String.equal h (fnv_hex p)) ->
          fail "payload checksum mismatch (%s on the wire, %s announced)"
            (fnv_hex p) h
        | _ -> ());
        Some (header, Some p)))

(* A response header always says how the request went; a frame without
   a status is a payload read in its header's place (the header frame was
   lost), and must not pass for an answer. *)
let recv_response ?sock fd =
  match recv ?sock fd with
  | Some (h, _) as r -> (
    match Jsonx.str (Jsonx.member "status" h) with
    | Some ("ok" | "error") -> r
    | _ -> fail "response header without a status (lost or misordered frame)")
  | None -> None

let error ~code ~message =
  Jsonx.Obj
    [
      ("status", Jsonx.Str "error");
      ("code", Jsonx.Str code);
      ("message", Jsonx.Str message);
    ]

let ok fields = Jsonx.Obj (("status", Jsonx.Str "ok") :: fields)
