module Chaos = Moard_chaos.Chaos
module Sock = Moard_chaos.Sock
module Rng = Moard_chaos.Rng
module Monotime = Moard_chaos.Monotime
module Registry = Moard_kernels.Registry
module Protocol = Moard_server.Protocol
module Client = Moard_server.Client
module Jsonx = Moard_server.Jsonx
module Version = Moard_server.Version
module Oneshot = Moard_server.Oneshot

type shard = { name : string; socket : string }

type config = {
  socket : string;
  shards : shard list;
  replication : int;
  vnodes : int;
  hedge_after_s : float option;
  hedge_floor_s : float;
  rpc_timeout_s : float;
  attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  warm_auto : bool;
  seed : int;
  sock : unit -> Sock.t;
  partitioned : string -> bool;
}

let default_config ~shards =
  {
    socket = "moard-cluster.sock";
    shards;
    replication = 2;
    vnodes = 64;
    hedge_after_s = None;
    hedge_floor_s = 0.05;
    rpc_timeout_s = 600.;
    attempts = 4;
    base_delay_s = 0.05;
    max_delay_s = 1.0;
    warm_auto = true;
    seed = 0;
    sock = (fun () -> Sock.real);
    partitioned = (fun _ -> false);
  }

(* Single-flight entry, same shape as the daemon's: leader forwards,
   followers share the response. *)
type flight = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable fresult : (Jsonx.t * string option) option;
}

type t = {
  cfg : config;
  ring : Ring.t;
  listen : Unix.file_descr;
  stop_flag : bool Atomic.t;
  m : Mutex.t;
  conns_done : Condition.t;
  flights : (string, flight) Hashtbl.t;
  rng : Rng.t;  (* retry backoff jitter; guarded by [m] *)
  lat : float array;  (* recent forward latencies, ring buffer *)
  mutable lat_n : int;
  mutable inflight : int;  (* client forwards in progress *)
  mutable conns : int;
  mutable served : int;
  mutable errors : int;
  mutable forwarded : int;
  mutable coalesced : int;
  mutable hedged : int;
  mutable hedge_wins : int;
  mutable failovers : int;
  mutable retries : int;
  mutable integrity_failures : int;
  warm_q : Jsonx.t Queue.t;
  warm_seen : (string, unit) Hashtbl.t;
  mutable warmed : int;
  mutable warm_errors : int;
  mutable accept_thread : Thread.t option;
  mutable warm_thread : Thread.t option;
  mutable stopped : bool;
  started_at : float;
}

let stopping t = Atomic.get t.stop_flag
let ring t = t.ring

let bump t f =
  Mutex.lock t.m;
  f t;
  Mutex.unlock t.m

(* ---------------- routing ---------------- *)

(* Where a request lives.  [warm] routes like the [advf] it precomputes
   and [report] like the [campaign] whose journal it reads, so related
   work always lands on the same shard.  Placement keys deliberately
   exclude tuning fields for advf-class ops (same object, different
   budget → same shard, sharing the golden-run context); campaign keys
   keep every plan parameter since the journal is plan-specific. *)
let routing_key req =
  let s name = Option.value ~default:"" (Jsonx.str (Jsonx.member name req)) in
  match s "op" with
  | "advf" | "warm" -> Printf.sprintf "advf|%s|%s" (s "benchmark") (s "object")
  | "predict" -> Printf.sprintf "predict|%s|%s" (s "benchmark") (s "object")
  | "advise" -> Printf.sprintf "advise|%s" (s "benchmark")
  | "campaign" | "report" ->
    "campaign|" ^ Jsonx.signature ~drop:[ "proto"; "req_fnv"; "op" ] req
  | _ -> Jsonx.signature ~drop:[ "proto"; "req_fnv" ] req

let shard_named t name = List.find (fun s -> s.name = name) t.cfg.shards

let owners_of t req =
  List.map (shard_named t)
    (Ring.owners t.ring ~n:t.cfg.replication (routing_key req))

(* ---------------- one forward, with retry ---------------- *)

(* The request as it goes on the inter-node wire: canonical transport
   fields up front and a checksum over the canonical signature, so a
   bit flipped in the header frame — even one that still parses — is
   refused by the shard instead of computing the wrong thing. *)
let seal req =
  match req with
  | Jsonx.Obj fields ->
    let fnv = Protocol.fnv_hex (Jsonx.signature ~drop:[ "proto"; "req_fnv" ] req) in
    let core =
      List.filter (fun (k, _) -> k <> "proto" && k <> "req_fnv") fields
    in
    Jsonx.Obj
      (("proto", Jsonx.Int Protocol.version)
      :: ("req_fnv", Jsonx.Str fnv)
      :: core)
  | v -> v

(* The response direction is covered by payload_fnv; what remains is an
   ok-header whose identifying echoes were corrupted in flight. *)
let verify_echo req header =
  List.iter
    (fun k ->
      match (Jsonx.str (Jsonx.member k req), Jsonx.str (Jsonx.member k header)) with
      | Some a, Some b when a <> b ->
        raise
          (Protocol.Protocol_error
             (Printf.sprintf "shard echoed %s=%S for a request with %S" k b a))
      | _ -> ())
    [ "op"; "benchmark"; "object" ]

let retryable_connect = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET
        | Unix.EHOSTUNREACH ),
        _,
        _ ) ->
    true
  | _ -> false

let retryable_code = function
  | "overloaded" | "draining" | "integrity" -> true
  | _ -> false

let connect_shard t (s : shard) =
  if t.cfg.partitioned s.name then
    raise
      (Unix.Unix_error (Unix.EHOSTUNREACH, "connect", s.name ^ " (partitioned)"));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX s.socket);
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.rpc_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.rpc_timeout_s
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* A hedged race between forwarding legs.  Losers are cancelled by
   shutting their shard connections down — the shard sees client EOF
   and trips the compute's cancel token (unless someone coalesced onto
   it there).  The fd registry is guarded by [rm] so a winner never
   shuts down a descriptor number the loser has already returned to
   the OS.  The coordinator sleeps on [settled], which the first
   winning leg fills — or the last launched leg, when every one has
   failed; a failover round starts a fresh cell. *)
type settled =
  | Won of int * string * (Jsonx.t * string option)
  | All_failed

type race = {
  rm : Mutex.t;
  mutable winner : (int * string * (Jsonx.t * string option)) option;
  mutable started : int;
  mutable finished : int;
  mutable errs : exn list;
  mutable race_cancelled : bool;
  mutable fds : (int * Unix.file_descr) list;
  mutable settled : settled Oneshot.t;
}

exception Cancelled_leg

let race_is_cancelled race =
  Mutex.lock race.rm;
  let c = race.race_cancelled in
  Mutex.unlock race.rm;
  c

let with_shard_conn t race leg s f =
  let fd = connect_shard t s in
  let registered =
    match race with
    | None -> true
    | Some r ->
      Mutex.lock r.rm;
      let ok = not r.race_cancelled in
      if ok then r.fds <- (leg, fd) :: r.fds;
      Mutex.unlock r.rm;
      ok
  in
  if not registered then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise Cancelled_leg
  end;
  Fun.protect
    ~finally:(fun () ->
      (match race with
      | None -> ()
      | Some r ->
        Mutex.lock r.rm;
        r.fds <- List.filter (fun (l, d) -> not (l = leg && d = fd)) r.fds;
        Mutex.unlock r.rm);
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let backoff_delay t i =
  Mutex.lock t.m;
  let d =
    Client.backoff ~base_delay_s:t.cfg.base_delay_s
      ~max_delay_s:t.cfg.max_delay_s t.rng i
  in
  Mutex.unlock t.m;
  d

exception Retry_leg of exn

(* Forward [req] to one shard with the client's capped jittered backoff.
   Mirrors {!Client.rpc_retry} semantics: connect-level failures always
   retry (no request escaped); mid-flight transport failures retry only
   when [may_retry]; typed overloaded/draining/integrity responses
   retry with backoff. *)
let forward_retry t ?race ?(leg = 0) ?attempts ~may_retry (s : shard) req =
  let attempts = Option.value ~default:t.cfg.attempts attempts in
  let sealed = seal req in
  let rec go i =
    (match race with
    | Some r when race_is_cancelled r -> raise Cancelled_leg
    | _ -> ());
    let attempt () =
      match
        with_shard_conn t race leg s (fun fd ->
            let sock = t.cfg.sock () in
            Protocol.send ~sock fd sealed;
            match Protocol.recv_response ~sock fd with
            | None ->
              raise
                (Protocol.Protocol_error "shard closed the connection mid-request")
            | Some (h, p) ->
              verify_echo req h;
              (h, p))
      with
      | resp -> resp
      | exception Cancelled_leg -> raise Cancelled_leg
      | exception e when retryable_connect e -> raise (Retry_leg e)
      | exception ((Protocol.Protocol_error _ | Unix.Unix_error _) as e)
        when may_retry ->
        raise (Retry_leg e)
    in
    bump t (fun t -> t.forwarded <- t.forwarded + 1);
    match attempt () with
    | (h, _) as resp -> (
      match Client.error_of h with
      | Some (code, _) when retryable_code code && i + 1 < attempts ->
        if code = "integrity" then
          bump t (fun t -> t.integrity_failures <- t.integrity_failures + 1);
        bump t (fun t -> t.retries <- t.retries + 1);
        Unix.sleepf (backoff_delay t i);
        go (i + 1)
      | _ -> resp)
    | exception Retry_leg e ->
      if i + 1 < attempts then begin
        bump t (fun t -> t.retries <- t.retries + 1);
        Unix.sleepf (backoff_delay t i);
        go (i + 1)
      end
      else raise e
  in
  go 0

(* ---------------- hedged / failover forwarding ---------------- *)

let note_latency t d =
  Mutex.lock t.m;
  t.lat.(t.lat_n mod Array.length t.lat) <- d;
  t.lat_n <- t.lat_n + 1;
  Mutex.unlock t.m

(* When to launch the second leg: a fixed configured delay, or an
   adaptive one — twice the p95 of recent forward latencies, floored.
   With fewer than 8 observations there is no signal; wait the full
   timeout (i.e. effectively do not hedge). *)
let hedge_deadline t =
  match t.cfg.hedge_after_s with
  | Some d -> d
  | None ->
    Mutex.lock t.m;
    let n = min t.lat_n (Array.length t.lat) in
    let d =
      if n < 8 then t.cfg.rpc_timeout_s
      else begin
        let xs = Array.sub t.lat 0 n in
        Array.sort compare xs;
        let p95 = xs.(int_of_float (0.95 *. float_of_int (n - 1))) in
        Float.max t.cfg.hedge_floor_s (2. *. p95)
      end
    in
    Mutex.unlock t.m;
    d

(* Forward to the owner chain: primary first, a hedge leg on the first
   distinct replica once the hedge deadline passes (idempotent ops
   only), immediate failover down the chain when every launched leg has
   failed.  First response wins; losers are cancelled through their
   sockets.  All replicas down → a typed [unavailable] error, which
   keeps the cluster invariant: typed error or byte-identical payload,
   never silence, never wrong bytes. *)
let race_forward t shards req ~may_retry =
  match shards with
  | [] ->
    ( (Protocol.error ~code:"unavailable" ~message:"no shard owns this key", None),
      None )
  | shards ->
    let n_shards = List.length shards in
    let race =
      {
        rm = Mutex.create ();
        winner = None;
        started = 0;
        finished = 0;
        errs = [];
        race_cancelled = false;
        fds = [];
        settled = Oneshot.create ();
      }
    in
    (* callers hold [race.rm] *)
    let spawn () =
      let leg = race.started in
      let s = List.nth shards leg in
      race.started <- leg + 1;
      ignore
        (Thread.create
           (fun () ->
             let outcome =
               match forward_retry t ~race ~leg ~may_retry s req with
               | resp -> Ok resp
               | exception e -> Error e
             in
             Mutex.lock race.rm;
             (match outcome with
             | Ok resp when race.winner = None ->
               race.winner <- Some (leg, s.name, resp);
               ignore (Oneshot.fill race.settled (Won (leg, s.name, resp)))
             | Ok _ -> ()
             | Error Cancelled_leg -> ()
             | Error e -> race.errs <- e :: race.errs);
             race.finished <- race.finished + 1;
             if race.winner = None && race.finished = race.started then
               ignore (Oneshot.fill race.settled All_failed);
             Mutex.unlock race.rm)
           ())
    in
    let locked f =
      Mutex.lock race.rm;
      Fun.protect ~finally:(fun () -> Mutex.unlock race.rm) f
    in
    locked spawn;
    let hedge_after = hedge_deadline t in
    let t0 = Monotime.now () in
    let rec wait () =
      let cell, started = locked (fun () -> (race.settled, race.started)) in
      (* the next hedge leg launches at its own timer, not on a poll tick *)
      let until =
        if may_retry && started < n_shards then
          t0 +. (hedge_after *. float_of_int started)
        else Float.infinity
      in
      match Oneshot.await cell ~until with
      | Some (Won (leg, name, resp)) ->
        locked (fun () ->
            race.race_cancelled <- true;
            List.iter
              (fun (l, fd) ->
                if l <> leg then
                  try Unix.shutdown fd Unix.SHUTDOWN_ALL
                  with Unix.Unix_error _ -> ())
              race.fds);
        if leg > 0 then bump t (fun t -> t.hedge_wins <- t.hedge_wins + 1);
        (resp, Some name)
      | Some All_failed ->
        let last_err =
          locked (fun () ->
              match race.errs with e :: _ -> Some e | [] -> None)
        in
        let connect_only =
          match last_err with Some e -> retryable_connect e | None -> true
        in
        if started < n_shards && (may_retry || connect_only) then begin
          bump t (fun t -> t.failovers <- t.failovers + 1);
          locked (fun () ->
              race.settled <- Oneshot.create ();
              spawn ());
          wait ()
        end
        else
          ( ( Protocol.error ~code:"unavailable"
                ~message:
                  (Printf.sprintf "all %d replica(s) failed: %s" started
                     (match last_err with
                     | Some e -> Printexc.to_string e
                     | None -> "no diagnostic")),
              None ),
            None )
      | None ->
        (* hedge timer; a leg that settled the race meanwhile wins *)
        let hedged =
          locked (fun () ->
              let live = race.winner = None && race.finished < race.started in
              if live then spawn ();
              live)
        in
        if hedged then bump t (fun t -> t.hedged <- t.hedged + 1);
        wait ()
    in
    Fun.protect
      ~finally:(fun () ->
        ignore (Oneshot.abandon (locked (fun () -> race.settled))))
      wait

(* ---------------- warming ---------------- *)

let enqueue_warm_req t wreq =
  let sgn = Jsonx.signature ~drop:[ "proto"; "req_fnv" ] wreq in
  Mutex.lock t.m;
  let fresh = not (Hashtbl.mem t.warm_seen sgn) in
  if fresh then begin
    Hashtbl.replace t.warm_seen sgn ();
    Queue.push wreq t.warm_q
  end;
  Mutex.unlock t.m;
  fresh

let warm_option_fields req =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (Jsonx.member k req))
    [ "k"; "fi_budget"; "error_model" ]

(* A freshly computed object is a hotness signal: queue its registry
   siblings (same benchmark, same analysis options) for precompute. *)
let auto_warm t req =
  match Jsonx.str (Jsonx.member "benchmark" req) with
  | None -> ()
  | Some b -> (
    match Registry.find b with
    | exception Not_found -> ()
    | e ->
      let keep = warm_option_fields req in
      let just_computed = Jsonx.str (Jsonx.member "object" req) in
      List.iter
        (fun obj ->
          if Some obj <> just_computed then
            ignore
              (enqueue_warm_req t
                 (Jsonx.Obj
                    (("op", Jsonx.Str "warm")
                    :: ("benchmark", Jsonx.Str b)
                    :: ("object", Jsonx.Str obj)
                    :: keep))))
        e.Registry.objects)

let handle_warm t req =
  match
    let benchmark =
      match Jsonx.str (Jsonx.member "benchmark" req) with
      | Some b -> b
      | None -> failwith "missing string field \"benchmark\""
    in
    let e =
      match Registry.find benchmark with
      | e -> e
      | exception Not_found ->
        failwith (Printf.sprintf "unknown benchmark %S" benchmark)
    in
    let object_name =
      match Jsonx.str (Jsonx.member "object" req) with
      | Some o -> o
      | None -> failwith "missing string field \"object\""
    in
    (e, object_name)
  with
  | exception Failure msg ->
    (Protocol.error ~code:"bad-request" ~message:msg, None)
  | e, object_name ->
    let wreq =
      Jsonx.Obj
        (("op", Jsonx.Str "warm")
        :: ("benchmark", Jsonx.Str e.Registry.benchmark)
        :: ("object", Jsonx.Str object_name)
        :: warm_option_fields req)
    in
    let fresh = enqueue_warm_req t wreq in
    ( Protocol.ok
        [
          ("op", Jsonx.Str "warm");
          ("benchmark", Jsonx.Str e.Registry.benchmark);
          ("object", Jsonx.Str object_name);
          ("queued", Jsonx.Bool fresh);
        ],
      None )

(* Push queued warms to their owning shards (which queue the actual
   compute behind their own idle-only warm threads), strictly while no
   client forward is in flight here. *)
let warm_loop t () =
  while not (stopping t) do
    let item =
      Mutex.lock t.m;
      let it =
        if (not (Queue.is_empty t.warm_q)) && t.inflight = 0 then
          Some (Queue.pop t.warm_q)
        else None
      in
      Mutex.unlock t.m;
      it
    in
    match item with
    | None -> Thread.delay 0.02
    | Some wreq -> (
      let owners = owners_of t wreq in
      match owners with
      | [] -> bump t (fun t -> t.warm_errors <- t.warm_errors + 1)
      | primary :: _ -> (
        match forward_retry t ~may_retry:true primary wreq with
        | h, _ ->
          if Client.error_of h = None then
            bump t (fun t -> t.warmed <- t.warmed + 1)
          else bump t (fun t -> t.warm_errors <- t.warm_errors + 1)
        | exception _ ->
          bump t (fun t -> t.warm_errors <- t.warm_errors + 1)))
  done

(* ---------------- stat ---------------- *)

let proxy_counters t =
  Mutex.lock t.m;
  let o =
    Jsonx.Obj
      [
        ("served", Jsonx.Int t.served);
        ("errors", Jsonx.Int t.errors);
        ("forwarded", Jsonx.Int t.forwarded);
        ("coalesced", Jsonx.Int t.coalesced);
        ("hedged", Jsonx.Int t.hedged);
        ("hedge_wins", Jsonx.Int t.hedge_wins);
        ("failovers", Jsonx.Int t.failovers);
        ("retries", Jsonx.Int t.retries);
        ("integrity_failures", Jsonx.Int t.integrity_failures);
        ( "warming",
          Jsonx.Obj
            [
              ("queued", Jsonx.Int (Queue.length t.warm_q));
              ("warmed", Jsonx.Int t.warmed);
              ("errors", Jsonx.Int t.warm_errors);
            ] );
      ]
  in
  Mutex.unlock t.m;
  o

let cluster_stat t =
  let shard_stats =
    List.map
      (fun s ->
        match
          forward_retry t ~attempts:1 ~may_retry:true s
            (Jsonx.Obj [ ("op", Jsonx.Str "stat") ])
        with
        | h, _ -> (s, Some h)
        | exception _ -> (s, None))
      t.cfg.shards
  in
  Protocol.ok
    [
      ("op", Jsonx.Str "stat");
      ("role", Jsonx.Str "proxy");
      ("server", Jsonx.Str Version.version);
      ("proto", Jsonx.Int Protocol.version);
      ("uptime_s", Jsonx.Float (Monotime.now () -. t.started_at));
      ( "ring",
        Jsonx.Obj
          [
            ("shards", Jsonx.Int (List.length t.cfg.shards));
            ("vnodes", Jsonx.Int t.cfg.vnodes);
            ("replication", Jsonx.Int t.cfg.replication);
          ] );
      ("proxy", proxy_counters t);
      ( "shards",
        Jsonx.Arr
          (List.map
             (fun ((s : shard), h) ->
               Jsonx.Obj
                 ([
                    ("name", Jsonx.Str s.name);
                    ("socket", Jsonx.Str s.socket);
                    ("alive", Jsonx.Bool (h <> None));
                  ]
                 @ match h with Some h -> [ ("stat", h) ] | None -> []))
             shard_stats) );
    ]

(* ---------------- dispatch ---------------- *)

let coalesced_header = function
  | Jsonx.Obj fields
    when List.assoc_opt "status" fields = Some (Jsonx.Str "ok") ->
    Jsonx.Obj
      (List.map
         (fun (k, v) ->
           match k with
           | "served" -> (k, Jsonx.Str "coalesced")
           | "cached" -> (k, Jsonx.Bool true)
           | _ -> (k, v))
         fields)
  | h -> h

let with_shard_field name = function
  | Jsonx.Obj fields when not (List.mem_assoc "shard" fields) ->
    Jsonx.Obj (fields @ [ ("shard", Jsonx.Str name) ])
  | h -> h

let integrity_error req =
  match Jsonx.str (Jsonx.member "req_fnv" req) with
  | None -> None
  | Some announced ->
    let actual =
      Protocol.fnv_hex (Jsonx.signature ~drop:[ "proto"; "req_fnv" ] req)
    in
    if String.equal announced actual then None
    else
      Some
        (Protocol.error ~code:"integrity"
           ~message:
             (Printf.sprintf
                "request checksum mismatch (%s announced, %s received)"
                announced actual))

let serve_compute t req op =
  let may_retry = op <> "campaign" in
  Mutex.lock t.m;
  t.inflight <- t.inflight + 1;
  Mutex.unlock t.m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.m;
      t.inflight <- t.inflight - 1;
      Mutex.unlock t.m)
    (fun () ->
      let t0 = Monotime.now () in
      let (header, payload), winner = race_forward t (owners_of t req) req ~may_retry in
      (match Client.error_of header with
      | None ->
        note_latency t (Monotime.now () -. t0);
        if
          t.cfg.warm_auto && op = "advf"
          && Jsonx.str (Jsonx.member "served" header) = Some "computed"
        then auto_warm t req
      | Some _ -> ());
      let header =
        match winner with Some n -> with_shard_field n header | None -> header
      in
      (header, payload))

let dispatch t req =
  match Jsonx.int (Jsonx.member "proto" req) with
  | Some p when p <> Protocol.version ->
    ( Protocol.error ~code:"proto-mismatch"
        ~message:
          (Printf.sprintf "server speaks protocol %d, client sent %d"
             Protocol.version p),
      None )
  | _ -> (
    match Jsonx.str (Jsonx.member "op" req) with
    | None -> (Protocol.error ~code:"bad-request" ~message:"missing op", None)
    | Some "version" ->
      ( Protocol.ok
          [
            ("op", Jsonx.Str "version");
            ("role", Jsonx.Str "proxy");
            ("server", Jsonx.Str Version.version);
            ("proto", Jsonx.Int Protocol.version);
          ],
        None )
    | Some "stat" -> (cluster_stat t, None)
    | Some "warm" -> handle_warm t req
    | Some (("advf" | "campaign" | "report" | "predict" | "advise") as op) -> (
      match integrity_error req with
      | Some e ->
        bump t (fun t -> t.integrity_failures <- t.integrity_failures + 1);
        (e, None)
      | None -> (
        let sgn = Jsonx.signature ~drop:[ "proto"; "req_fnv" ] req in
        let role =
          Mutex.lock t.m;
          let r =
            match Hashtbl.find_opt t.flights sgn with
            | Some fl -> `Follow fl
            | None ->
              let fl =
                { fm = Mutex.create (); fc = Condition.create (); fresult = None }
              in
              Hashtbl.replace t.flights sgn fl;
              `Lead fl
          in
          Mutex.unlock t.m;
          r
        in
        match role with
        | `Follow fl ->
          Mutex.lock fl.fm;
          while fl.fresult = None do
            Condition.wait fl.fc fl.fm
          done;
          let header, payload = Option.get fl.fresult in
          Mutex.unlock fl.fm;
          bump t (fun t -> t.coalesced <- t.coalesced + 1);
          (coalesced_header header, payload)
        | `Lead fl -> (
          let resolve r =
            Mutex.lock t.m;
            Hashtbl.remove t.flights sgn;
            Mutex.unlock t.m;
            Mutex.lock fl.fm;
            fl.fresult <- Some r;
            Condition.broadcast fl.fc;
            Mutex.unlock fl.fm;
            r
          in
          match serve_compute t req op with
          | r -> resolve r
          | exception e ->
            ignore
              (resolve
                 ( Protocol.error ~code:"internal"
                     ~message:(Printexc.to_string e),
                   None ));
            raise e)))
    | Some op ->
      (Protocol.error ~code:"bad-request" ~message:("unknown op " ^ op), None))

(* ---------------- connection & accept loops ---------------- *)

let is_ok = function
  | Jsonx.Obj fields -> List.assoc_opt "status" fields = Some (Jsonx.Str "ok")
  | _ -> false

let handle_conn t fd =
  let rec loop () =
    if not (stopping t) then begin
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
        match Protocol.recv fd with
        | None -> ()
        | Some (req, _payload) ->
          let header, payload = dispatch t req in
          Mutex.lock t.m;
          if is_ok header then t.served <- t.served + 1
          else t.errors <- t.errors + 1;
          Mutex.unlock t.m;
          Protocol.send fd ?payload header;
          loop ())
    end
  in
  (try loop () with
  | Protocol.Protocol_error msg ->
    (try Protocol.send fd (Protocol.error ~code:"bad-request" ~message:msg)
     with _ -> ());
    bump t (fun t -> t.errors <- t.errors + 1)
  | Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.m;
  t.conns <- t.conns - 1;
  Condition.broadcast t.conns_done;
  Mutex.unlock t.m

let accept_loop t () =
  while not (stopping t) do
    match Unix.select [ t.listen ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.listen with
      | fd, _ ->
        Mutex.lock t.m;
        t.conns <- t.conns + 1;
        Mutex.unlock t.m;
        ignore (Thread.create (fun () -> handle_conn t fd) ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ())
  done

let start cfg =
  if cfg.shards = [] then invalid_arg "Proxy.start: no shards";
  if cfg.replication < 1 then invalid_arg "Proxy.start: replication";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let ring =
    Ring.make ~vnodes:cfg.vnodes (List.map (fun s -> s.name) cfg.shards)
  in
  if Sys.file_exists cfg.socket then Unix.unlink cfg.socket;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen 64;
  let t =
    {
      cfg;
      ring;
      listen;
      stop_flag = Atomic.make false;
      m = Mutex.create ();
      conns_done = Condition.create ();
      flights = Hashtbl.create 16;
      rng = Rng.of_path ~seed:cfg.seed [ 7001 ];
      lat = Array.make 128 0.;
      lat_n = 0;
      inflight = 0;
      conns = 0;
      served = 0;
      errors = 0;
      forwarded = 0;
      coalesced = 0;
      hedged = 0;
      hedge_wins = 0;
      failovers = 0;
      retries = 0;
      integrity_failures = 0;
      warm_q = Queue.create ();
      warm_seen = Hashtbl.create 64;
      warmed = 0;
      warm_errors = 0;
      accept_thread = None;
      warm_thread = None;
      stopped = false;
      started_at = Monotime.now ();
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t.warm_thread <- Some (Thread.create (warm_loop t) ());
  t

let stop t =
  Atomic.set t.stop_flag true;
  Mutex.lock t.m;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.m;
  if first then begin
    Option.iter Thread.join t.accept_thread;
    Mutex.lock t.m;
    while t.conns > 0 do
      Condition.wait t.conns_done t.m
    done;
    Mutex.unlock t.m;
    Option.iter Thread.join t.warm_thread;
    (try Unix.close t.listen with Unix.Unix_error _ -> ());
    if Sys.file_exists t.cfg.socket then (
      try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ())
  end

let run cfg =
  let t = start cfg in
  let quit _ = Atomic.set t.stop_flag true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  while not (stopping t) do
    Thread.delay 0.2
  done;
  stop t
