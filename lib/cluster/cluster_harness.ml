module Chaos = Moard_chaos.Chaos
module Rng = Moard_chaos.Rng
module Monotime = Moard_chaos.Monotime
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Model = Moard_core.Model
module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine
module Query = Moard_store.Query
module Jsonx = Moard_server.Jsonx
module Client = Moard_server.Client
module Protocol = Moard_server.Protocol

type report = {
  seed : int;
  rounds : int;
  rate : float;
  shards : int;
  requests : int;
  identical : int;
  ok_dynamic : int;
  partial : int;
  typed_errors : (string * int) list;
  transport_failures : int;
  diverged : int;
  hung : int;
  crash_events : int;
  restarts : int;
  partition_events : int;
  fault_stats : (string * int * int) list;
  schedule_hash : string;
  survived : bool;
}

let to_json r =
  Jsonx.Obj
    [
      ("seed", Jsonx.Int r.seed);
      ("rounds", Jsonx.Int r.rounds);
      ("rate", Jsonx.Float r.rate);
      ("shards", Jsonx.Int r.shards);
      ("requests", Jsonx.Int r.requests);
      ("identical", Jsonx.Int r.identical);
      ("ok_dynamic", Jsonx.Int r.ok_dynamic);
      ("partial", Jsonx.Int r.partial);
      ( "typed_errors",
        Jsonx.Obj (List.map (fun (c, n) -> (c, Jsonx.Int n)) r.typed_errors) );
      ("transport_failures", Jsonx.Int r.transport_failures);
      ("diverged", Jsonx.Int r.diverged);
      ("hung", Jsonx.Int r.hung);
      ("crash_events", Jsonx.Int r.crash_events);
      ("restarts", Jsonx.Int r.restarts);
      ("partition_events", Jsonx.Int r.partition_events);
      ( "faults",
        Jsonx.Arr
          (List.map
             (fun (s, ops, injected) ->
               Jsonx.Obj
                 [
                   ("scope", Jsonx.Str s);
                   ("ops", Jsonx.Int ops);
                   ("injected", Jsonx.Int injected);
                 ])
             r.fault_stats) );
      ("schedule_hash", Jsonx.Str r.schedule_hash);
      ("survived", Jsonx.Bool r.survived);
    ]

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* Timeouts grow outward, so no layer gives up on a slower layer below
   that is still working — a give-up would make the retry count, and with
   it the report, depend on the host's speed. A shard answers within its
   request timeout; the proxy waits longer than that per forward; the
   client outwaits the proxy's longest legitimate answer, every attempt
   on both owners (R = 2) waiting out its forward timeout. Only a frame
   the shims lost can exhaust a timeout. *)
let shard_timeout_s = 20.
let forward_timeout_s = 25.
let forward_attempts = 3
let client_attempts = 4

let client_timeout_s =
  (2. *. float_of_int forward_attempts *. (forward_timeout_s +. 0.3)) +. 10.

(* The longest legitimate retry schedule: every attempt times out. *)
let hang_bound_s = (float_of_int client_attempts *. client_timeout_s) +. 10.

let cluster_scopes =
  [ Chaos.Inter_send; Chaos.Inter_recv; Chaos.Shard_crash;
    Chaos.Shard_partition ]

(* The cluster invariant, asserted under cluster-level faults only: the
   inter-node wire corrupts/tears/drops frames, whole shards crash-stop
   (and restart a few requests later, cold in memory but warm on disk),
   and the proxy loses sight of shards for a while — yet every response
   a client sees is a typed error or byte-identical to the offline
   baseline.

   Determinism: requests are serial, hedging is disabled (a fixed
   deadline no forward outlives), warming is off, the inter-node fault
   menus carry no timing faults, and crash/partition victims come from
   dedicated streams — so the whole report, schedule hash included, is
   a pure function of the seed and the parameters. *)
let run ?(seed = 11) ?(rounds = 2) ?(rate = 0.08) ?(shards = 2)
    ?(benchmark = "MM") ?(ci_width = 0.2) ?(crash_downtime = 3) () =
  let e =
    match Registry.find benchmark with
    | e -> e
    | exception Not_found ->
      invalid_arg ("Cluster_harness.run: unknown benchmark " ^ benchmark)
  in
  (* fault-free baselines, computed offline before any fault can fire *)
  let ctx = Context.make (e.Registry.workload ()) in
  let options = { Model.default_options with Model.batch = true } in
  let advf_baselines =
    List.map
      (fun o -> (o, Query.advf_payload ~options ctx ~object_name:o))
      e.Registry.objects
  in
  let plan =
    Plan.make ~seed:42 ~confidence:0.95 ~ci_width ~batch:64 ~max_samples:(-1)
      ctx ~objects:e.Registry.objects
  in
  let campaign_baseline = Query.campaign_payload (Engine.run ctx plan) in
  let chaos =
    Chaos.make
      ~rates:(fun s -> if List.mem s cluster_scopes then rate else 0.)
      ~seed ()
  in
  (* victim selection streams, disjoint from every scope stream *)
  let crash_rng = Rng.of_path ~seed [ 9001 ] in
  let part_rng = Rng.of_path ~seed [ 9002 ] in
  let pm = Mutex.create () in
  let partitions : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let is_partitioned name =
    Mutex.lock pm;
    let r = Option.value ~default:0 (Hashtbl.find_opt partitions name) > 0 in
    Mutex.unlock pm;
    r
  in
  let root = fresh_dir "moard-cluster-chaos" in
  let cluster =
    Local.start ~root ~shards ~workers:1 ~queue:16 ~timeout_s:shard_timeout_s
      ~tune:(fun c ->
        {
          c with
          Proxy.hedge_after_s = Some 1e6;  (* hedging off: serial legs *)
          warm_auto = false;
          rpc_timeout_s = forward_timeout_s;
          attempts = forward_attempts;
          base_delay_s = 0.02;
          max_delay_s = 0.3;
          seed;
          sock = Chaos.internode_sock chaos;
          partitioned = is_partitioned;
        })
      ()
  in
  let socket = Local.socket cluster in
  let requests = ref 0
  and identical = ref 0
  and ok_dynamic = ref 0
  and partial = ref 0
  and transport = ref 0
  and diverged = ref 0
  and hung = ref 0
  and crash_events = ref 0
  and restarts = ref 0
  and partition_events = ref 0 in
  let down_for = Array.make shards 0 in  (* requests until restart; 0 = alive *)
  let typed : (string, int) Hashtbl.t = Hashtbl.create 8 in
  (* one crash trial and one partition trial per request, before it *)
  let inject_topology () =
    (match Chaos.draw chaos Chaos.Shard_crash with
    | Some Chaos.Crash ->
      let v = Rng.next_int crash_rng shards in
      if Local.alive cluster v then begin
        Local.crash cluster v;
        down_for.(v) <- crash_downtime;
        incr crash_events
      end
    | _ -> ());
    match Chaos.draw chaos Chaos.Shard_partition with
    | Some (Chaos.Partition n) ->
      let v = Rng.next_int part_rng shards in
      let name = Printf.sprintf "shard%d" v in
      Mutex.lock pm;
      Hashtbl.replace partitions name
        (max n (Option.value ~default:0 (Hashtbl.find_opt partitions name)));
      Mutex.unlock pm;
      incr partition_events
    | _ -> ()
  in
  let heal_topology () =
    for v = 0 to shards - 1 do
      if down_for.(v) > 0 then begin
        down_for.(v) <- down_for.(v) - 1;
        if down_for.(v) = 0 then begin
          Local.restart cluster v;
          incr restarts
        end
      end
    done;
    Mutex.lock pm;
    Hashtbl.iter
      (fun name n -> Hashtbl.replace partitions name (max 0 (n - 1)))
      (Hashtbl.copy partitions);
    Mutex.unlock pm
  in
  let issue ?baseline req =
    inject_topology ();
    incr requests;
    let t0 = Monotime.now () in
    let outcome =
      try
        Some
          (Client.rpc_retry ~attempts:client_attempts ~base_delay_s:0.02
             ~max_delay_s:0.3 ~timeout_s:client_timeout_s
             ~seed:(seed + !requests) ~socket req)
      with Protocol.Protocol_error _ | Unix.Unix_error _ | Sys_error _ -> None
    in
    if Monotime.now () -. t0 > hang_bound_s then incr hung;
    (match outcome with
    | None -> incr transport
    | Some (header, payload) -> (
      match Client.error_of header with
      | Some (code, _) ->
        Hashtbl.replace typed code
          (1 + Option.value ~default:0 (Hashtbl.find_opt typed code))
      | None -> (
        match baseline with
        | None -> incr ok_dynamic
        | Some want ->
          if Jsonx.bool (Jsonx.member "complete" header) = Some false then
            incr partial
          else if Option.value ~default:"" payload = want then incr identical
          else incr diverged)));
    heal_topology ()
  in
  for _round = 1 to rounds do
    List.iter
      (fun (o, base) ->
        issue ~baseline:base
          (Jsonx.Obj
             [
               ("op", Jsonx.Str "advf");
               ("benchmark", Jsonx.Str benchmark);
               ("object", Jsonx.Str o);
             ]))
      advf_baselines;
    let campaign_req op =
      Jsonx.Obj
        [
          ("op", Jsonx.Str op);
          ("benchmark", Jsonx.Str benchmark);
          ("ci_width", Jsonx.Float ci_width);
        ]
    in
    issue ~baseline:campaign_baseline (campaign_req "campaign");
    issue ~baseline:campaign_baseline (campaign_req "report");
    issue (Jsonx.Obj [ ("op", Jsonx.Str "stat") ])
  done;
  let stopped_cleanly =
    match Local.stop cluster with () -> true | exception _ -> false
  in
  let survived = !diverged = 0 && !hung = 0 && stopped_cleanly in
  if survived then (try rm_rf root with Unix.Unix_error _ | Sys_error _ -> ());
  {
    seed;
    rounds;
    rate;
    shards;
    requests = !requests;
    identical = !identical;
    ok_dynamic = !ok_dynamic;
    partial = !partial;
    typed_errors =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) typed []);
    transport_failures = !transport;
    diverged = !diverged;
    hung = !hung;
    crash_events = !crash_events;
    restarts = !restarts;
    partition_events = !partition_events;
    fault_stats =
      List.filter_map
        (fun (s, ops, injected) ->
          if List.mem s cluster_scopes then
            Some (Chaos.scope_name s, ops, injected)
          else None)
        (Chaos.stats chaos);
    schedule_hash = Chaos.schedule_hash chaos;
    survived;
  }
