module Chaos = Moard_chaos.Chaos
module Monotime = Moard_chaos.Monotime
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Model = Moard_core.Model
module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine
module Store = Moard_store.Store
module Query = Moard_store.Query

type report = {
  seed : int;
  rounds : int;
  rate : float;
  classes : string list;
  requests : int;
  identical : int;
  ok_dynamic : int;
  partial : int;
  typed_errors : (string * int) list;
  transport_failures : int;
  diverged : int;
  hung : int;
  fault_stats : (string * int * int) list;
  schedule_hash : string;
  store_quarantined : int;
  store_put_failures : int;
  pool_failed : int;
  survived : bool;
}

let to_json r =
  Jsonx.Obj
    [
      ("seed", Jsonx.Int r.seed);
      ("rounds", Jsonx.Int r.rounds);
      ("rate", Jsonx.Float r.rate);
      ("classes", Jsonx.Arr (List.map (fun c -> Jsonx.Str c) r.classes));
      ("requests", Jsonx.Int r.requests);
      ("identical", Jsonx.Int r.identical);
      ("ok_dynamic", Jsonx.Int r.ok_dynamic);
      ("partial", Jsonx.Int r.partial);
      ( "typed_errors",
        Jsonx.Obj (List.map (fun (c, n) -> (c, Jsonx.Int n)) r.typed_errors) );
      ("transport_failures", Jsonx.Int r.transport_failures);
      ("diverged", Jsonx.Int r.diverged);
      ("hung", Jsonx.Int r.hung);
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
      ("store_quarantined", Jsonx.Int r.store_quarantined);
      ("store_put_failures", Jsonx.Int r.store_put_failures);
      ("pool_failed", Jsonx.Int r.pool_failed);
      ("survived", Jsonx.Bool r.survived);
    ]

let all_classes = [ "store"; "journal"; "protocol"; "pool" ]

let scopes_of_class = function
  | "store" -> [ Chaos.Store_read; Chaos.Store_write ]
  | "journal" -> [ Chaos.Journal_read; Chaos.Journal_write ]
  | "protocol" -> [ Chaos.Sock_recv; Chaos.Sock_send ]
  | "pool" -> [ Chaos.Job ]
  | c -> invalid_arg ("Chaos_harness.run: unknown fault class " ^ c)

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

(* The client's socket timeout sits above the daemon's own request
   timeout (20 s below): the daemon always answers first, so a client
   timeout fires only on a frame the shims dropped — never because a
   compute ran long on a loaded host, which would make the retry count,
   and with it the report, depend on the machine. *)
let client_timeout_s = 25.0
let client_attempts = 4

(* Requests that never came back inside this bound count as hung — with
   socket timeouts armed on every connection this should be impossible,
   which is exactly why it is the invariant. The bound clears the longest
   legitimate retry schedule: every attempt waiting out its timeout. *)
let hang_bound_s = (float_of_int client_attempts *. client_timeout_s) +. 20.0

let run ?(seed = 7) ?(rounds = 3) ?(rate = 0.08) ?(classes = all_classes)
    ?(benchmark = "MM") ?(ci_width = 0.05) ?store_dir () =
  let e =
    match Registry.find benchmark with
    | e -> e
    | exception Not_found ->
      invalid_arg ("Chaos_harness.run: unknown benchmark " ^ benchmark)
  in
  let enabled = List.concat_map scopes_of_class classes in
  (* Fault-free baselines, computed offline before any fault can fire.
     Daemon workers analyze on fresh shards of an identical golden
     context, so under zero faults these are the exact served bytes. *)
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
      ~rates:(fun s -> if List.mem s enabled then rate else 0.)
      ~seed ()
  in
  let keep_store, store_dir =
    match store_dir with
    | Some d ->
      if not (Sys.file_exists d) then Unix.mkdir d 0o755;
      (true, d)
    | None -> (false, fresh_dir "moard-chaos-store")
  in
  let sock_dir = fresh_dir "moard-chaos-sock" in
  let socket = Filename.concat sock_dir "moardd.sock" in
  let d =
    Daemon.start
      {
        Daemon.default_config with
        Daemon.socket;
        store_dir;
        workers = 1;
        queue = 16;
        timeout_s = 20.0;
        (* an empty LRU sends every warm lookup to the (faulty) disk *)
        lru_entries = 0;
        shims = Chaos.shims chaos;
      }
  in
  let requests = ref 0
  and identical = ref 0
  and ok_dynamic = ref 0
  and partial = ref 0
  and transport = ref 0
  and diverged = ref 0
  and hung = ref 0 in
  let typed : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let issue ?baseline req =
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
            (* an honest partial report off an interrupted journal — typed
               as such in the header, not a silent wrong answer *)
            incr partial
          else if Option.value ~default:"" payload = want then incr identical
          else incr diverged)))
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
    match Daemon.stop d with () -> true | exception _ -> false
  in
  let s = Store.stat (Daemon.store d) in
  let pool_failed = Pool.failed (Daemon.pool d) in
  let survived = !diverged = 0 && !hung = 0 && stopped_cleanly in
  (try rm_rf sock_dir with Unix.Unix_error _ | Sys_error _ -> ());
  if (not keep_store) && survived then
    (try rm_rf store_dir with Unix.Unix_error _ | Sys_error _ -> ());
  {
    seed;
    rounds;
    rate;
    classes;
    requests = !requests;
    identical = !identical;
    ok_dynamic = !ok_dynamic;
    partial = !partial;
    typed_errors =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) typed []);
    transport_failures = !transport;
    diverged = !diverged;
    hung = !hung;
    fault_stats =
      List.map
        (fun (s, ops, injected) -> (Chaos.scope_name s, ops, injected))
        (Chaos.stats chaos);
    schedule_hash = Chaos.schedule_hash chaos;
    store_quarantined = s.Store.quarantined;
    store_put_failures = s.Store.put_failures;
    pool_failed;
    survived;
  }
