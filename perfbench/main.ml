(* The MOARD benchmark: three workloads driven through the libraries'
   public functions, timed end to end and, in a separate traced run,
   layer by layer.

     main.exe run --workload W --seed N --seconds S --trace 0|1
     main.exe record

   Every workload repeats a fixed job in whole passes until [--seconds]
   of measuring time are spent, and reports medians over passes:

   - sweep-cold: cold aDVF of eight objects, one fresh golden run per
     benchmark and pass, no store. Deterministic injection does most of
     the work; the object set mixes heavy equivalence-cache users (CG/r,
     MM/C) with an object that gets no cache hits (FT/exp1).
   - campaign-ci: the statistical fault-injection campaign to a 95% /
     +-0.02 interval on MM, LULESH, BT and SP, reaching injection through
     the bit-parallel kernel and value replay, with a journal.
   - serve-zipf: an in-process daemon on a fresh store, warmed on the
     hottest half of 36 keys, serving a seeded zipf schedule to two
     closed-loop clients; hits do no model work, so this isolates the
     store tiers, the worker hand-off and the wire protocol.

   Every output is checked against a reference recorded by [record]
   (scalar-oracle aDVF, scalar campaign reports, offline payloads), and
   the deterministic counters must repeat exactly across the passes of a
   run. The last line of standard output is one JSON object with the
   counts of checked and failed operations and the metrics. *)

open Moard_kernels
open Moard_inject
open Moard_core
module Errmodel = Moard_bits.Errmodel
module Tape = Moard_trace.Tape
module Consume = Moard_trace.Consume
module Masking = Moard_analysis.Masking
module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine
module Store = Moard_store.Store
module Key = Moard_store.Key
module Record = Moard_store.Record
module Query = Moard_store.Query
module Daemon = Moard_server.Daemon
module Client = Moard_server.Client
module Jsonx = Moard_server.Jsonx
module Campaign_report = Moard_report.Campaign_report

let now = Moard_chaos.Monotime.now
let refs_dir = "perfbench/refs"
let out_dir = "perfbench/out"

(* ---------------- small utilities ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------------- checks and metrics ---------------- *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let check ok what =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    Printf.eprintf "FAIL: %s\n%!" what
  end

(* Deterministic counters of one operation must read the same in every
   pass of a run and in every run of the same build: the first sighting
   defines them, and they persist in a file keyed by the executable's
   digest, so a rebuilt program starts a fresh record. *)
let fingerprints : (string, string) Hashtbl.t = Hashtbl.create 32

let fingerprint_file () =
  Filename.concat out_dir
    ("counters-" ^ Digest.to_hex (Digest.file Sys.executable_name) ^ ".txt")

let load_fingerprints () =
  if Sys.file_exists (fingerprint_file ()) then
    read_file (fingerprint_file ()) |> String.split_on_char '\n'
    |> List.iter (fun l ->
           match String.index_opt l '\t' with
           | Some i ->
             Hashtbl.replace fingerprints (String.sub l 0 i)
               (String.sub l (i + 1) (String.length l - i - 1))
           | None -> ())

let save_fingerprints () =
  Hashtbl.fold (fun op fp acc -> (op ^ "\t" ^ fp ^ "\n") :: acc) fingerprints []
  |> List.sort compare |> String.concat "" |> write_file (fingerprint_file ())

let repeats op fp =
  match Hashtbl.find_opt fingerprints op with
  | None ->
    Hashtbl.replace fingerprints op fp;
    true
  | Some first ->
    first = fp
    || (Printf.eprintf "%s: deterministic counters drifted\n  %s\n  %s\n%!" op
          first fp;
        false)

(* One checked operation: its output matches the reference and its
   counters repeat. *)
let check_op ~op ~ok ~wrong ~fp =
  let repeated = repeats op fp in
  check (ok && repeated)
    (if ok then op ^ ": deterministic counters drifted" else op ^ ": " ^ wrong)

let end_to_end = [ ("job_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MiB") ]

let per_layer =
  [
    ("kernels.build_s", "s"); ("trace.golden_s", "s");
    ("trace.golden_steps", "count"); ("trace.sites", "count");
    ("trace.enumerate_s", "s"); ("core.analyze_s", "s");
    ("core.patterns", "count"); ("core.op_share", "ratio");
    ("core.prop_share", "ratio"); ("core.fi_share", "ratio");
    ("core.verdict_hit_share", "ratio"); ("analysis.masking_s", "s");
    ("analysis.scan_executions", "count"); ("analysis.analytic_share", "ratio");
    ("inject.runs", "count"); ("inject.cache_hits", "count");
    ("inject.cache_hit_ratio", "ratio"); ("inject.steps", "count");
    ("inject.steps_per_run", "count"); ("inject.golden_executions", "count");
    ("campaign.samples", "count"); ("campaign.runs", "count");
    ("campaign.cache_hits", "count"); ("campaign.inject_s", "s");
    ("campaign.inject_share", "ratio"); ("campaign.journal_bytes", "bytes");
    ("store.mem_hits", "count"); ("store.disk_hits", "count");
    ("store.misses", "count"); ("store.puts", "count");
    ("store.lru_evictions", "count"); ("store.get_mem_us", "us");
    ("store.get_disk_us", "us"); ("store.put_us", "us");
    ("store.query_hit_us", "us"); ("server.connect_ms", "ms");
    ("server.hit_p50_ms", "ms"); ("server.hit_p99_ms", "ms");
    ("server.miss_p50_ms", "ms"); ("server.qps", "1/s");
    ("server.hit_samples", "count"); ("server.miss_samples", "count");
    ("server.hit_overhead_ms", "ms"); ("server.pool_executed", "count");
    ("server.pool_rejected", "count"); ("server.coalesced", "count");
    ("server.errors", "count"); ("self.bench_s", "s"); ("self.kernels_s", "s");
    ("self.trace_s", "s"); ("self.core_s", "s"); ("self.analysis_s", "s");
    ("self.campaign_s", "s"); ("self.store_s", "s"); ("self.server_s", "s");
    ("bench.passes", "count"); ("bench.job_untraced_s", "s");
    ("bench.job_traced_s", "s"); ("bench.trace_overhead_share", "ratio");
    ("bench.op_p50_untraced_ms", "ms"); ("bench.op_p50_traced_ms", "ms");
  ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v
let get name = Option.value ~default:0.0 (Hashtbl.find_opt values name)
let seti name v = set name (float_of_int v)

(* ---------------- passes ---------------- *)

type sample = { traced : bool; v : float }

let job_samples = ref []
let op_samples = ref []
let setup_samples = ref []
let hit_samples = ref []
let miss_samples = ref []
let build_samples = ref []
let golden_samples = ref []
let mu = Mutex.create ()

let record r traced v =
  Mutex.lock mu;
  r := { traced; v } :: !r;
  Mutex.unlock mu

let values_of ?traced r =
  List.filter_map
    (fun s ->
      match traced with
      | Some t when t <> s.traced -> None
      | _ -> Some s.v)
    !r

(* [job_s]: the median pass of the given kind. *)
let job_seconds ~traced = median (values_of ~traced job_samples)

(* Peak resident set of the set-up repetitions and the first pass: how
   many passes fit depends on the host's speed, and the heap keeps what
   later passes add. *)
let peak_rss_mb () =
  read_file "/proc/self/status" |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> Option.get |> float |> fun kb -> kb /. 1024.0

external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external set_cpus : int list -> bool = "perfbench_set_cpus"

(* Whole passes while the next one, taken to last as long as the one
   before, still ends within [seconds]; at least one. A traced run
   alternates untraced and traced passes (at least one of each) so the
   tracing overhead is measured within the run; on odd seeds the traced
   pass comes first, so pass order does not bias the overhead.

   With [rotate], each pass (each pair of passes in a traced run) runs
   pinned to the next of the CPUs the process may use: other tenants
   slow one CPU of this host at a time, for up to a minute, so a run
   that stayed on one CPU measured mostly that CPU's neighbours. *)
let run_passes ?(rotate = false) ~seed ~seconds ~trace pass =
  let t0 = now () in
  let first = seed land 1 in
  let cpus = Array.of_list (allowed_cpus ()) in
  let pin i =
    if rotate && Array.length cpus > 1 then
      ignore (set_cpus [ cpus.((if trace then i / 2 else i) mod Array.length cpus) ])
  in
  let rec go i last =
    let elapsed = now () -. t0 in
    if i < (if trace then 2 else 1) || elapsed +. last <= seconds then begin
      let traced = trace && (i + first) mod 2 = 1 in
      pin i;
      Span.enable traced;
      pass ~traced i;
      Span.enable false;
      if rotate then ignore (set_cpus (Array.to_list cpus));
      if i = 0 then set "peak_rss_mb" (peak_rss_mb ());
      go (i + 1) (now () -. t0 -. elapsed)
    end
    else i
  in
  go 0 0.0

(* Set-up of one pass, summed over its benchmarks: workload build, golden
   run, and whatever else the workload prepares before its timed job. *)
type setup = {
  mutable build_s : float;
  mutable golden_s : float;
  mutable other_s : float;
  mutable golden_steps : int;
  mutable goldens : int;  (** golden executions *)
}

let new_setup () =
  { build_s = 0.0; golden_s = 0.0; other_s = 0.0; golden_steps = 0; goldens = 0 }

let setup_bench ?(parent = 0) acc ((e : Registry.entry), size) =
  let t0 = now () in
  let wl =
    Span.run ~parent ~layer:"kernels" ("build " ^ e.Registry.benchmark)
      (fun _ -> e.Registry.workload_at size)
  in
  let t1 = now () and g0 = Context.golden_executions () in
  let ctx =
    Span.run ~parent ~layer:"trace" ("golden " ^ e.Registry.benchmark)
      (fun _ -> Context.make wl)
  in
  acc.goldens <- acc.goldens + Context.golden_executions () - g0;
  acc.build_s <- acc.build_s +. (t1 -. t0);
  acc.golden_s <- acc.golden_s +. (now () -. t1);
  acc.golden_steps <- acc.golden_steps + Context.golden_steps ctx;
  (wl, ctx)

let finish_setup ~traced acc =
  record build_samples traced acc.build_s;
  record golden_samples traced acc.golden_s;
  record setup_samples traced (acc.build_s +. acc.golden_s +. acc.other_s);
  seti "trace.golden_steps" acc.golden_steps

(* Set-up-only repetitions, so [setup_s] is a median over enough samples
   although a sweep-cold or campaign-ci pass sets up once. On a shared
   host the speed of a set-up switches between regimes about 1.6x apart
   that last a second or so: repetitions only before the passes gave a
   bimodal [setup_s] across runs. So they run before the passes and
   between the benchmarks of a pass, outside its timed calls, to sample
   the host across the whole run; a full major collection after them
   drops their garbage, so the timed calls do not pay for it. *)
let repeat_setup n prepare =
  for _ = 1 to n do
    let acc = new_setup () in
    prepare acc;
    finish_setup ~traced:false acc
  done;
  Gc.full_major ()

(* ---------------- layer probes (traced runs only) ---------------- *)

(* Site enumeration over the workload's own objects and, where the
   workload reaches them, the masking kernel (sweep-cold) and the analytic
   share of the batched resolver (campaign-ci). *)
let probe_sites ?(masking = false) ?(analytic = false) objects =
  let sites = ref 0 and enum = ref 0.0 and mask = ref 0.0 in
  let decided = ref 0 and total = ref 0 in
  Span.run ~layer:"bench" "probe-sites" @@ fun root ->
  List.iter
    (fun (ctx, obj) ->
      let t = now () in
      let ss =
        Span.run ~parent:root ~layer:"trace" ("enumerate " ^ obj) (fun _ ->
            Consume.of_tape ~segment:(Context.segment ctx) (Context.tape ctx)
              (Context.object_of ctx obj))
      in
      enum := !enum +. (now () -. t);
      sites := !sites + List.length ss;
      if masking then begin
        let tape = Context.tape ctx in
        let t = now () in
        Span.run ~parent:root ~layer:"analysis" ("masking " ^ obj) (fun _ ->
            List.iter
              (fun (s : Consume.t) ->
                ignore
                  (Masking.analyze_all (Tape.get tape s.Consume.event_idx)
                     s.Consume.kind))
              ss);
        mask := !mask +. (now () -. t)
      end;
      if analytic then
        Span.run ~parent:root ~layer:"analysis" ("analytic " ^ obj) (fun _ ->
            List.iter
              (fun s ->
                let a, n = Resolve.analytic_bits ctx s in
                decided := !decided + a;
                total := !total + n)
              ss))
    objects;
  seti "trace.sites" !sites;
  set "trace.enumerate_s" !enum;
  set "analysis.masking_s" !mask;
  set "analysis.analytic_share" (ratio (float !decided) (float !total))

(* Direct store calls on a scratch handle over the served keys and
   payloads, plus one warm [Query] lookup (serve-zipf only). *)
let probe_store items ~query_hit =
  let dir = Filename.concat out_dir "probe-store" in
  Span.run ~layer:"bench" "probe-store" @@ fun root ->
  rm_rf dir;
  let st = Store.open_store ~dir () in
  let timed f =
    let t = now () in
    f ();
    (now () -. t) *. 1e6
  in
  let puts = ref [] and mems = ref [] and disks = ref [] in
  Span.run ~parent:root ~layer:"store" "put" (fun _ ->
      for _ = 1 to 5 do
        List.iter
          (fun (key, kind, payload) ->
            puts := timed (fun () -> Store.put st ~key ~kind payload) :: !puts)
          items
      done);
  let get_from st want acc =
    List.iter
      (fun (key, kind, payload) ->
        let found = ref None in
        let us = timed (fun () -> found := Store.get st ~key ~kind) in
        check (!found = Some (payload, want)) "store probe: read-back";
        acc := us :: !acc)
      items
  in
  Span.run ~parent:root ~layer:"store" "get-memory" (fun _ ->
      for _ = 1 to 20 do get_from st Store.Memory mems done);
  (* an LRU of one entry cycling over every key reads each from disk *)
  let cold = Store.open_store ~lru_entries:1 ~dir () in
  Span.run ~parent:root ~layer:"store" "get-disk" (fun _ ->
      for _ = 1 to 5 do get_from cold Store.Disk disks done);
  let q =
    Span.run ~parent:root ~layer:"store" "query-hit" (fun _ ->
        List.init 50 (fun _ -> timed (fun () -> query_hit st)))
  in
  set "store.put_us" (median !puts);
  set "store.get_mem_us" (median !mems);
  set "store.get_disk_us" (median !disks);
  set "store.query_hit_us" (median q);
  rm_rf dir

let no_ctx () = failwith "warm query must not need a golden run"

(* ---------------- sweep-cold ---------------- *)

let sweep_set =
  [ ("CG", [ "r"; "colidx" ]); ("FT", [ "exp1" ]);
    ("BT", [ "grid_points" ]); ("MM", [ "C" ]);
    ("LULESH", [ "m_elemBC"; "m_delv_zeta" ]); ("AMG", [ "ipiv" ]) ]

let smallest b =
  let e = Registry.find b in
  (e, e.Registry.sizes.(0))

let sweep_ref_path = Filename.concat refs_dir "sweep-cold.txt"

let load_sweep_refs () =
  read_file sweep_ref_path |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ op; hex ] -> Some (op, hex)
         | _ -> None)

(* The sweep is a fixed input set: [seed] only orders the passes of a
   traced run. *)
let sweep ~seed ~seconds ~trace =
  let refs = load_sweep_refs () in
  let setup_all acc =
    List.iter (fun (b, _) -> ignore (setup_bench acc (smallest b))) sweep_set
  in
  repeat_setup 4 setup_all;
  (* totals of the last traced pass *)
  let totals = Hashtbl.create 16 in
  let pass ~traced _ =
    Span.run ~layer:"bench" "sweep-pass" @@ fun root ->
    let acc = new_setup () and job = ref 0.0 in
    let local = Hashtbl.create 16 in
    let add k v =
      Hashtbl.replace local k
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt local k))
    in
    List.iter
      (fun (b, objs) ->
        let _, ctx = setup_bench ~parent:root acc (smallest b) in
        List.iter
          (fun o ->
            let op = b ^ "/" ^ o in
            let r0 = Context.runs ctx and h0 = Context.cache_hits ctx in
            let s0 = Context.inject_steps ctx in
            let g0 = Context.golden_executions () in
            let t = now () in
            let r =
              Span.run ~parent:root ~layer:"core" ("analyze " ^ op) (fun _ ->
                  Model.analyze ctx ~object_name:o)
            in
            let dt = now () -. t in
            job := !job +. dt;
            record op_samples traced (dt *. 1e3);
            let runs = Context.runs ctx - r0 and hits = Context.cache_hits ctx - h0 in
            let steps = Context.inject_steps ctx - s0 in
            let hex = Printf.sprintf "%h" r.Advf.advf in
            check_op ~op
              ~ok:(List.assoc_opt op refs = Some hex)
              ~wrong:
                (Printf.sprintf "aDVF %s, scalar oracle %s" hex
                   (Option.value ~default:"(none)" (List.assoc_opt op refs)))
              ~fp:(Printf.sprintf
                 "runs=%d hits=%d steps=%d patterns=%d op=%d prop=%d fi=%d \
                  unresolved=%d verdict=%d"
                 runs hits steps r.Advf.patterns_analyzed r.Advf.op_resolved
                 r.Advf.prop_resolved r.Advf.fi_resolved r.Advf.unresolved
                 r.Advf.verdict_cache_hits);
            add "core.analyze_s" dt;
            add "core.patterns" (float r.Advf.patterns_analyzed);
            add "op" (float r.Advf.op_resolved);
            add "prop" (float r.Advf.prop_resolved);
            add "fi" (float r.Advf.fi_resolved);
            add "verdict" (float r.Advf.verdict_cache_hits);
            add "inject.runs" (float runs);
            add "inject.cache_hits" (float hits);
            add "inject.steps" (float steps);
            add "inject.golden_executions"
              (float (Context.golden_executions () - g0)))
          objs;
        repeat_setup 2 setup_all)
      sweep_set;
    finish_setup ~traced acc;
    record job_samples traced !job;
    add "inject.golden_executions" (float acc.goldens);
    if traced then begin
      Hashtbl.reset totals;
      Hashtbl.iter (Hashtbl.replace totals) local
    end
  in
  let passes = run_passes ~rotate:true ~seed ~seconds ~trace pass in
  Span.enable trace;
  if trace then begin
    (* the counters repeat across passes (checked), so the last traced
       pass stands for all *)
    let tot k = Option.value ~default:0.0 (Hashtbl.find_opt totals k) in
    List.iter (fun k -> set k (tot k))
      [ "core.analyze_s"; "core.patterns"; "inject.runs"; "inject.cache_hits";
        "inject.steps"; "inject.golden_executions" ];
    let patterns = tot "core.patterns" in
    set "core.op_share" (ratio (tot "op") patterns);
    set "core.prop_share" (ratio (tot "prop") patterns);
    set "core.fi_share" (ratio (tot "fi") patterns);
    set "core.verdict_hit_share" (ratio (tot "verdict") patterns);
    let runs = tot "inject.runs" and hits = tot "inject.cache_hits" in
    set "inject.cache_hit_ratio" (ratio hits (runs +. hits));
    set "inject.steps_per_run" (ratio (tot "inject.steps") runs);
    let acc = new_setup () in
    probe_sites ~masking:true
      (List.concat_map
         (fun (b, objs) ->
           let _, ctx = setup_bench acc (smallest b) in
           List.map (fun o -> (ctx, o)) objs)
         sweep_set)
  end;
  passes

(* ---------------- campaign-ci ---------------- *)

let campaign_set = [ "MM"; "LULESH"; "BT"; "SP" ]

(* Plan seeds with recorded scalar references; the benchmark seed picks
   one, so every run is checked against its reference. *)
let campaign_seeds = [| 42; 43; 44; 45 |]

let plan_seed seed =
  let n = Array.length campaign_seeds in
  campaign_seeds.(((seed mod n) + n) mod n)

let campaign_ref seed b =
  Filename.concat refs_dir (Printf.sprintf "campaign/%d/%s.json" seed b)

let default_size b =
  let e = Registry.find b in
  (e, e.Registry.default_size)

let campaign ~seed ~seconds ~trace =
  let pseed = plan_seed seed in
  let refs = List.map (fun b -> (b, read_file (campaign_ref pseed b))) campaign_set in
  let prepare ?(parent = 0) acc b =
    let ((e : Registry.entry), _) as bench = default_size b in
    let _, ctx = setup_bench ~parent acc bench in
    let t = now () in
    let plan =
      Span.run ~parent ~layer:"campaign" ("plan " ^ b) (fun _ ->
          Plan.make ~seed:pseed ctx ~objects:e.Registry.objects)
    in
    acc.other_s <- acc.other_s +. (now () -. t);
    (ctx, plan)
  in
  let setup_all acc = List.iter (fun b -> ignore (prepare acc b)) campaign_set in
  repeat_setup 4 setup_all;
  let jdir = Filename.concat out_dir "journals" in
  let stats = ref (0, 0, 0, 0.0, 0.0, 0, 0) in
  let pass ~traced _ =
    Span.run ~layer:"bench" "campaign-pass" @@ fun root ->
    rm_rf jdir;
    mkdir_p jdir;
    let acc = new_setup () and job = ref 0.0 in
    let samples = ref 0 and runs = ref 0 and hits = ref 0 in
    let inject_s = ref 0.0 and wall_s = ref 0.0 and jbytes = ref 0 in
    let goldens = ref 0 in
    List.iter
      (fun b ->
        let ctx, plan = prepare ~parent:root acc b in
        let journal = Filename.concat jdir (b ^ ".journal") in
        let t = now () and g0 = Context.golden_executions () in
        let r =
          Span.run ~parent:root ~layer:"campaign" ("run " ^ b) (fun _ ->
              Engine.run ~domains:1 ~journal ctx plan)
        in
        goldens := !goldens + Context.golden_executions () - g0;
        let dt = now () -. t in
        job := !job +. dt;
        record op_samples traced (dt *. 1e3);
        jbytes := !jbytes + (Unix.stat journal).Unix.st_size;
        let json = Campaign_report.stable_json r in
        check_op
          ~op:(Printf.sprintf "%s seed %d" b pseed)
          ~ok:(List.assoc b refs = json)
          ~wrong:"campaign report differs from the scalar reference"
          ~fp:(Digest.to_hex (Digest.string json));
        Array.iter
          (fun (o : Engine.object_result) ->
            samples := !samples + o.Engine.samples;
            runs := !runs + o.Engine.runs;
            hits := !hits + o.Engine.cache_hits)
          r.Engine.objects;
        inject_s := !inject_s +. r.Engine.perf.Engine.inject_seconds;
        wall_s := !wall_s +. r.Engine.perf.Engine.wall_seconds;
        repeat_setup 2 setup_all)
      campaign_set;
    rm_rf jdir;
    finish_setup ~traced acc;
    record job_samples traced !job;
    if traced then
      stats :=
        (!samples, !runs, !hits, !inject_s, !wall_s, !jbytes, !goldens + acc.goldens)
  in
  let passes = run_passes ~rotate:true ~seed ~seconds ~trace pass in
  Span.enable trace;
  if trace then begin
    let samples, runs, hits, inject_s, wall_s, jbytes, goldens = !stats in
    seti "campaign.samples" samples;
    seti "campaign.runs" runs;
    seti "campaign.cache_hits" hits;
    set "campaign.inject_s" inject_s;
    set "campaign.inject_share" (ratio inject_s wall_s);
    seti "campaign.journal_bytes" jbytes;
    seti "inject.golden_executions" goldens;
    let acc = new_setup () in
    probe_sites ~analytic:true
      (List.concat_map
         (fun b ->
           let ((e : Registry.entry), _) as bench = default_size b in
           let _, ctx = setup_bench acc bench in
           List.map (fun o -> (ctx, o)) e.Registry.objects)
         campaign_set)
  end;
  passes

(* ---------------- serve-zipf ---------------- *)

let serve_objects = [ ("LULESH", "m_elemBC"); ("AMG", "ipiv"); ("CG", "colidx") ]
let serve_ks = [ 10; 25; 50 ]

type key = { bench : string; obj : string; model : Errmodel.t; k : int }

(* Popularity order: the hot half (warmed in set-up) and the cold half
   each hold every object, every error model and every k, so the
   expensive CG/colidx single- and double-bit keys split evenly between
   warming and first-touch misses. *)
let serve_keys =
  let all =
    List.concat_map
      (fun (bench, obj) ->
        List.concat
          (List.mapi
             (fun mi model ->
               List.mapi (fun ki k -> ((mi + ki) mod 2, { bench; obj; model; k }))
                 serve_ks)
             Errmodel.all))
      serve_objects
  in
  Array.of_list
    (List.map snd (List.filter (fun (h, _) -> h = 0) all)
    @ List.map snd (List.filter (fun (h, _) -> h = 1) all))

let nkeys = Array.length serve_keys
let hot = nkeys / 2
let requests_per_client = 1000
let lru_entries = 12

let key_name k =
  Printf.sprintf "%s-%s-%s-k%d" k.bench k.obj (Errmodel.to_string k.model) k.k

let serve_ref k = Filename.concat refs_dir ("serve-zipf/" ^ key_name k ^ ".json")

let serve_options k =
  { Model.default_options with Model.k = k.k; model = k.model }

let advf_request k =
  Jsonx.Obj
    [ ("op", Jsonx.Str "advf"); ("benchmark", Jsonx.Str k.bench);
      ("object", Jsonx.Str k.obj); ("k", Jsonx.Int k.k);
      ("error_model", Jsonx.Str (Errmodel.to_string k.model)) ]

(* Zipf (s = 1) draws over key ranks, per client. *)
let schedule seed =
  let st = Random.State.make [| 0x5e7e; seed |] in
  let w = Array.init nkeys (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let draw () =
    let x = Random.State.float st total in
    let rec go i acc =
      if i = nkeys - 1 || acc +. w.(i) > x then i else go (i + 1) (acc +. w.(i))
    in
    go 0 0.0
  in
  Array.init 2 (fun _ -> Array.init requests_per_client (fun _ -> draw ()))

let jget path h =
  List.fold_left (fun v k -> Option.bind v (Jsonx.member k)) (Some h) path

let stat_int h path = Option.value ~default:0 (Jsonx.int (jget path h))

let stat_counters =
  [ ("store.mem_hits", [ "store"; "mem_hits" ]);
    ("store.disk_hits", [ "store"; "disk_hits" ]);
    ("store.misses", [ "store"; "misses" ]); ("store.puts", [ "store"; "puts" ]);
    ("store.lru_evictions", [ "store"; "lru_evictions" ]);
    ("server.pool_executed", [ "pool"; "executed" ]);
    ("server.pool_rejected", [ "pool"; "rejected" ]);
    ("server.coalesced", [ "coalesced" ]); ("server.errors", [ "errors" ]) ]

let serve ~seed ~seconds ~trace =
  let refs = Array.map (fun k -> read_file (serve_ref k)) serve_keys in
  let sched = schedule seed in
  let stat_deltas = ref [] and connects = ref [] and qps = ref [] in
  let tmp = Filename.concat out_dir "serve" in
  (* One checked request: a dropped or reset connection, a typed error
     or a payload that differs from the offline one is a failed
     operation. Returns the daemon's [served] tag and the latency. *)
  let ask ?(parent = 0) ~req socket i =
    let name = key_name serve_keys.(i) in
    let t = now () in
    let reply =
      try
        Ok
          (Span.run ~parent ~req ~layer:"server" ("advf " ^ name) (fun _ ->
               Client.rpc ~socket (advf_request serve_keys.(i))))
      with e -> Error (Printexc.to_string e)
    in
    let dt = (now () -. t) *. 1e3 in
    match reply with
    | Error e ->
      check false (name ^ ": " ^ e);
      ("failed", dt)
    | Ok (h, p) ->
      (match Client.error_of h with
       | Some (code, msg) -> check false (Printf.sprintf "%s: %s: %s" name code msg)
       | None -> check (p = Some refs.(i)) (name ^ ": payload differs from the offline payload"));
      (Option.value ~default:"?" (Jsonx.str (Jsonx.member "served" h)), dt)
  in
  let pass ~traced i =
    Span.run ~layer:"bench" "serve-pass" @@ fun root ->
    let dir = Filename.concat tmp (string_of_int i) in
    rm_rf dir;
    mkdir_p dir;
    (* a relative socket path keeps it under the Unix socket length limit *)
    let socket = Filename.concat dir "d.sock" in
    let t = now () in
    let d =
      Span.run ~parent:root ~layer:"server" "daemon-start" (fun _ ->
          Daemon.start
            { Daemon.default_config with
              Daemon.socket; store_dir = Filename.concat dir "store";
              workers = 1; lru_entries; timeout_s = 120.0 })
    in
    Fun.protect ~finally:(fun () ->
        Span.run ~parent:root ~layer:"server" "daemon-stop" (fun _ -> Daemon.stop d);
        rm_rf dir)
    @@ fun () ->
    for j = 0 to hot - 1 do ignore (ask ~parent:root ~req:0 socket j) done;
    record setup_samples traced (now () -. t);
    let stat () = fst (Client.rpc ~socket (Jsonx.Obj [ ("op", Jsonx.Str "stat") ])) in
    let s0 = stat () in
    let t = now () and sent = Atomic.make 0 in
    let client c =
      try
        Array.iteri
          (fun n j ->
            let served, ms = ask ~parent:root ~req:((c * requests_per_client) + n + 1) socket j in
            Atomic.incr sent;
            record op_samples traced ms;
            match served with
            | "memory-hit" | "disk-hit" -> record hit_samples traced ms
            | "computed" -> record miss_samples traced ms
            | _ -> ())
          sched.(c)
      with e -> Printf.eprintf "serve client %d: %s\n%!" c (Printexc.to_string e)
    in
    let th = Array.init 2 (fun c -> Thread.create client c) in
    Array.iter Thread.join th;
    let job = now () -. t in
    (* a request a dead client thread never sent is a failed one too *)
    for _ = Atomic.get sent + 1 to 2 * requests_per_client do
      check false "serve: request never sent"
    done;
    record job_samples traced job;
    if traced then begin
      let s1 = stat () in
      stat_deltas :=
        List.map (fun (name, path) -> (name, stat_int s1 path - stat_int s0 path))
          stat_counters
        :: !stat_deltas;
      qps := (float (2 * requests_per_client) /. job) :: !qps;
      connects :=
        Span.run ~parent:root ~layer:"server" "connect" (fun _ ->
            List.init 50 (fun _ ->
                let t = now () in
                Client.close (Client.connect ~socket ());
                (now () -. t) *. 1e3))
        @ !connects
    end
  in
  let passes = run_passes ~seed ~seconds ~trace pass in
  Span.enable trace;
  if trace then begin
    List.iter
      (fun (name, _) ->
        set name (median (List.map (fun d -> float (List.assoc name d)) !stat_deltas)))
      stat_counters;
    let hits = values_of ~traced:true hit_samples
    and misses = values_of ~traced:true miss_samples in
    set "server.hit_p50_ms" (median hits);
    set "server.hit_p99_ms" (quantile 0.99 hits);
    set "server.miss_p50_ms" (median misses);
    seti "server.hit_samples" (List.length hits);
    seti "server.miss_samples" (List.length misses);
    set "server.qps" (median !qps);
    set "server.connect_ms" (median !connects);
    (* the same layers the daemon drives, probed offline on its inputs *)
    let acc = new_setup () in
    let built =
      List.map
        (fun (b, o) ->
          let (wl : Workload.t), ctx = setup_bench acc (default_size b) in
          (b, (wl.Workload.program, ctx, o)))
        serve_objects
    in
    set "kernels.build_s" acc.build_s;
    set "trace.golden_s" acc.golden_s;
    seti "trace.golden_steps" acc.golden_steps;
    probe_sites (List.map (fun (_, (_, ctx, o)) -> (ctx, o)) built);
    let program b =
      let p, _, _ = List.assoc b built in
      p
    in
    let items =
      Array.to_list
        (Array.mapi
           (fun i k ->
             ( Key.advf ~program:(program k.bench) ~object_name:k.obj
                 ~options:(serve_options k),
               Record.Advf, refs.(i) ))
           serve_keys)
    in
    let k0 = serve_keys.(0) in
    probe_store items
      ~query_hit:(fun st ->
        ignore
          (Query.advf st ~options:(serve_options k0) ~ctx:no_ctx
             ~program:(program k0.bench) ~object_name:k0.obj ()));
    set "server.hit_overhead_ms"
      (get "server.hit_p50_ms" -. (get "store.query_hit_us" /. 1e3))
  end;
  rm_rf tmp;
  passes

(* ---------------- record ---------------- *)

let record_refs () =
  let scalar = { Model.default_options with Model.batch = false } in
  let lines =
    List.concat_map
      (fun (b, objs) ->
        let e, size = smallest b in
        let ctx = Context.make (e.Registry.workload_at size) in
        List.map
          (fun o ->
            let r = Model.analyze ~options:scalar ctx ~object_name:o in
            Printf.printf "sweep-cold %s/%s %h\n%!" b o r.Advf.advf;
            Printf.sprintf "%s/%s %h\n" b o r.Advf.advf)
          objs)
      sweep_set
  in
  write_file sweep_ref_path (String.concat "" lines);
  Array.iter
    (fun seed ->
      mkdir_p (Filename.dirname (campaign_ref seed "x"));
      List.iter
        (fun b ->
          let e = Registry.find b in
          let ctx = Context.make (e.Registry.workload ()) in
          let plan = Plan.make ~seed ctx ~objects:e.Registry.objects in
          write_file (campaign_ref seed b)
            (Campaign_report.stable_json (Engine.run ~batch:false ctx plan));
          Printf.printf "campaign-ci %d %s\n%!" seed b)
        campaign_set)
    campaign_seeds;
  mkdir_p (Filename.dirname (serve_ref serve_keys.(0)));
  let ctxs = List.map (fun (b, _) -> (b, Context.make ((Registry.find b).Registry.workload ()))) serve_objects in
  Array.iter
    (fun k ->
      let options = { (serve_options k) with Model.batch = false } in
      write_file (serve_ref k)
        (Query.advf_payload ~options (List.assoc k.bench ctxs) ~object_name:k.obj);
      Printf.printf "serve-zipf %s\n%!" (key_name k))
    serve_keys

(* ---------------- output ---------------- *)

(* The headline metrics under their per-workload names, with the sample
   counts behind each median and percentile, and the host. *)
let print_report ~workload ~seed ~passes =
  let line name unit v = Printf.printf "%-12s %14.6f %s\n" name v unit in
  let na name = Printf.printf "%-12s %14s\n" name "n/a" in
  let job = values_of ~traced:false job_samples in
  Printf.printf "# %s seed %d, %d passes (%d untraced), nproc %d, OCaml %s, commit %s\n"
    workload seed passes (List.length job) (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "MOARD_BENCH_COMMIT"));
  let median_of = Printf.sprintf "s (median of %d passes)" (List.length job) in
  (if workload = "sweep-cold" then line "sweep_s" median_of (median job) else na "sweep_s");
  (if workload = "campaign-ci" then line "campaign_s" median_of (median job)
   else na "campaign_s");
  if workload = "serve-zipf" then begin
    let hits = values_of ~traced:false hit_samples
    and misses = values_of ~traced:false miss_samples in
    line "hit_p50_ms" "ms" (median hits);
    line "hit_p99_ms" (Printf.sprintf "ms (%d hits)" (List.length hits))
      (quantile 0.99 hits);
    line "miss_p50_ms" (Printf.sprintf "ms (%d misses)" (List.length misses))
      (median misses);
    line "serve_qps" "req/s" (float (2 * requests_per_client) /. median job)
  end
  else List.iter na [ "hit_p50_ms"; "hit_p99_ms"; "miss_p50_ms"; "serve_qps" ];
  line "setup_s" (Printf.sprintf "s (%d set-ups)" (List.length (values_of setup_samples)))
    (get "setup_s");
  line "peak_rss_mb" "MiB" (get "peak_rss_mb");
  let a = Atomic.get attempted and f = Atomic.get failed in
  line "failed_frac" (Printf.sprintf "ratio (%d of %d)" f a) (ratio (float f) (float a));
  let per_pass traced =
    String.concat " " (List.map (Printf.sprintf "%.4f") (List.rev (values_of ~traced job_samples)))
  in
  Printf.printf "job_s per untraced pass: %s\n" (per_pass false);
  if values_of ~traced:true job_samples <> [] then begin
    (* one or a few passes of each kind: read the overhead against the
       pass-to-pass spread of the samples it comes from *)
    let untraced = job_seconds ~traced:false and traced = job_seconds ~traced:true in
    Printf.printf "job_s per traced pass:   %s\n" (per_pass true);
    Printf.printf "tracing overhead: %+.4f s on a base of %.4f s untraced (%+.1f%%), %s pass first\n"
      (traced -. untraced) untraced
      (100.0 *. ratio (traced -. untraced) untraced)
      (if seed land 1 = 1 then "traced" else "untraced")
  end;
  flush stdout

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "a metric has no samples"

let print_result ~trace =
  let metrics = if trace then per_layer else end_to_end in
  let body =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num (get name)) unit)
      metrics
  in
  let a = Atomic.get attempted and f = Atomic.get failed in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (a > 0 && f = 0) a f (String.concat ", " body)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 40.0 and trace = ref 0 in
  let mode = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME sweep-cold | campaign-ci | serve-zipf");
      ("--seed", Arg.Set_int seed, "N campaign plan / request schedule seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run (default 40)");
      ("--trace", Arg.Set_int trace, "0|1 record spans and per-layer metrics") ]
    (fun m -> mode := m)
    "main.exe (run --workload W --seed N --seconds S --trace 0|1 | record)";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match !mode with
  | "record" -> record_refs ()
  | "run" ->
    let trace = !trace = 1 in
    mkdir_p out_dir;
    let scan0 = Masking.scan_executions () in
    load_fingerprints ();
    let run =
      match !workload with
      | "sweep-cold" -> sweep
      | "campaign-ci" -> campaign
      | "serve-zipf" -> serve
      | w -> raise (Arg.Bad ("unknown workload " ^ w))
    in
    let passes = run ~seed:!seed ~seconds:!seconds ~trace in
    save_fingerprints ();
    set "job_s" (job_seconds ~traced:false);
    set "setup_s" (median (values_of setup_samples));
    seti "bench.passes" passes;
    if trace then begin
      if !build_samples <> [] then begin
        set "kernels.build_s" (median (values_of build_samples));
        set "trace.golden_s" (median (values_of golden_samples))
      end;
      seti "analysis.scan_executions" (Masking.scan_executions () - scan0);
      let untraced = job_seconds ~traced:false and traced = job_seconds ~traced:true in
      set "bench.job_untraced_s" untraced;
      set "bench.job_traced_s" traced;
      set "bench.trace_overhead_share" (ratio (traced -. untraced) untraced);
      set "bench.op_p50_untraced_ms" (median (values_of ~traced:false op_samples));
      set "bench.op_p50_traced_ms" (median (values_of ~traced:true op_samples));
      List.iter (fun (layer, s) -> set ("self." ^ layer ^ "_s") s) (Span.self_seconds ());
      Span.write_jsonl
        (Filename.concat out_dir
           (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
    end;
    print_report ~workload:!workload ~seed:!seed ~passes;
    print_result ~trace
  | _ -> prerr_endline "usage: main.exe run ... | main.exe record"; exit 2
