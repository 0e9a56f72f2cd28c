(* In-memory span recorder for the traced benchmark runs.

   A span covers one call from the benchmark into a library layer: its
   layer, a name, start and end on the monotonic clock, the span that
   caused it and the request it belongs to. Spans stay in memory until
   the run ends; [self_seconds] then gives each layer's self time (span
   duration minus the part of it covered by child spans). Recording is
   off unless [enable] was called, so untraced passes pay one branch per
   call. *)

type span = {
  id : int;
  layer : string;
  name : string;
  parent : int;  (** 0 = root *)
  req : int;  (** request id; 0 = none *)
  t0 : float;
  t1 : float;
}

let on = ref false
let lock = Mutex.create ()
let next_id = ref 0
let spans : span list ref = ref []

let enable b = on := b

let fresh_id () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

(* [run ~layer name f] calls [f id] and, when recording, keeps the span;
   [id] is the parent to pass to nested calls. *)
let run ?(parent = 0) ?(req = 0) ~layer name f =
  if not !on then f 0
  else begin
    let id = fresh_id () in
    let t0 = Moard_chaos.Monotime.now () in
    let finish () =
      let t1 = Moard_chaos.Monotime.now () in
      Mutex.lock lock;
      spans := { id; layer; name; parent; req; t0; t1 } :: !spans;
      Mutex.unlock lock
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let all () = List.rev !spans

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | None -> (total, Some (a, b))
        | Some (la, lb) ->
          if a <= lb then (total, Some (la, Float.max lb b))
          else (total +. (lb -. la), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self seconds summed per layer, in first-seen layer order. *)
let self_seconds () =
  let spans = all () in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let totals = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = s.t1 -. s.t0 -. covered s.t0 s.t1 kids in
      (match Hashtbl.find_opt totals s.layer with
       | None ->
         order := s.layer :: !order;
         Hashtbl.replace totals s.layer self
       | Some v -> Hashtbl.replace totals s.layer (v +. self)))
    spans;
  List.rev_map (fun l -> (l, Hashtbl.find totals l)) !order

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"layer\":%S,\"name\":%S,\"parent\":%d,\"req\":%d,\
         \"start\":%.9f,\"end\":%.9f}\n"
        s.id s.layer s.name s.parent s.req s.t0 s.t1)
    (all ());
  close_out oc
