module Bitval = Moard_bits.Bitval
module Pattern = Moard_bits.Pattern
module I = Moard_ir.Instr
module T = Moard_ir.Types
module P = Moard_ir.Program
module Iid = Moard_ir.Iid
module Event = Moard_trace.Event

(* ------------------------------------------------------------------ *)
(* Decoded program                                                     *)

(* The step loop never looks at a name. [load] resolves every global
   operand to its address constant and every call target to what it
   calls, and builds each instruction's identity once. Runtime checks
   that depend on the executing state (call depth, arity, bounds, step
   limit) stay in the loop. *)

type operand =
  | Reg of int
  | Const of Bitval.t (* an immediate, or a global's resolved address *)

type callee =
  | Not_a_call
  | Fun of dfunc
  | Hart_id
  | Hart_count
  | Barrier
  | Math of { arity : int; f : float array -> float }

and dinstr = {
  src : I.t;            (* the source instruction, for the trace *)
  iid : Iid.t;
  ops : operand array;  (* [I.reads src], in slot order *)
  callee : callee;
}

and dfunc = {
  name : string;
  nparams : int;
  nregs : int;
  code : dinstr array array; (* blocks of decoded instructions *)
}

type t = {
  prog : P.t;
  bases : (string, int) Hashtbl.t;
  image : Memory.t;
  funcs : dfunc array;  (* program order, so lookup finds what [P.func] does *)
  max_slots : int;      (* widest operand list of any instruction *)
}

type outcome =
  | Finished of Bitval.t option
  | Trapped of Trap.t

type run = {
  outcome : outcome;
  mem : Memory.t;
  steps : int;
}

let align8 n = (n + 7) land lnot 7

let init_global mem base (g : P.global) =
  let sz = T.size g.gty in
  let store i v = Memory.store_exn mem g.gty (base + (i * sz)) v in
  match g.ginit with
  | P.Zeros -> ()
  | P.Floats a ->
    if Array.length a <> g.gelems then
      invalid_arg ("Machine.load: init size mismatch for " ^ g.gname);
    Array.iteri (fun i f -> store i (Bitval.of_float f)) a
  | P.I64s a ->
    if Array.length a <> g.gelems then
      invalid_arg ("Machine.load: init size mismatch for " ^ g.gname);
    Array.iteri (fun i x -> store i (Bitval.of_int64 x)) a
  | P.I32s a ->
    if Array.length a <> g.gelems then
      invalid_arg ("Machine.load: init size mismatch for " ^ g.gname);
    Array.iteri (fun i x -> store i (Bitval.of_int32 x)) a

let find_func funcs name =
  Array.find_opt (fun f -> String.equal f.name name) funcs

(* Two passes: every function's blocks are allocated first, so a call can
   point at its callee (recursion included) before that callee's code is
   decoded. Nothing is written after [decode] returns. *)
let decode (prog : P.t) bases =
  let stub =
    { src = I.Br 0; iid = Iid.make ~fn:"" ~blk:0 ~ip:0; ops = [||];
      callee = Not_a_call }
  in
  let funcs =
    Array.of_list
      (List.map
         (fun (f : P.func) ->
           {
             name = f.P.fname;
             nparams = f.P.nparams;
             nregs = f.P.nregs;
             code = Array.map (fun b -> Array.make (Array.length b) stub) f.P.blocks;
           })
         prog.P.funcs)
  in
  let operand = function
    | I.Reg r -> Reg r
    | I.Imm v -> Const v
    | I.Glob g -> Const (Bitval.of_int64 (Int64.of_int (Hashtbl.find bases g)))
  in
  let resolve name =
    match find_func funcs name with
    | Some f -> Fun f
    | None -> (
      match name with
      | "hart_id" -> Hart_id
      | "hart_count" -> Hart_count
      | "barrier" -> Barrier
      | _ -> (
        match Semantics.math_intrinsic name with
        | Some (arity, f) -> Math { arity; f }
        | None -> invalid_arg ("Machine.load: unresolved callee " ^ name)))
  in
  let max_slots = ref 0 in
  List.iteri
    (fun fi (f : P.func) ->
      Array.iteri
        (fun bi blk ->
          Array.iteri
            (fun ip src ->
              let ops = Array.of_list (List.map operand (I.reads src)) in
              max_slots := max !max_slots (Array.length ops);
              funcs.(fi).code.(bi).(ip) <-
                {
                  src;
                  iid = Iid.make ~fn:f.P.fname ~blk:bi ~ip;
                  ops;
                  callee =
                    (match src with
                    | I.Call (_, name, _) -> resolve name
                    | _ -> Not_a_call);
                })
            blk)
        f.P.blocks)
    prog.P.funcs;
  (funcs, !max_slots)

let load ?mem_bytes prog =
  Moard_ir.Validate.check_exn
    ~intrinsics:(Semantics.intrinsics @ Semantics.hart_intrinsics)
    prog;
  let bases = Hashtbl.create 32 in
  let next = ref (align8 Memory.null_guard) in
  List.iter
    (fun (g : P.global) ->
      Hashtbl.replace bases g.gname !next;
      next := align8 (!next + P.global_bytes g))
    prog.P.globals;
  let mem_bytes =
    match mem_bytes with
    | Some n ->
      if n < !next then invalid_arg "Machine.load: mem_bytes too small";
      n
    | None -> !next + 65536
  in
  let image = Memory.create ~bytes:mem_bytes in
  List.iter
    (fun (g : P.global) -> init_global image (Hashtbl.find bases g.gname) g)
    prog.P.globals;
  let funcs, max_slots = decode prog bases in
  { prog; bases; image; funcs; max_slots }

let program t = t.prog
let image t = t.image

let base_of t name =
  match Hashtbl.find_opt t.bases name with
  | Some b -> b
  | None -> raise Not_found

let object_of t name =
  let g = P.global t.prog name in
  Moard_trace.Data_object.make ~name ~base:(base_of t name) ~elems:g.gelems
    ~ty:g.gty

let registry t =
  Moard_trace.Registry.of_objects
    (List.map (fun (g : P.global) -> object_of t g.gname) t.prog.P.globals)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type frame = {
  id : int;
  fn : dfunc;
  regs : Bitval.t array;
  prov : int array;                  (* -1 = no provenance *)
  mutable blk : int;
  mutable ip : int;
  ret_dest : int;                    (* caller's destination register, -1 if none *)
  caller : frame option;
}

let default_step_limit = 20_000_000
let max_call_depth = 200

(* The shared/private classification packs hart sets into an int bitmask,
   and 62 cooperating harts is already far past any modelled scenario. *)
let max_harts = 62

(* One cooperating hart: an independent frame stack over the shared flat
   memory. [h_frame = None] once the hart returned from the entry
   function; [h_waiting] parks it at a barrier until every other live
   hart arrives. *)
type hart = {
  h_id : int;
  mutable h_frame : frame option;
  mutable h_depth : int;
  mutable h_waiting : bool;
  mutable h_ret : Bitval.t option;
}

(* A frozen frame: everything needed to rebuild a live [frame] except the
   caller link, which the chain position encodes. *)
type snapframe = {
  sf_id : int;
  sf_fn : dfunc;
  sf_regs : Bitval.t array;
  sf_prov : int array;
  sf_blk : int;
  sf_ip : int;
  sf_ret_dest : int;
}

type snaphart = {
  sh_frames : snapframe list; (* outermost first; [] once finished *)
  sh_waiting : bool;
  sh_ret : Bitval.t option;
}

type checkpoint = {
  c_at : int;
  c_mem : Memory.t;
  c_harts : snaphart array;
  c_turn : int; (* round-robin position of the scheduler *)
  c_next_frame_id : int;
}

let checkpoint_at cp = cp.c_at

exception Captured of checkpoint

(* Everything one run needs besides the hart array. The fault is split
   into plain fields ([-1] = no such fault) so the per-operand check is
   two integer compares. [tvals]/[tprovs] hold, per operand count, the
   current event's operands for the sink; they exist only on traced
   runs, and both sinks copy out of them. *)
type state = {
  m : t;
  mem : Memory.t;
  sink : Trace_sink.t;
  traced : bool;
  read_idx : int;
  read_slot : int;
  store_idx : int;
  pattern : Pattern.t;
  nharts : int;
  tvals : Bitval.t array array;
  tprovs : int array array;
  mutable steps : int;
  mutable idx : int;  (* index of the event being executed *)
  mutable next_frame_id : int;
}

let fresh_frame st fn ~ret_dest ~caller =
  let id = st.next_frame_id in
  st.next_frame_id <- id + 1;
  {
    id;
    fn;
    regs = Array.make (max fn.nregs 1) (Bitval.zero Bitval.W64);
    prov = Array.make (max fn.nregs 1) (-1);
    blk = 0;
    ip = 0;
    ret_dest;
    caller;
  }

(* Operand [slot] as consumed by the current event, Read fault applied. *)
let fetch st fr d slot =
  let v = match d.ops.(slot) with Reg r -> fr.regs.(r) | Const c -> c in
  if st.idx = st.read_idx && slot = st.read_slot then
    Pattern.apply st.pattern v
  else v

let prov_of fr d slot =
  match d.ops.(slot) with Reg r -> fr.prov.(r) | Const _ -> -1

(* Traced runs only: snapshot the operands before the step writes any
   register (a load may overwrite its own address register). *)
let gather st fr d =
  let n = Array.length d.ops in
  let values = st.tvals.(n) and provs = st.tprovs.(n) in
  for slot = 0 to n - 1 do
    values.(slot) <- fetch st fr d slot;
    provs.(slot) <- prov_of fr d slot
  done

(* Traced runs only. *)
let emit st h fr d write ~load_addr ~callee_frame ~ret_to_frame ~ret_to_reg
    ~taken =
  let n = Array.length d.ops in
  let values = st.tvals.(n) and provs = st.tprovs.(n) in
  match st.sink with
  | Trace_sink.Null -> ()
  | Trace_sink.Tape tape ->
    Moard_trace.Tape.emit tape ~iid:d.iid ~instr:d.src ~hart:h.h_id
      ~frame:fr.id ~values ~provs ~write ~load_addr ~callee_frame
      ~ret_to_frame ~ret_to_reg ~taken ()
  | Trace_sink.Fn push ->
    push
      {
        Event.idx = st.idx;
        hart = h.h_id;
        frame = fr.id;
        iid = d.iid;
        instr = d.src;
        reads =
          Array.init n (fun i -> { Event.value = values.(i); prov = provs.(i) });
        write;
        load_addr;
        callee_frame;
        ret_to_frame;
        ret_to_reg;
        taken;
      }

let emit_plain st h fr d write =
  emit st h fr d write ~load_addr:(-1) ~callee_frame:(-1) ~ret_to_frame:(-1)
    ~ret_to_reg:(-1) ~taken:(-1)

let set_reg st h fr d r value prov =
  fr.regs.(r) <- value;
  fr.prov.(r) <- prov;
  if st.traced then
    emit_plain st h fr d (Event.Wreg { frame = fr.id; reg = r; value })

let set_dest st h fr d dest value =
  match dest with
  | Some r -> set_reg st h fr d r value (-1)
  | None -> if st.traced then emit_plain st h fr d Event.Wnone

let addr_of v = Int64.to_int (Bitval.to_int64 v)

let check_arity name ~expected ~got =
  if got <> expected then
    raise (Trap.Trap_exn (Trap.Arity { callee = name; expected; got }))

let call st h fr d dest name =
  let n = Array.length d.ops in
  match d.callee with
  | Fun fn ->
    if h.h_depth >= max_call_depth then
      raise (Trap.Trap_exn (Trap.Call_depth max_call_depth));
    check_arity name ~expected:fn.nparams ~got:n;
    let ret_dest = match dest with Some r -> r | None -> -1 in
    let callee_fr = fresh_frame st fn ~ret_dest ~caller:(Some fr) in
    for i = 0 to n - 1 do
      callee_fr.regs.(i) <- fetch st fr d i;
      callee_fr.prov.(i) <- prov_of fr d i
    done;
    if st.traced then
      emit st h fr d Event.Wnone ~load_addr:(-1) ~callee_frame:callee_fr.id
        ~ret_to_frame:(-1) ~ret_to_reg:(-1) ~taken:(-1);
    h.h_depth <- h.h_depth + 1;
    h.h_frame <- Some callee_fr
  | Barrier ->
    check_arity name ~expected:0 ~got:n;
    if st.traced then emit_plain st h fr d Event.Wnone;
    (* Park after the event: the hart resumes at the next instruction once
       every live hart has arrived. *)
    h.h_waiting <- true
  | Hart_id ->
    check_arity name ~expected:0 ~got:n;
    set_dest st h fr d dest (Bitval.of_int64 (Int64.of_int h.h_id))
  | Hart_count ->
    check_arity name ~expected:0 ~got:n;
    set_dest st h fr d dest (Bitval.of_int64 (Int64.of_int st.nharts))
  | Math { arity = expected; f } ->
    check_arity name ~expected ~got:n;
    let args = Array.init n (fun i -> Bitval.to_float (fetch st fr d i)) in
    set_dest st h fr d dest (Bitval.of_float (f args))
  | Not_a_call -> assert false

let branch st h fr d l =
  if st.traced then
    emit st h fr d Event.Wnone ~load_addr:(-1) ~callee_frame:(-1)
      ~ret_to_frame:(-1) ~ret_to_reg:(-1) ~taken:l;
  fr.blk <- l;
  fr.ip <- 0

let return st h fr d has_value =
  match fr.caller with
  | None ->
    let value = if has_value then Some (fetch st fr d 0) else None in
    if st.traced then emit_plain st h fr d Event.Wnone;
    h.h_ret <- value;
    h.h_frame <- None;
    h.h_depth <- 0
  | Some parent ->
    let write =
      if fr.ret_dest >= 0 then begin
        let rv = if has_value then fetch st fr d 0 else Bitval.zero Bitval.W64 in
        parent.regs.(fr.ret_dest) <- rv;
        parent.prov.(fr.ret_dest) <- (if has_value then prov_of fr d 0 else -1);
        if st.traced then
          Event.Wreg { frame = parent.id; reg = fr.ret_dest; value = rv }
        else Event.Wnone
      end
      else Event.Wnone
    in
    if st.traced then
      emit st h fr d write ~load_addr:(-1) ~callee_frame:(-1)
        ~ret_to_frame:parent.id ~ret_to_reg:fr.ret_dest ~taken:(-1);
    h.h_depth <- h.h_depth - 1;
    h.h_frame <- Some parent

(* Execute one event of hart [h], whose current frame is [fr]. Every
   operand is read before any register is written. *)
let step st h fr =
  let d = fr.fn.code.(fr.blk).(fr.ip) in
  if st.traced then gather st fr d;
  (* Advance ip by default; control flow overrides below. *)
  fr.ip <- fr.ip + 1;
  match d.src with
  | I.Mov (r, _) -> set_reg st h fr d r (fetch st fr d 0) (prov_of fr d 0)
  | I.Ibin (r, op, ty, _, _) ->
    let a = fetch st fr d 0 in
    let b = fetch st fr d 1 in
    set_reg st h fr d r (Semantics.ibin_or_trap op ty a b) (-1)
  | I.Fbin (r, op, _, _) ->
    let a = fetch st fr d 0 in
    let b = fetch st fr d 1 in
    set_reg st h fr d r (Semantics.fbin op a b) (-1)
  | I.Icmp (r, op, _, _, _) ->
    let a = fetch st fr d 0 in
    let b = fetch st fr d 1 in
    set_reg st h fr d r (Semantics.icmp op a b) (-1)
  | I.Fcmp (r, op, _, _) ->
    let a = fetch st fr d 0 in
    let b = fetch st fr d 1 in
    set_reg st h fr d r (Semantics.fcmp op a b) (-1)
  | I.Cast (r, c, _) ->
    let prov =
      match c with
      | I.Bitcast_f_to_i | I.Bitcast_i_to_f -> prov_of fr d 0
      | _ -> -1
    in
    set_reg st h fr d r (Semantics.cast c (fetch st fr d 0)) prov
  | I.Load (r, ty, _) ->
    let addr = addr_of (fetch st fr d 0) in
    let value = Memory.load_or_trap st.mem ty addr in
    fr.regs.(r) <- value;
    fr.prov.(r) <- addr;
    if st.traced then
      emit st h fr d
        (Event.Wreg { frame = fr.id; reg = r; value })
        ~load_addr:addr ~callee_frame:(-1) ~ret_to_frame:(-1) ~ret_to_reg:(-1)
        ~taken:(-1)
  | I.Store (ty, _, _) ->
    let value = fetch st fr d 0 in
    let addr = addr_of (fetch st fr d 1) in
    if st.idx = st.store_idx then begin
      (* Corrupt the destination cell just before it is overwritten. *)
      match Memory.load_or_trap st.mem ty addr with
      | old -> Memory.store_or_trap st.mem ty addr (Pattern.apply st.pattern old)
      | exception Trap.Trap_exn _ -> ()
    end;
    Memory.store_or_trap st.mem ty addr value;
    if st.traced then emit_plain st h fr d (Event.Wmem { addr; value; ty })
  | I.Gep (r, _, _, scale) ->
    let base = fetch st fr d 0 in
    let index = fetch st fr d 1 in
    set_reg st h fr d r (Semantics.gep base index scale) (-1)
  | I.Select (r, _, _, _) ->
    let c = fetch st fr d 0 in
    let x = fetch st fr d 1 in
    let y = fetch st fr d 2 in
    let prov = if Bitval.to_bool c then prov_of fr d 1 else prov_of fr d 2 in
    set_reg st h fr d r (Semantics.select c x y) prov
  | I.Call (dest, name, _) -> call st h fr d dest name
  | I.Br l -> branch st h fr d l
  | I.Cbr (_, l1, l2) ->
    branch st h fr d (if Bitval.to_bool (fetch st fr d 0) then l1 else l2)
  | I.Ret vopt -> return st h fr d (Option.is_some vopt)

let snapshot st hs turn =
  let rec snap fr acc =
    let sf =
      {
        sf_id = fr.id;
        sf_fn = fr.fn;
        sf_regs = Array.copy fr.regs;
        sf_prov = Array.copy fr.prov;
        sf_blk = fr.blk;
        sf_ip = fr.ip;
        sf_ret_dest = fr.ret_dest;
      }
    in
    match fr.caller with None -> sf :: acc | Some p -> snap p (sf :: acc)
  in
  (* the capturing run is abandoned here, so [mem] can be taken over by the
     checkpoint without a copy *)
  {
    c_at = st.steps;
    c_mem = st.mem;
    c_harts =
      Array.map
        (fun h ->
          {
            sh_frames =
              (match h.h_frame with None -> [] | Some fr -> snap fr []);
            sh_waiting = h.h_waiting;
            sh_ret = h.h_ret;
          })
        hs;
    c_turn = turn;
    c_next_frame_id = st.next_frame_id;
  }

(* SPMD launch: every hart starts the same entry function with the same
   arguments; hart h owns frame id h. *)
let launch st ~entry ~args =
  let entry_fn =
    match find_func st.m.funcs entry with
    | Some fn -> fn
    | None -> raise (Trap.Trap_exn (Trap.No_function entry))
  in
  let got = List.length args in
  if got <> entry_fn.nparams then
    raise
      (Trap.Trap_exn
         (Trap.Arity { callee = entry; expected = entry_fn.nparams; got }));
  Array.init st.nharts (fun h ->
      let top = fresh_frame st entry_fn ~ret_dest:(-1) ~caller:None in
      List.iteri (fun i v -> top.regs.(i) <- v) args;
      { h_id = h; h_frame = Some top; h_depth = 1; h_waiting = false;
        h_ret = None })

let resume st cp =
  st.next_frame_id <- cp.c_next_frame_id;
  let rebuild caller sf =
    {
      id = sf.sf_id;
      fn = sf.sf_fn;
      regs = Array.copy sf.sf_regs;
      prov = Array.copy sf.sf_prov;
      blk = sf.sf_blk;
      ip = sf.sf_ip;
      ret_dest = sf.sf_ret_dest;
      caller;
    }
  in
  let rec chain caller = function
    | [] -> assert false
    | [ sf ] -> rebuild caller sf
    | sf :: rest -> chain (Some (rebuild caller sf)) rest
  in
  Array.mapi
    (fun h (sh : snaphart) ->
      {
        h_id = h;
        h_frame =
          (match sh.sh_frames with
          | [] -> None
          | frames -> Some (chain None frames));
        h_depth = List.length sh.sh_frames;
        h_waiting = sh.sh_waiting;
        h_ret = sh.sh_ret;
      })
    cp.c_harts

let run_gen ?(step_limit = default_step_limit) ?fault ?(sink = Trace_sink.Null)
    ?(args = []) ?(harts = 1) ?from ?capture_at t ~entry =
  if harts < 1 || harts > max_harts then
    invalid_arg "Machine.run: hart count out of range";
  let read_idx, read_slot, store_idx, pattern =
    match fault with
    | None -> (-1, -1, -1, Pattern.Single 0)
    | Some { Fault.site = Fault.Read { idx; slot }; pattern } ->
      (idx, slot, -1, pattern)
    | Some { Fault.site = Fault.Store_dest { idx }; pattern } ->
      (-1, -1, idx, pattern)
  in
  let traced = not (Trace_sink.is_null sink) in
  let scratch make =
    if traced then Array.init (t.max_slots + 1) make else [||]
  in
  let st =
    {
      m = t;
      mem =
        (match from with
        | None -> Memory.copy t.image
        | Some cp -> Memory.copy cp.c_mem);
      sink;
      traced;
      read_idx;
      read_slot;
      store_idx;
      pattern;
      nharts =
        (match from with None -> harts | Some cp -> Array.length cp.c_harts);
      tvals = scratch (fun n -> Array.make n (Bitval.zero Bitval.W64));
      tprovs = scratch (fun n -> Array.make n (-1));
      steps = (match from with None -> 0 | Some cp -> cp.c_at);
      idx = -1;
      next_frame_id = 0;
    }
  in
  let capture = match capture_at with Some at -> at | None -> -1 in
  let result =
    try
      let hs, start_turn =
        match from with
        | None -> (launch st ~entry ~args, 0)
        | Some cp -> (resume st cp, cp.c_turn)
      in
      let nharts = st.nharts in
      let turn = ref start_turn in
      let running = ref true in
      (* Round-robin with a quantum of one instruction: the first runnable
         hart at or after [turn] executes exactly one event. With a single
         hart this degenerates to the serial interpreter loop, event for
         event. *)
      let rec pick k =
        if k = nharts then -1
        else
          let j = (!turn + k) mod nharts in
          let h = hs.(j) in
          if h.h_frame <> None && not h.h_waiting then j else pick (k + 1)
      in
      while !running do
        match pick 0 with
        | -1 ->
          if Array.exists (fun h -> h.h_frame <> None) hs then
            (* Every live hart is parked at the barrier: release the whole
               quorum. Finished harts left it, so no deadlock. *)
            Array.iter (fun h -> h.h_waiting <- false) hs
          else running := false
        | j ->
          let h = hs.(j) in
          let fr = match h.h_frame with Some fr -> fr | None -> assert false in
          if st.steps = capture then raise (Captured (snapshot st hs !turn));
          turn := (j + 1) mod nharts;
          if st.steps >= step_limit then
            raise (Trap.Trap_exn (Trap.Step_limit step_limit));
          st.idx <- st.steps;
          st.steps <- st.steps + 1;
          step st h fr
      done;
      (* The application outcome of an SPMD run is hart 0's return value
         (every hart ran the same entry; outputs live in shared memory). *)
      Finished hs.(0).h_ret
    with Trap.Trap_exn tr -> Trapped tr
  in
  { outcome = result; mem = st.mem; steps = st.steps }

let run ?step_limit ?fault ?sink ?args ?harts ?from t ~entry =
  run_gen ?step_limit ?fault ?sink ?args ?harts ?from t ~entry

let checkpoint ?step_limit ?args ?harts t ~entry ~at =
  if at < 0 then invalid_arg "Machine.checkpoint: negative event index";
  match run_gen ?step_limit ?args ?harts ~capture_at:at t ~entry with
  | (_ : run) ->
    invalid_arg
      (Printf.sprintf
         "Machine.checkpoint: run of %s ended before event %d" entry at)
  | exception Captured cp -> cp

let trace ?step_limit ?args ?harts t ~entry =
  let tape = Moard_trace.Tape.create () in
  let r = run ?step_limit ?args ?harts ~sink:(Trace_sink.Tape tape) t ~entry in
  Moard_trace.Tape.freeze tape;
  (r, tape)

let read_gen t mem name conv =
  let g = P.global t.prog name in
  let base = base_of t name in
  let sz = T.size g.gty in
  Array.init g.gelems (fun i -> conv (Memory.load_exn mem g.gty (base + (i * sz))))

let read_f64s t mem name = read_gen t mem name Bitval.to_float
let read_i64s t mem name = read_gen t mem name Bitval.to_int64
let read_i32s t mem name =
  read_gen t mem name (fun v -> Int64.to_int32 (Bitval.to_int64 v))
