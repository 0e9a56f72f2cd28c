module Monotime = Moard_chaos.Monotime

type 'a state = Empty | Filled of 'a | Abandoned

type 'a t = {
  state : 'a state Atomic.t;
  r : Unix.file_descr;
  w : Unix.file_descr;
  mutable closed : bool;  (* owned by the waiter *)
}

let create () =
  let r, w = Unix.pipe ~cloexec:true () in
  { state = Atomic.make Empty; r; w; closed = false }

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* Only the CAS winner writes, and the waiter closes the pipe only after
   reading that byte or after winning the abandonment CAS itself: the
   write end is open for exactly as long as a write may target it. *)
let fill t v =
  Atomic.compare_and_set t.state Empty (Filled v)
  && begin
    ignore (retry_eintr (fun () -> Unix.write_substring t.w "!" 0 1));
    true
  end

let close_pipe t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.r with Unix.Unix_error _ -> ());
    try Unix.close t.w with Unix.Unix_error _ -> ()
  end

(* The winner may have set the state and not written yet: block for its
   byte (it is on its way) before the descriptors go back to the OS. *)
let take t v =
  if not t.closed then begin
    ignore (retry_eintr (fun () -> Unix.read t.r (Bytes.create 1) 0 1));
    close_pipe t
  end;
  Some v

let rec await t ~until =
  match Atomic.get t.state with
  | Filled v -> take t v
  | Abandoned -> None
  | Empty ->
    let left = until -. Monotime.now () in
    if left <= 0. then None
    else begin
      (* a negative select timeout blocks without bound *)
      let left = if Float.is_finite left then left else -1. in
      (try ignore (Unix.select [ t.r ] [] [] left)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      await t ~until
    end

let abandon t =
  if Atomic.compare_and_set t.state Empty Abandoned then begin
    close_pipe t;
    None
  end
  else
    match Atomic.get t.state with
    | Filled v -> take t v
    | Empty | Abandoned -> None
