(* The virtual machine: memory, traps, determinism, fault application. *)

module Machine = Moard_vm.Machine
module Memory = Moard_vm.Memory
module Fault = Moard_vm.Fault
module Trap = Moard_vm.Trap
module I = Moard_ir.Instr
module T = Moard_ir.Types
module P = Moard_ir.Program
module Bld = Moard_ir.Builder
module B = Moard_bits.Bitval
module Ast = Moard_lang.Ast

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let memory_tests =
  [
    Alcotest.test_case "round trips at every width" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        Memory.store_exn m T.F64 512 (B.of_float 2.75);
        Memory.store_exn m T.I32 520 (B.of_int32 (-7l));
        Memory.store_exn m T.I1 524 (B.of_bool true);
        assert (Float.equal (B.to_float (Memory.load_exn m T.F64 512)) 2.75);
        assert (Int64.equal (B.to_int64 (Memory.load_exn m T.I32 520)) (-7L));
        assert (B.to_bool (Memory.load_exn m T.I1 524)));
    Alcotest.test_case "null guard traps" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        (match Memory.load m T.F64 0 with
        | Error (Trap.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "null load must trap");
        match Memory.store m T.I32 100 (B.of_int32 1l) with
        | Error (Trap.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "null store must trap");
    Alcotest.test_case "end-of-memory traps" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        (match Memory.load m T.F64 4089 with
        | Error (Trap.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "partial oob load must trap");
        match Memory.load m T.F64 4088 with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "last full word must load");
    Alcotest.test_case "unaligned access allowed" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        Memory.store_exn m T.I64 1001 (B.of_int64 0x1122334455667788L);
        assert (Int64.equal
                  (B.to_int64 (Memory.load_exn m T.I64 1001))
                  0x1122334455667788L));
    Alcotest.test_case "copy is a snapshot" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        Memory.store_exn m T.I64 512 (B.of_int64 5L);
        let m' = Memory.copy m in
        Memory.store_exn m T.I64 512 (B.of_int64 9L);
        assert (Int64.equal (B.to_int64 (Memory.load_exn m' T.I64 512)) 5L));
    qtest "store/load identity at random addresses"
      QCheck2.Gen.(pair (int_range 256 4000) int64)
      (fun (addr, x) ->
        let m = Memory.create ~bytes:8192 in
        Memory.store_exn m T.I64 addr (B.of_int64 x);
        Int64.equal (B.to_int64 (Memory.load_exn m T.I64 addr)) x);
  ]

(* A tiny hand-built IR program: out[0] = a[0] + a[1] *)
let sum_program () =
  let b = Bld.create ~name:"main" ~nparams:0 in
  let a0 = Bld.load b T.F64 (I.Glob "a") in
  let p1 = Bld.gep b ~base:(I.Glob "a") ~index:(I.Imm (B.of_int64 1L)) ~scale:8 in
  let a1 = Bld.load b T.F64 (I.Reg p1) in
  let s = Bld.fbin b I.Fadd (I.Reg a0) (I.Reg a1) in
  Bld.store b T.F64 ~value:(I.Reg s) ~addr:(I.Glob "out");
  Bld.ret b (Some (I.Reg s));
  {
    P.globals =
      [
        { P.gname = "a"; gty = T.F64; gelems = 2;
          ginit = P.Floats [| 1.5; 2.25 |] };
        { P.gname = "out"; gty = T.F64; gelems = 1; ginit = P.Zeros };
      ];
    funcs = [ Bld.finish b ];
  }

let machine_tests =
  [
    Alcotest.test_case "hand-built program runs" `Quick (fun () ->
        let m = Machine.load (sum_program ()) in
        let r = Machine.run m ~entry:"main" in
        (match r.Machine.outcome with
        | Machine.Finished (Some v) ->
          assert (Float.equal (B.to_float v) 3.75)
        | _ -> Alcotest.fail "bad outcome");
        let out = Machine.read_f64s m r.Machine.mem "out" in
        assert (Float.equal out.(0) 3.75));
    Alcotest.test_case "runs are independent (memory reset)" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let r1 = Machine.run m ~entry:"main" in
        let r2 = Machine.run m ~entry:"main" in
        assert (r1.Machine.steps = r2.Machine.steps);
        assert (Float.equal
                  (Machine.read_f64s m r1.Machine.mem "out").(0)
                  (Machine.read_f64s m r2.Machine.mem "out").(0)));
    Alcotest.test_case "registry exposes objects with disjoint ranges" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let reg = Machine.registry m in
        let a = Moard_trace.Registry.find reg "a" in
        let out = Moard_trace.Registry.find reg "out" in
        assert (a.Moard_trace.Data_object.elems = 2);
        assert (Moard_trace.Registry.owner reg a.Moard_trace.Data_object.base
                = Some a);
        assert (not (Moard_trace.Data_object.contains a
                       out.Moard_trace.Data_object.base)));
    Alcotest.test_case "unknown entry traps cleanly" `Quick (fun () ->
        let m = Machine.load (sum_program ()) in
        match (Machine.run m ~entry:"ghost").Machine.outcome with
        | Machine.Trapped (Trap.No_function "ghost") -> ()
        | _ -> Alcotest.fail "expected no-function trap");
    Alcotest.test_case "step limit traps" `Quick (fun () ->
        let open Ast.Dsl in
        let prog =
          Moard_lang.Compile.program
            { Ast.globals = [];
              funs = [ fn "main" [ while_ (b true) []; ret_void ] ] }
        in
        let m = Machine.load prog in
        match (Machine.run ~step_limit:1000 m ~entry:"main").Machine.outcome with
        | Machine.Trapped (Trap.Step_limit 1000) -> ()
        | _ -> Alcotest.fail "expected step-limit trap");
    Alcotest.test_case "division by zero traps" `Quick (fun () ->
        let open Ast.Dsl in
        let prog =
          Moard_lang.Compile.program
            { Ast.globals = [ garr_i64_init "z" [| 0L |] ];
              funs =
                [ fn "main" ~ret:Ast.Tf64
                    [ ret (to_f (i 5 / "z".%(i 0))) ] ] }
        in
        let m = Machine.load prog in
        match (Machine.run m ~entry:"main").Machine.outcome with
        | Machine.Trapped Trap.Div_by_zero -> ()
        | _ -> Alcotest.fail "expected div-by-zero");
    Alcotest.test_case "out-of-bounds index traps" `Quick (fun () ->
        let open Ast.Dsl in
        let prog =
          Moard_lang.Compile.program
            { Ast.globals = [ garr_f64 "a" 2 ];
              funs =
                [ fn "main" ~ret:Ast.Tf64 [ ret ("a".%(i 1000000)) ] ] }
        in
        let m = Machine.load prog in
        match (Machine.run m ~entry:"main").Machine.outcome with
        | Machine.Trapped (Trap.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "expected oob");
    Alcotest.test_case "call depth limit" `Quick (fun () ->
        let b = Bld.create ~name:"rec" ~nparams:0 in
        Bld.call_void b "rec" [];
        Bld.ret b None;
        let f = Bld.finish b in
        let bm = Bld.create ~name:"main" ~nparams:0 in
        Bld.call_void bm "rec" [];
        Bld.ret bm None;
        let p = { P.globals = []; funcs = [ f; Bld.finish bm ] } in
        let m = Machine.load p in
        match (Machine.run m ~entry:"main").Machine.outcome with
        | Machine.Trapped (Trap.Call_depth _) -> ()
        | _ -> Alcotest.fail "expected call-depth trap");
  ]

let fault_tests =
  [
    Alcotest.test_case "read fault corrupts one operand use" `Quick (fun () ->
        (* Event order: load a0; gep; load a1; fadd; store; ret.
           Flip bit 62 of fadd's slot 0 (a[0] = 1.5): exponent bit. *)
        let m = Machine.load (sum_program ()) in
        let fault = Fault.read ~idx:3 ~slot:0 (Moard_bits.Pattern.Single 62) in
        let r = Machine.run ~fault m ~entry:"main" in
        let corrupted = B.to_float (B.flip_bit (B.of_float 1.5) 62) in
        match r.Machine.outcome with
        | Machine.Finished (Some v) ->
          Alcotest.check (Alcotest.float 1e-9) "corrupted sum"
            (corrupted +. 2.25) (B.to_float v)
        | _ -> Alcotest.fail "should finish");
    Alcotest.test_case "store-destination fault is overwritten" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let fault = Fault.store_dest ~idx:4 (Moard_bits.Pattern.Single 13) in
        let r = Machine.run ~fault m ~entry:"main" in
        match r.Machine.outcome with
        | Machine.Finished (Some v) ->
          assert (Float.equal (B.to_float v) 3.75);
          assert (Float.equal (Machine.read_f64s m r.Machine.mem "out").(0) 3.75)
        | _ -> Alcotest.fail "should finish");
    Alcotest.test_case "same fault twice gives identical outcomes" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let fault = Fault.read ~idx:3 ~slot:1 (Moard_bits.Pattern.Single 51) in
        let v r =
          match r.Machine.outcome with
          | Machine.Finished (Some v) -> B.to_float v
          | _ -> Float.nan
        in
        let a = v (Machine.run ~fault m ~entry:"main") in
        let b = v (Machine.run ~fault m ~entry:"main") in
        assert (Float.equal a b));
    Alcotest.test_case "fault on non-matching index is inert" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let fault = Fault.read ~idx:999 ~slot:0 (Moard_bits.Pattern.Single 1) in
        match (Machine.run ~fault m ~entry:"main").Machine.outcome with
        | Machine.Finished (Some v) -> assert (Float.equal (B.to_float v) 3.75)
        | _ -> Alcotest.fail "should finish clean");
  ]

let trace_consistency =
  [
    Alcotest.test_case "trace matches step count and indexes" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let r, tape = Machine.trace m ~entry:"main" in
        assert (Moard_trace.Tape.length tape = r.Machine.steps);
        Moard_trace.Tape.iter
          (let next = ref 0 in
           fun e ->
             assert (e.Moard_trace.Event.idx = !next);
             incr next)
          tape);
    Alcotest.test_case "load events carry provenance" `Quick (fun () ->
        let m = Machine.load (sum_program ()) in
        let _, tape = Machine.trace m ~entry:"main" in
        let fadd = Moard_trace.Tape.get tape 3 in
        (match fadd.Moard_trace.Event.instr with
        | I.Fbin (_, I.Fadd, _, _) -> ()
        | _ -> Alcotest.fail "expected the fadd at index 3");
        let base = Machine.base_of m "a" in
        assert (fadd.Moard_trace.Event.reads.(0).Moard_trace.Event.prov = base);
        assert (fadd.Moard_trace.Event.reads.(1).Moard_trace.Event.prov
                = base + 8));
  ]

(* The three sink paths must execute the same program: the boxed events
   of [Fn] are the packed tape's events decoded, and an untraced run ends
   in the same state as a traced one. For a few faults per workload, a run
   resumed from a golden checkpoint classifies like a full run. *)
let sink_differential =
  let module W = Moard_inject.Workload in
  let module Context = Moard_inject.Context in
  let module Tape = Moard_trace.Tape in
  let module Registry = Moard_kernels.Registry in
  List.map
    (fun (e : Registry.entry) ->
      let size = e.Registry.sizes.(0) in
      Alcotest.test_case
        (Printf.sprintf "%s at size %d: Fn = Tape, untraced = traced"
           e.Registry.benchmark size)
        `Quick (fun () ->
          let w = e.Registry.workload_at size in
          let m = Machine.load w.W.program in
          let run ?sink () =
            Machine.run ?sink ~step_limit:w.W.step_limit ~harts:w.W.harts m
              ~entry:w.W.entry
          in
          let traced, tape =
            Machine.trace ~step_limit:w.W.step_limit ~harts:w.W.harts m
              ~entry:w.W.entry
          in
          let pushed = ref 0 in
          let fn_run =
            run
              ~sink:
                (Moard_vm.Trace_sink.Fn
                   (fun ev ->
                     let i = !pushed in
                     if i >= Tape.length tape || ev <> Tape.get tape i then
                       Alcotest.failf "event %d differs from the tape" i;
                     incr pushed))
              ()
          in
          let untraced = run () in
          Alcotest.(check int) "Fn events = tape length" (Tape.length tape)
            !pushed;
          List.iter
            (fun (what, (r : Machine.run)) ->
              Alcotest.(check int) (what ^ " steps") traced.Machine.steps
                r.Machine.steps;
              if r.Machine.outcome <> traced.Machine.outcome then
                Alcotest.failf "%s outcome differs" what;
              if not (Memory.equal r.Machine.mem traced.Machine.mem) then
                Alcotest.failf "%s final memory differs" what)
            [ ("Fn", fn_run); ("untraced", untraced) ];
          let ctx = Context.make w in
          let n = Tape.length tape in
          let faults =
            List.filter_map
              (fun i ->
                if Tape.nreads_at tape i = 0 then None
                else
                  let slot = i mod Tape.nreads_at tape i in
                  let width = (Tape.read_value tape i slot).B.width in
                  let bit = max 0 (B.bits_in width - 2) in
                  Some (Fault.read ~idx:i ~slot (Moard_bits.Pattern.Single bit)))
              [ n / 7; n / 3; n / 2; 5 * n / 6 ]
            @ (List.init n (fun k -> n - 1 - k)
              |> List.find_opt (fun i -> Tape.write_addr_at tape i >= 0)
              |> Option.map (fun i ->
                     Fault.store_dest ~idx:i (Moard_bits.Pattern.Single 0))
              |> Option.to_list)
          in
          List.iter
            (fun fault ->
              let full = Context.inject ~resume:false ctx fault in
              let resumed = Context.inject ~resume:true ctx fault in
              if not (Moard_inject.Outcome.equal full resumed) then
                Alcotest.failf "%s: resumed %s, full %s"
                  (Format.asprintf "%a" Fault.pp fault)
                  (Moard_inject.Outcome.to_string resumed)
                  (Moard_inject.Outcome.to_string full))
            faults))
    Moard_kernels.Registry.all

(* Traps the decoded dispatch must still raise at run time. [Validate]
   only checks that a callee name exists, so these programs load. *)
let call_of ~callee args =
  let b = Bld.create ~name:"main" ~nparams:0 in
  let r = Bld.call b callee args in
  Bld.ret b (Some (I.Reg r));
  { P.globals = []; funcs = [ Bld.finish b ] }

let expect_trap what expected (r : Machine.run) =
  match r.Machine.outcome with
  | Machine.Trapped tr when Trap.equal tr expected -> ()
  | Machine.Trapped tr ->
    Alcotest.failf "%s: trapped with %s, want %s" what (Trap.to_string tr)
      (Trap.to_string expected)
  | Machine.Finished _ -> Alcotest.failf "%s: finished, want a trap" what

let runtime_traps =
  let one = I.Imm (B.of_float 1.0) in
  [
    Alcotest.test_case "math intrinsic with the wrong arity traps" `Quick
      (fun () ->
        let m = Machine.load (call_of ~callee:"sqrt" [ one; one ]) in
        expect_trap "sqrt/2"
          (Trap.Arity { callee = "sqrt"; expected = 1; got = 2 })
          (Machine.run m ~entry:"main");
        let m = Machine.load (call_of ~callee:"pow" [ one ]) in
        expect_trap "pow/1"
          (Trap.Arity { callee = "pow"; expected = 2; got = 1 })
          (Machine.run m ~entry:"main"));
    Alcotest.test_case "hart_id with an argument traps" `Quick (fun () ->
        let m =
          Machine.load (call_of ~callee:"hart_id" [ I.Imm (B.of_int64 0L) ])
        in
        expect_trap "hart_id/1"
          (Trap.Arity { callee = "hart_id"; expected = 0; got = 1 })
          (Machine.run m ~entry:"main"));
    Alcotest.test_case "user function with the wrong arity traps" `Quick
      (fun () ->
        let f = Bld.create ~name:"id" ~nparams:1 in
        Bld.ret f (Some (I.Reg 0));
        let b = Bld.create ~name:"main" ~nparams:0 in
        let r = Bld.call b "id" [] in
        Bld.ret b (Some (I.Reg r));
        let m =
          Machine.load { P.globals = []; funcs = [ Bld.finish f; Bld.finish b ] }
        in
        expect_trap "id/0"
          (Trap.Arity { callee = "id"; expected = 1; got = 0 })
          (Machine.run m ~entry:"main"));
    Alcotest.test_case "a resumed run traps with the full run's payload"
      `Quick (fun () ->
        (* Event 1 is the gep computing &a[1]; flipping bit 40 of its
           index sends the next load far out of bounds. *)
        let m = Machine.load (sum_program ()) in
        let fault = Fault.read ~idx:1 ~slot:1 (Moard_bits.Pattern.Single 40) in
        let full = Machine.run ~fault m ~entry:"main" in
        let cp = Machine.checkpoint m ~entry:"main" ~at:1 in
        let resumed = Machine.run ~fault ~from:cp m ~entry:"main" in
        let addr = Machine.base_of m "a" + (8 * (1 lor (1 lsl 40))) in
        expect_trap "full" (Trap.Out_of_bounds { addr; size = 8 }) full;
        expect_trap "resumed" (Trap.Out_of_bounds { addr; size = 8 }) resumed;
        Alcotest.(check int) "steps" full.Machine.steps resumed.Machine.steps;
        (* a trap raised by the machine's own state, deep in a call chain
           rebuilt from the checkpoint *)
        let b = Bld.create ~name:"rec" ~nparams:0 in
        Bld.call_void b "rec" [];
        Bld.ret b None;
        let bm = Bld.create ~name:"main" ~nparams:0 in
        Bld.call_void bm "rec" [];
        Bld.ret bm None;
        let m =
          Machine.load { P.globals = []; funcs = [ Bld.finish b; Bld.finish bm ] }
        in
        let full = Machine.run m ~entry:"main" in
        let cp = Machine.checkpoint m ~entry:"main" ~at:57 in
        let resumed = Machine.run ~from:cp m ~entry:"main" in
        expect_trap "full" (Trap.Call_depth 200) full;
        expect_trap "resumed" (Trap.Call_depth 200) resumed;
        Alcotest.(check int) "steps" full.Machine.steps resumed.Machine.steps;
        let limited = Machine.run ~step_limit:100 ~from:cp m ~entry:"main" in
        expect_trap "step limit" (Trap.Step_limit 100) limited;
        Alcotest.(check int) "steps at the limit" 100 limited.Machine.steps);
  ]

let suite =
  [
    ("vm.memory", memory_tests);
    ("vm.machine", machine_tests);
    ("vm.faults", fault_tests);
    ("vm.trace", trace_consistency);
    ("vm.sinks", sink_differential);
    ("vm.traps", runtime_traps);
  ]
