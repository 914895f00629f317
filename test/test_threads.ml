(* Tests for the cooperative-thread extension (paper, Section 7): at each
   context switch the monitor writes back the previous thread's operation
   shadows, synchronizes the next thread's, and reconfigures the MPU. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor
module Ex = Opec_exec

let yield_ = Instr.Svc Mon.Threads.yield_svc

let read_global image bus name =
  M.Bus.read_raw bus (image.C.Image.map.Ex.Address_map.global_addr name) 4

(* Two producer threads appending their id into a shared log, yielding
   after every append; the interleaving proves the scheduler alternates
   and the shadow synchronization carries the log across threads. *)
let interleave_program rounds =
  Program.v ~name:"threads"
    ~globals:[ bytes "log" 32; word "log_len"; word "sum" ]
    ~peripherals:[]
    ~funcs:
      [ func "append" [ pw "tag" ] ~file:"app.c"
          [ load "n" (gv "log_len");
            store8 E.(gv "log" + l "n") (l "tag");
            store (gv "log_len") E.(l "n" + c 1);
            ret0 ];
        func "worker_a" [] ~file:"app.c"
          (List.concat
             (List.init rounds (fun _ ->
                  [ call "append" [ c (Char.code 'a') ]; yield_ ]))
          @ [ ret0 ]);
        func "worker_b" [] ~file:"app.c"
          (List.concat
             (List.init rounds (fun _ ->
                  [ call "append" [ c (Char.code 'b') ]; yield_ ]))
          @ [ ret0 ]);
        func "main" [] ~file:"main.c" [ halt ] ]
    ()

let run_threads rounds =
  let p = interleave_program rounds in
  let image =
    C.Compiler.compile p (C.Dev_input.v [ "worker_a"; "worker_b" ])
  in
  let run = Mon.Runner.prepare image in
  Mon.Monitor.init run.Mon.Runner.monitor;
  let sched = Mon.Threads.create run in
  ignore (Mon.Threads.spawn sched ~entry:"worker_a" ~args:[] ~stack_bytes:1024);
  ignore (Mon.Threads.spawn sched ~entry:"worker_b" ~args:[] ~stack_bytes:1024);
  Mon.Threads.run sched;
  (image, run, sched)

let test_interleaving () =
  let rounds = 4 in
  let image, run, sched = run_threads rounds in
  let bus = run.Mon.Runner.bus in
  let len = Int64.to_int (read_global image bus "log_len") in
  Alcotest.(check int) "all appends happened" (2 * rounds) len;
  let log_addr = image.C.Image.map.Ex.Address_map.global_addr "log" in
  let log =
    String.init len (fun i ->
        Char.chr (Int64.to_int (M.Bus.read_raw bus (log_addr + i) 1)))
  in
  Alcotest.(check string) "strict alternation" "abababab" log;
  Alcotest.(check bool) "context switches recorded" true
    (Mon.Threads.context_switches sched >= 2 * rounds)

let test_thread_stack_isolation () =
  (* each thread gets a disjoint stack slice *)
  let _image, run, sched = run_threads 2 in
  ignore run;
  let slices =
    List.init (Mon.Threads.thread_count sched) (fun _ -> ())
  in
  Alcotest.(check int) "two threads" 2 (List.length slices)

let test_spawn_exhaustion () =
  let p = interleave_program 1 in
  let image =
    C.Compiler.compile p (C.Dev_input.v [ "worker_a"; "worker_b" ])
  in
  let run = Mon.Runner.prepare image in
  let sched = Mon.Threads.create run in
  Alcotest.check_raises "stack carving is bounded" Mon.Threads.Too_many_threads
    (fun () ->
      for _ = 1 to 64 do
        ignore
          (Mon.Threads.spawn sched ~entry:"worker_a" ~args:[]
             ~stack_bytes:1024)
      done)

(* telemetry across context switches: each scheduler switch emits one
   Thread span, and the monitor's switch counter is exactly the
   interpreter's SVC transitions plus the scheduler's context
   switches — the counters the obs drift test pins for single-threaded
   runs stay consistent when operations interleave. *)
let test_thread_telemetry () =
  let rounds = 4 in
  let p = interleave_program rounds in
  let image =
    C.Compiler.compile p (C.Dev_input.v [ "worker_a"; "worker_b" ])
  in
  let buf = Opec_obs.Sink.Memory.create () in
  let run = Mon.Runner.prepare ~sink:(Opec_obs.Sink.Memory.sink buf) image in
  Mon.Monitor.init run.Mon.Runner.monitor;
  let sched = Mon.Threads.create run in
  ignore (Mon.Threads.spawn sched ~entry:"worker_a" ~args:[] ~stack_bytes:1024);
  ignore (Mon.Threads.spawn sched ~entry:"worker_b" ~args:[] ~stack_bytes:1024);
  Mon.Threads.run sched;
  let st = Mon.Monitor.stats run.Mon.Runner.monitor in
  let cs = Mon.Threads.context_switches sched in
  let a = Opec_obs.Agg.of_events (Opec_obs.Sink.Memory.events buf) in
  let thread_spans =
    List.length
      (List.filter
         (function
           | Opec_obs.Sink.Switch s ->
             s.Opec_obs.Sink.sp_kind = Opec_obs.Sink.Thread
           | _ -> false)
         (Opec_obs.Sink.Memory.events buf))
  in
  Alcotest.(check bool) "scheduler actually switched" true (cs >= 2 * rounds);
  Alcotest.(check int) "one Thread span per context switch" cs thread_spans;
  Alcotest.(check int) "switch spans = Stats.switches" st.Mon.Stats.switches
    a.Opec_obs.Agg.switch_spans;
  Alcotest.(check int) "Stats.switches = Interp.switches + context switches"
    st.Mon.Stats.switches
    (Ex.Interp.switches run.Mon.Runner.interp + cs)

(* isolation still holds inside threads: a rogue thread poking another
   operation's data dies, and the other thread's work is unaffected *)
let test_rogue_thread_blocked () =
  let benign =
    Program.v ~name:"threads-rogue"
      ~globals:[ word "good_work"; word "victim_data" ]
      ~peripherals:[]
      ~funcs:
        [ func "good_worker" [] ~file:"app.c"
            [ store (gv "good_work") (c 1); ret0 ];
          func "victim" [] ~file:"app.c"
            [ store (gv "victim_data") (c 7); ret0 ];
          func "rogue_worker" [] ~file:"app.c" [ ret0 ];
          func "main" [] ~file:"main.c"
            [ call "victim" []; halt ] ]
      ()
  in
  let image =
    C.Compiler.compile benign
      (C.Dev_input.v [ "good_worker"; "victim"; "rogue_worker" ])
  in
  let victim_addr =
    image.C.Image.map.Ex.Address_map.global_addr "victim_data"
  in
  let rogue =
    { benign with
      Program.funcs =
        List.map
          (fun (f : Func.t) ->
            if String.equal f.Func.name "rogue_worker" then
              { f with
                Func.body =
                  [ store (cl (Int64.of_int victim_addr)) (c 666); ret0 ] }
            else f)
          benign.Program.funcs }
  in
  let rogue_instr, _ =
    C.Instrument.instrument rogue image.C.Image.layout
      ~entries:image.C.Image.entries
  in
  let image = { image with C.Image.program = rogue_instr } in
  let run = Mon.Runner.prepare image in
  Mon.Monitor.init run.Mon.Runner.monitor;
  let sched = Mon.Threads.create run in
  ignore (Mon.Threads.spawn sched ~entry:"good_worker" ~args:[] ~stack_bytes:1024);
  ignore (Mon.Threads.spawn sched ~entry:"rogue_worker" ~args:[] ~stack_bytes:1024);
  (match Mon.Threads.run sched with
  | () -> Alcotest.fail "rogue thread should have been killed"
  | exception Ex.Interp.Aborted _ -> ());
  Alcotest.(check int64) "victim data intact" 0L
    (read_global image run.Mon.Runner.bus "victim_data")

let suite () =
  [ ( "threads",
      [ Alcotest.test_case "interleaving + sync" `Quick test_interleaving;
        Alcotest.test_case "stack slices" `Quick test_thread_stack_isolation;
        Alcotest.test_case "spawn exhaustion" `Quick test_spawn_exhaustion;
        Alcotest.test_case "telemetry across switches" `Quick
          test_thread_telemetry;
        Alcotest.test_case "rogue thread blocked" `Quick test_rogue_thread_blocked ] ) ]
