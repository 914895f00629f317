(* Cooperative threads under OPEC (the paper's Section 7 extension).

     dune exec examples/threads_demo.exe

   Two sensor-pump threads and one reporter thread share a ring buffer.
   Every yield is a full OPEC thread switch: the monitor writes the
   outgoing thread's operation shadows back to the public section, fills
   the incoming thread's, and reconfigures the MPU. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor
module Ex = Opec_exec

let yield_ = Instr.Svc Mon.Threads.yield_svc

let firmware =
  Program.v ~name:"threads-demo"
    ~globals:
      [ words "ring" 8; word "ring_head"; word "produced"; word "reported" ]
    ~peripherals:[]
    ~funcs:
      [ func "push_sample" [ pw "v" ] ~file:"ring.c"
          [ load "h" (gv "ring_head");
            store E.(gv "ring" + ((l "h" % c 8) * c 4)) (l "v");
            store (gv "ring_head") E.(l "h" + c 1);
            load "p" (gv "produced");
            store (gv "produced") E.(l "p" + c 1);
            ret0 ];
        func "pump_even" [] ~file:"app.c"
          (List.concat
             (List.init 4 (fun i -> [ call "push_sample" [ c (2 * i) ]; yield_ ]))
          @ [ ret0 ]);
        func "pump_odd" [] ~file:"app.c"
          (List.concat
             (List.init 4 (fun i ->
                  [ call "push_sample" [ c ((2 * i) + 1) ]; yield_ ]))
          @ [ ret0 ]);
        func "reporter" [] ~file:"app.c"
          [ set "seen" (c 0);
            while_ E.(l "seen" < c 8)
              [ load "p" (gv "produced");
                set "seen" (l "p");
                store (gv "reported") (l "seen");
                yield_ ];
            ret0 ];
        func "main" [] ~file:"main.c" [ halt ] ]
    ()

let () =
  let image =
    C.Compiler.compile firmware
      (C.Dev_input.v [ "pump_even"; "pump_odd"; "reporter" ])
  in
  let run = Mon.Runner.prepare image in
  Mon.Monitor.init run.Mon.Runner.monitor;
  let sched = Mon.Threads.create run in
  ignore (Mon.Threads.spawn sched ~entry:"pump_even" ~args:[] ~stack_bytes:1024);
  ignore (Mon.Threads.spawn sched ~entry:"pump_odd" ~args:[] ~stack_bytes:1024);
  ignore (Mon.Threads.spawn sched ~entry:"reporter" ~args:[] ~stack_bytes:1024);
  Mon.Threads.run sched;
  let read name =
    M.Bus.read_raw run.Mon.Runner.bus
      (image.C.Image.map.Ex.Address_map.global_addr name) 4
  in
  Format.printf "threads finished: produced=%Ld reported=%Ld@."
    (read "produced") (read "reported");
  Format.printf "thread context switches: %d@."
    (Mon.Threads.context_switches sched);
  Format.printf "monitor: %a@." Mon.Stats.pp
    (Mon.Monitor.stats run.Mon.Runner.monitor);
  let ring_addr = image.C.Image.map.Ex.Address_map.global_addr "ring" in
  let samples =
    List.init 8 (fun i ->
        Int64.to_string (M.Bus.read_raw run.Mon.Runner.bus (ring_addr + (4 * i)) 4))
  in
  Format.printf "ring buffer: [%s]@." (String.concat "; " samples)
