(* The benchmark's workloads.  Each is built from the seed alone: the
   program, its developer input and a fresh device world per run, whose
   scripted outside world also checks the program's outputs.  Every
   workload is a closed loop with one client: the firmware fetches the
   next stimulus only after it has finished the previous one. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Apps = Opec_apps
module Rng = Opec_fuzz.Rng

type world = {
  devices : M.Device.t list;
  check : unit -> (unit, string) result;
}

type guest = {
  board : M.Memmap.board;
  backend : M.Backend.kind;
  program : Program.t;
  input : C.Dev_input.t;
  telemetry : bool;  (** timed runs carry an [Obs.Agg] sink *)
  items : int;       (** stimuli one run completes *)
  world : unit -> world;
}

type kind =
  | Guest of guest
  | Sweep of (Program.t * C.Dev_input.t) array

type t = { name : string; kind : kind }

let names =
  [ "request-storm"; "sensor-burst-pmp"; "tcp-echo"; "coremark"; "compile-sweep" ]

let of_app ?(items = 1) (app : Apps.App.t) =
  { board = app.Apps.App.board;
    backend = M.Backend.Mpu;
    program = app.Apps.App.program;
    input = app.Apps.App.dev_input;
    telemetry = false;
    items;
    world =
      (fun () ->
        let w = app.Apps.App.make_world () in
        w.Apps.App.prepare ();
        { devices = w.Apps.App.devices; check = w.Apps.App.check }) }

(* --- request-storm ------------------------------------------------------ *)

(* A request generator: AVAIL at +0 (0 while the client is still
   polling), POP at +4 (the next request's payload), RESP at +8 (the
   firmware writes payload + 1).  Each request carries a seeded 16-bit
   payload and 0-3 empty polls before it.  Every request is one Enter
   and one Exit switch that syncs the shared [handled] word. *)
let request_storm ~seed requests =
  let rng = Rng.create seed in
  let script =
    Array.init requests (fun _ ->
        let polls = Rng.below rng 4 in
        (Rng.below rng 0x10000 lsl 2) lor polls)
  in
  let base = 0x4000_0000 and size = 0x400 in
  let periph = Peripheral.v "REQGEN" ~base ~size in
  let program =
    Program.v ~name:"perf-request-storm"
      ~globals:[ word "handled"; word "total" ~init:(Int64.of_int requests) ]
      ~peripherals:[ periph ]
      ~funcs:
        [ func "serve_request" [ pw "v" ] ~file:"server.c"
            [ store (reg periph 8) E.(l "v" + c 1);
              load "n" (gv "handled");
              store (gv "handled") E.(l "n" + c 1);
              ret0 ];
          func "main" [] ~file:"main.c"
            [ load "want" (gv "total");
              set "done_" (c 0);
              while_
                E.(l "done_" < l "want")
                [ load "avail" (reg periph 0);
                  if_
                    E.(l "avail" != c 0)
                    [ load "v" (reg periph 4);
                      call "serve_request" [ l "v" ];
                      set "done_" E.(l "done_" + c 1) ]
                    [] ];
              (* read the op's tally from the default operation so
                 [handled] is shared and every switch does sync work *)
              load "h" (gv "handled");
              store (gv "total") (l "h");
              halt ] ]
      ()
  in
  let world () =
    let next = ref 0 in
    let polls = ref (if requests > 0 then script.(0) land 3 else 0) in
    let last = ref (-1) in
    let acked = ref 0 and wrong = ref 0 in
    let read off _w =
      match off with
      | 0 ->
        if !next >= requests then 0L
        else if !polls > 0 then (decr polls; 0L)
        else 1L
      | 4 when !next < requests && !polls = 0 ->
        last := script.(!next) lsr 2;
        incr next;
        if !next < requests then polls := script.(!next) land 3;
        Int64.of_int !last
      | _ -> 0L
    in
    let write off _w v =
      if off = 8 then
        if Int64.to_int v = !last + 1 then incr acked else incr wrong
    in
    let check () =
      if !acked = requests && !wrong = 0 then Ok ()
      else
        Error
          (Printf.sprintf "acknowledged %d of %d requests, %d with a wrong value"
             !acked requests !wrong)
    in
    { devices = [ M.Device.v "REQGEN" ~base ~size ~read ~write ]; check }
  in
  { board = M.Memmap.stm32f4_discovery;
    backend = M.Backend.Mpu;
    program;
    input = C.Dev_input.v [ "serve_request" ];
    telemetry = false;
    items = requests;
    world }

(* --- sensor-burst ------------------------------------------------------- *)

(* A sensor producing bursts of seeded length 4-32: NEXT at +0 (2 =
   sample ready, 1 = burst over and a flush is due, 0 = done), DATA at
   +4 (pop one sample), OUT at +8 (the flushed sum, checked against the
   samples the burst delivered).  Two operations alternate. *)
let sensor_burst ~seed ~backend bursts =
  let rng = Rng.create seed in
  let lens = Array.init bursts (fun _ -> Rng.range rng ~lo:4 ~hi:32) in
  let samples = Array.fold_left ( + ) 0 lens in
  let base = 0x4000_0400 and size = 0x400 in
  let periph = Peripheral.v "SENSOR" ~base ~size in
  let program =
    Program.v ~name:"perf-sensor-burst"
      ~globals:[ word "acc"; word "nflush" ]
      ~peripherals:[ periph ]
      ~funcs:
        [ func "sense_sample" [ pw "v" ] ~file:"sensor.c"
            [ load "a" (gv "acc");
              store (gv "acc") E.(l "a" + l "v");
              ret0 ];
          func "flush_buffer" [] ~file:"sensor.c"
            [ load "a" (gv "acc");
              store (reg periph 8) (l "a");
              store (gv "acc") (c 0);
              load "k" (gv "nflush");
              store (gv "nflush") E.(l "k" + c 1);
              ret0 ];
          func "main" [] ~file:"main.c"
            [ set "go" (c 1);
              while_
                E.(l "go" != c 0)
                [ load "s" (reg periph 0);
                  if_
                    E.(l "s" == c 2)
                    [ load "v" (reg periph 4);
                      call "sense_sample" [ l "v" ] ]
                    [ if_
                        E.(l "s" == c 1)
                        [ call "flush_buffer" [] ]
                        [ set "go" (c 0) ] ] ];
              halt ] ]
      ()
  in
  let world () =
    let burst = ref 0 and cur = ref 0 and pending = ref false in
    let seq = ref 0 and sum = ref 0L in
    let flushes = ref 0 and mismatches = ref 0 in
    let read off _w =
      match off with
      | 0 ->
        if !cur > 0 then 2L
        else if !pending then 1L
        else if !burst < bursts then begin
          cur := lens.(!burst);
          incr burst;
          2L
        end
        else 0L
      | 4 when !cur > 0 ->
        decr cur;
        incr seq;
        if !cur = 0 then pending := true;
        let v = Int64.of_int (!seq land 0xff) in
        sum := Int64.add !sum v;
        v
      | _ -> 0L
    in
    let write off _w v =
      if off = 8 then begin
        pending := false;
        incr flushes;
        if v <> !sum then incr mismatches;
        sum := 0L
      end
    in
    let check () =
      if !flushes <> bursts then
        Error (Printf.sprintf "flushed %d of %d bursts" !flushes bursts)
      else if !mismatches > 0 then
        Error (Printf.sprintf "%d flush sums wrong" !mismatches)
      else Ok ()
    in
    { devices = [ M.Device.v "SENSOR" ~base ~size ~read ~write ]; check }
  in
  { board = M.Memmap.stm32f4_discovery;
    backend;
    program;
    input = C.Dev_input.v [ "sense_sample"; "flush_buffer" ];
    telemetry = true;
    items = samples + bursts;
    world }

(* --- the five workloads ------------------------------------------------- *)

(* Sizes put one timed run at 0.3-0.7 s on a 2-core x86 host, so a
   10-second measurement holds 10-25 runs to take the best of; tcp-echo
   and coremark are kept just above 1000 switch spans, so the p99 has at
   least ten samples beyond it.  [smoke] sizes keep the whole set under
   a few seconds for the test suite. *)
let make ~smoke ~seed name =
  let pick full small = if smoke then small else full in
  let kind =
    match name with
    | "request-storm" -> Guest (request_storm ~seed (pick 150_000 2_000))
    | "sensor-burst-pmp" ->
      Guest (sensor_burst ~seed ~backend:M.Backend.Pmp (pick 8_000 60))
    | "tcp-echo" ->
      Guest
        (of_app ~items:(pick 160 20)
           (Apps.Registry.tcp_echo ~valid:(pick 16 2) ~invalid:(pick 144 18) ()))
    | "coremark" ->
      let iterations = pick 128 4 in
      Guest (of_app ~items:iterations (Apps.Registry.coremark ~iterations ()))
    | "compile-sweep" ->
      Sweep
        (Array.init (pick 1500 20) (fun i ->
             Opec_fuzz.Gen.case ~seed:((seed * 1_000_000) + i) ~size:3))
    | _ -> invalid_arg name
  in
  { name; kind }
