(* Traffic-driven load scenarios: server-shaped drivers that push
   sustained event streams through a protected image and report the
   operation-switch latency distribution per enforcement backend.

   Each scenario is the software half of a test harness: a scripted
   device model stands in for the outside world (a TCP client, a
   sensor, an interrupt source), the firmware half is an ordinary IR
   program whose operation entries are crossed once per stimulus, and
   the telemetry sink streams into an {!Opec_obs.Agg} so memory stays
   constant no matter how many events a run drives. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor
module Ex = Opec_exec
module Obs = Opec_obs
module Apps = Opec_apps

type kind =
  | Request_storm     (* request/response stream, one op crossing each *)
  | Sensor_burst      (* bursts of samples with a flush op at boundaries *)
  | Interrupt_preempt (* preemptive thread switches between two operations *)
  | Tcp_echo_slice    (* the bundled TCP-Echo app under scaled traffic *)

let all = [ Request_storm; Sensor_burst; Interrupt_preempt; Tcp_echo_slice ]

let name = function
  | Request_storm -> "request-storm"
  | Sensor_burst -> "sensor-burst"
  | Interrupt_preempt -> "interrupt-preempt"
  | Tcp_echo_slice -> "tcp-echo-slice"

let of_name s = List.find_opt (fun k -> name k = s) all

type result = {
  r_scenario : string;
  r_backend : string;
  r_stimuli : int;        (** injected requests / samples / yields / frames *)
  r_telemetry : int;      (** monitor telemetry events consumed by the sink *)
  r_events : int;         (** stimuli + telemetry: the run's event total *)
  r_switch_spans : int;
  r_cycles : int64;       (** guest cycles executed *)
  r_wall_s : float;
  r_p50 : int64;
  r_p99 : int64;
  r_p999 : int64;
  r_max : int64;
  r_mean : float;
  r_check : (unit, string) Stdlib.result;
  r_stats : Mon.Stats.t;
}

(* Every [Stats] counter the telemetry stream shadows must equal its
   [Agg] twin; drift means an emission site or a counter bump is
   missing. *)
let drift (stats : Mon.Stats.t) (agg : Obs.Agg.t) =
  List.filter_map
    (fun (what, counted, observed) ->
      if counted = observed then None
      else Some (Printf.sprintf "Stats.%s %d <> telemetry %d" what counted observed))
    [ ("switches", stats.Mon.Stats.switches, agg.Obs.Agg.switch_spans);
      ("virt_swaps", stats.Mon.Stats.virt_swaps, agg.Obs.Agg.swap_events);
      ("emulations", stats.Mon.Stats.emulations, agg.Obs.Agg.emulation_events);
      ("denied", stats.Mon.Stats.denied, agg.Obs.Agg.denial_events);
      ("synced_bytes", stats.Mon.Stats.synced_bytes, agg.Obs.Agg.synced_bytes) ]

let finish ~kind ~backend ~stimuli ~cycles ~wall ~check ~stats
    (agg : Obs.Agg.t) =
  let h = agg.Obs.Agg.all_latency in
  let telemetry = Obs.Agg.event_count agg in
  let check =
    match (check, drift stats agg) with
    | check, [] -> check
    | Ok (), ds -> Error (String.concat "; " ds)
    | Error e, ds -> Error (String.concat "; " (e :: ds))
  in
  { r_scenario = name kind;
    r_backend = M.Backend.kind_name backend;
    r_stimuli = stimuli;
    r_telemetry = telemetry;
    r_events = stimuli + telemetry;
    r_switch_spans = agg.Obs.Agg.switch_spans;
    r_cycles = cycles;
    r_wall_s = wall;
    r_p50 = Obs.Agg.hist_percentile h 0.5;
    r_p99 = Obs.Agg.hist_percentile h 0.99;
    r_p999 = Obs.Agg.hist_percentile h 0.999;
    r_max = Int64.of_int (if h.Obs.Agg.samples = 0 then 0 else h.Obs.Agg.max);
    r_mean = Obs.Agg.hist_mean h;
    r_check = check;
    r_stats = stats }

(* --- request-storm ------------------------------------------------------ *)

(* A request generator register window: AVAIL at +0, POP at +4 (reads
   consume one request), RESP at +8 (writes acknowledge one).  The
   firmware polls AVAIL from the default operation and crosses into the
   [serve_request] operation once per request — every request is one
   Enter and one Exit switch. *)
let request_storm ?backend requests =
  let base = 0x4000_0000 and size = 0x400 in
  let periph = Peripheral.v "REQGEN" ~base ~size in
  let remaining = ref requests in
  let cursor = ref 0 in
  let responses = ref 0 in
  let dev =
    M.Device.v "REQGEN" ~base ~size
      ~read:(fun off _w ->
        match off with
        | 0 -> if !remaining > 0 then 1L else 0L
        | 4 ->
          if !remaining > 0 then begin
            decr remaining;
            incr cursor
          end;
          Int64.of_int (!cursor land 0xff)
        | _ -> 0L)
      ~write:(fun off _w _v -> if off = 8 then incr responses)
  in
  let program =
    Program.v ~name:"load-request-storm"
      ~globals:
        [ word "handled"; word "total" ~init:(Int64.of_int requests) ]
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
  let image =
    C.Compiler.compile ?backend program (C.Dev_input.v [ "serve_request" ])
  in
  let agg = Obs.Agg.create () in
  let t0 = Unix.gettimeofday () in
  let run =
    Mon.Runner.run_protected ~devices:[ dev ]
      ~sink:(Obs.Sink.make (Obs.Agg.add agg))
      image
  in
  let wall = Unix.gettimeofday () -. t0 in
  let check =
    if !responses = requests then Ok ()
    else
      Error
        (Printf.sprintf "acknowledged %d of %d requests" !responses requests)
  in
  (requests, agg, Ex.Interp.cycles run.Mon.Runner.interp, wall, check,
   Mon.Monitor.stats run.Mon.Runner.monitor)

(* --- sensor-burst ------------------------------------------------------- *)

(* A sensor that produces bursts of samples: NEXT at +0 reports status
   (2 = sample ready, 1 = burst boundary / flush needed, 0 = done),
   DATA at +4 pops one sample, OUT at +8 takes the flushed
   accumulator.  The firmware alternates two operations —
   [sense_sample] per sample and [flush_buffer] at burst boundaries —
   so the switch matrix sees both op-to-op directions under storm
   pressure. *)
let sensor_burst ?backend ~burst_len bursts =
  let base = 0x4000_0400 and size = 0x400 in
  let periph = Peripheral.v "SENSOR" ~base ~size in
  let bursts_left = ref bursts in
  let cur = ref 0 in
  let flush_pending = ref false in
  let seq = ref 0 in
  let host_sum = ref 0L in
  let flushes = ref 0 in
  let mismatches = ref 0 in
  let dev =
    M.Device.v "SENSOR" ~base ~size
      ~read:(fun off _w ->
        match off with
        | 0 ->
          if !cur > 0 then 2L
          else if !flush_pending then 1L
          else if !bursts_left > 0 then begin
            decr bursts_left;
            cur := burst_len;
            2L
          end
          else 0L
        | 4 ->
          if !cur > 0 then begin
            decr cur;
            incr seq;
            if !cur = 0 then flush_pending := true
          end;
          let v = Int64.of_int (!seq land 0xff) in
          host_sum := Int64.add !host_sum v;
          v
        | _ -> 0L)
      ~write:(fun off _w v ->
        if off = 8 then begin
          flush_pending := false;
          incr flushes;
          if v <> !host_sum then incr mismatches;
          host_sum := 0L
        end)
  in
  let program =
    Program.v ~name:"load-sensor-burst"
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
  let image =
    C.Compiler.compile ?backend program
      (C.Dev_input.v [ "sense_sample"; "flush_buffer" ])
  in
  let agg = Obs.Agg.create () in
  let t0 = Unix.gettimeofday () in
  let run =
    Mon.Runner.run_protected ~devices:[ dev ]
      ~sink:(Obs.Sink.make (Obs.Agg.add agg))
      image
  in
  let wall = Unix.gettimeofday () -. t0 in
  let stimuli = (bursts * burst_len) + !flushes in
  let check =
    if !flushes <> bursts then
      Error (Printf.sprintf "flushed %d of %d bursts" !flushes bursts)
    else if !mismatches > 0 then
      Error (Printf.sprintf "%d flush sums wrong" !mismatches)
    else Ok ()
  in
  (stimuli, agg, Ex.Interp.cycles run.Mon.Runner.interp, wall, check,
   Mon.Monitor.stats run.Mon.Runner.monitor)

(* --- interrupt-preempt -------------------------------------------------- *)

(* Two operation threads ticking a shared counter and yielding after
   every tick — the cooperative stand-in for interrupt-driven
   preemption.  Every yield is a full monitor context switch (shadow
   write-back + sync + MPU reconfiguration), so the Thread spans
   dominate the latency histogram. *)
let interrupt_preempt ?backend rounds =
  let worker which ticks =
    func which [] ~file:"app.c"
      (for_ "i" (c rounds)
         [ load "n" (gv "shared");
           store (gv "shared") E.(l "n" + c 1);
           load "t" (gv ticks);
           store (gv ticks) E.(l "t" + c 1);
           Instr.Svc Mon.Threads.yield_svc ]
      @ [ ret0 ])
  in
  let program =
    Program.v ~name:"load-interrupt-preempt"
      ~globals:[ word "shared"; word "ticks_a"; word "ticks_b" ]
      ~peripherals:[]
      ~funcs:
        [ worker "worker_a" "ticks_a";
          worker "worker_b" "ticks_b";
          func "main" [] ~file:"main.c" [ halt ] ]
      ()
  in
  let image =
    C.Compiler.compile ?backend program
      (C.Dev_input.v [ "worker_a"; "worker_b" ])
  in
  let agg = Obs.Agg.create () in
  let t0 = Unix.gettimeofday () in
  let run =
    Mon.Runner.prepare ~sink:(Obs.Sink.make (Obs.Agg.add agg)) image
  in
  Mon.Monitor.init run.Mon.Runner.monitor;
  let sched = Mon.Threads.create run in
  ignore (Mon.Threads.spawn sched ~entry:"worker_a" ~args:[] ~stack_bytes:1024);
  ignore (Mon.Threads.spawn sched ~entry:"worker_b" ~args:[] ~stack_bytes:1024);
  Mon.Threads.run sched;
  let wall = Unix.gettimeofday () -. t0 in
  let shared =
    M.Bus.read_raw run.Mon.Runner.bus
      (image.C.Image.map.Ex.Address_map.global_addr "shared")
      4
  in
  let stimuli = 2 * rounds in
  let check =
    if Int64.to_int shared <> stimuli then
      Error
        (Printf.sprintf "shared counter %Ld after %d ticks" shared stimuli)
    else if Mon.Threads.context_switches sched < stimuli then
      Error
        (Printf.sprintf "only %d context switches for %d yields"
           (Mon.Threads.context_switches sched)
           stimuli)
    else Ok ()
  in
  (stimuli, agg, Ex.Interp.cycles run.Mon.Runner.interp, wall, check,
   Mon.Monitor.stats run.Mon.Runner.monitor)

(* --- tcp-echo-slice ----------------------------------------------------- *)

(* The bundled TCP-Echo application under a scaled traffic script: the
   full lwIP-shaped RX path (checksum, demux, connection lookup) runs
   per frame, so per-event cost is far higher than the synthetic
   storms — the slice stays small and measures the realistic app
   shape, not throughput. *)
let tcp_echo_slice ?backend frames =
  let valid = max 1 (frames / 10) in
  let invalid = frames - valid in
  let app = Apps.Registry.tcp_echo ~valid ~invalid () in
  let image =
    C.Compiler.compile ~board:app.Apps.App.board ?backend
      app.Apps.App.program app.Apps.App.dev_input
  in
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let agg = Obs.Agg.create () in
  let t0 = Unix.gettimeofday () in
  let run =
    Mon.Runner.run_protected ~devices:world.Apps.App.devices
      ~sink:(Obs.Sink.make (Obs.Agg.add agg))
      image
  in
  let wall = Unix.gettimeofday () -. t0 in
  (frames, agg, Ex.Interp.cycles run.Mon.Runner.interp, wall,
   world.Apps.App.check (), Mon.Monitor.stats run.Mon.Runner.monitor)

(* --- sizing and the driver ---------------------------------------------- *)

(* Pilot a small run, measure events per stimulus, then size the full
   run to the event target.  Device scripts are deterministic, so the
   ratio transfers exactly up to the constant startup term. *)
let pilot_stimuli = 128

let run ?(backend = M.Backend.Mpu) ?(target_events = 100_000) kind =
  let backend_arg = Some backend in
  let measure n =
    match kind with
    | Request_storm -> request_storm ?backend:backend_arg n
    | Sensor_burst ->
      (* 15 samples then a flush: bursts carry 16 stimuli each *)
      let bursts = max 1 ((n + 15) / 16) in
      sensor_burst ?backend:backend_arg ~burst_len:15 bursts
    | Interrupt_preempt ->
      interrupt_preempt ?backend:backend_arg (max 1 (n / 2))
    | Tcp_echo_slice -> tcp_echo_slice ?backend:backend_arg n
  in
  let stimuli =
    match kind with
    | Tcp_echo_slice ->
      (* fixed slice: the app's cost per frame makes event targets in
         the millions impractical, and the point is shape, not rate *)
      500
    | _ ->
      let p_stim, p_agg, _, _, _, _ = measure pilot_stimuli in
      let per =
        float_of_int (p_stim + Obs.Agg.event_count p_agg)
        /. float_of_int (max 1 p_stim)
      in
      int_of_float (ceil (float_of_int target_events /. per))
  in
  let stimuli, agg, cycles, wall, check, stats = measure stimuli in
  finish ~kind ~backend ~stimuli ~cycles ~wall ~check ~stats agg

let pp_result f r =
  Format.fprintf f
    "@[<v>%s [%s]: %d events (%d stimuli + %d telemetry) in %.2fs, %Ld cycles@,\
     switch latency: %d spans, mean %.1f, p50 %Ld, p99 %Ld, p999 %Ld, max %Ld@,\
     check: %s@]"
    r.r_scenario r.r_backend r.r_events r.r_stimuli r.r_telemetry r.r_wall_s
    r.r_cycles r.r_switch_spans r.r_mean r.r_p50 r.r_p99 r.r_p999 r.r_max
    (match r.r_check with Ok () -> "ok" | Error e -> e)

(* JSON emission for [opec load --json]. *)
let result_json r =
  let module J = Obs.Json in
  let c v = J.Int (Int64.to_int v) and n v = J.Int v in
  J.Obj
    [ ("scenario", J.String r.r_scenario); ("backend", J.String r.r_backend);
      ("events", n r.r_events); ("stimuli", n r.r_stimuli);
      ("telemetry", n r.r_telemetry); ("switch_spans", n r.r_switch_spans);
      ("cycles", c r.r_cycles); ("wall_s", J.Float r.r_wall_s);
      (* one decimal, as the text report prints it *)
      ("mean", J.Float (float_of_string (Printf.sprintf "%.1f" r.r_mean)));
      ("p50", c r.r_p50); ("p99", c r.r_p99); ("p999", c r.r_p999);
      ("max", c r.r_max);
      ("check", J.String (match r.r_check with Ok () -> "ok" | Error e -> e)) ]
