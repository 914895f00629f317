(* Measurements of a workload as the vanilla baseline and under OPEC.

   This module is a thin view over the compile-once artifact pipeline
   ({!Opec_pipeline.Pipeline}): compiling and running are memoized per
   workload per process, so a full evaluation sweep derives each
   artifact exactly once no matter how many tables and figures consume
   it.  A protected run of an image the store did not produce bypasses
   it and runs fresh. *)

module C = Opec_core
module E = Opec_exec
module Mon = Opec_monitor
module Apps = Opec_apps
module P = Opec_pipeline.Pipeline

type baseline_result = {
  b_cycles : int64;
  b_trace : E.Trace.event list;
  b_check : (unit, string) result;
  b_flash : int;
  b_sram : int;
}

(* The plain baseline stage records no [Access] events, so its stream
   is already the function-granularity view and can be shared without
   copying (it may be millions of events long). *)
let view_baseline (b : P.baseline) =
  { b_cycles = b.P.b_cycles;
    b_trace = b.P.b_events;
    b_check = b.P.b_check;
    b_flash = b.P.b_flash;
    b_sram = b.P.b_sram }

let run_baseline (app : Apps.App.t) =
  let b = P.baseline (P.ctx app) in
  P.reraise b.P.b_err;
  view_baseline b

type protected_result = {
  p_cycles : int64;
  p_check : (unit, string) result;
  p_stats : Mon.Stats.t;
  p_image : C.Image.t;
}

let compile (app : Apps.App.t) = P.image (P.ctx app)

(* a foreign image (one the store did not produce) cannot reuse the
   memoized run *)
let run_fresh image (app : Apps.App.t) =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let r =
    Mon.Runner.run_protected ~devices:world.Apps.App.devices
      ~engine:(P.current_engine ()) image
  in
  { p_cycles = E.Interp.cycles r.Mon.Runner.interp;
    p_check = world.Apps.App.check ();
    p_stats = Mon.Monitor.stats r.Mon.Runner.monitor;
    p_image = image }

let run_protected ?image (app : Apps.App.t) =
  let c = P.ctx app in
  match image with
  | Some image when image != P.image c -> run_fresh image app
  | _ ->
    let p = P.protected_ c in
    P.reraise p.P.p_err;
    { p_cycles = p.P.p_cycles;
      p_check = p.P.p_check;
      p_stats = p.P.p_stats;
      p_image = P.image c }

(* task instances (entry, executed functions) from a baseline trace *)
let task_instances (app : Apps.App.t) (b : baseline_result) =
  E.Trace.tasks_of ~entries:(Apps.App.task_entries app) b.b_trace

let runtime_overhead_pct ~(baseline : baseline_result)
    ~(protected_ : protected_result) =
  let b = Int64.to_float baseline.b_cycles in
  let p = Int64.to_float protected_.p_cycles in
  if b = 0.0 then 0.0 else (p -. b) /. b *. 100.0
