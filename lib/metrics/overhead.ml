(* Figure 9 (runtime/flash/SRAM overhead of OPEC) and Table 2 (comparison
   of OPEC with the three ACES strategies). *)

module M = Opec_machine
module C = Opec_core
module A = Opec_aces
module P = Opec_pipeline.Pipeline

type fig9_row = {
  app : string;
  runtime_pct : float;
  flash_pct : float;
  sram_pct : float;
}

let fig9_average rows =
  let n = float_of_int (max 1 (List.length rows)) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  { app = "Average";
    runtime_pct = sum (fun r -> r.runtime_pct) /. n;
    flash_pct = sum (fun r -> r.flash_pct) /. n;
    sram_pct = sum (fun r -> r.sram_pct) /. n }

(* The store's baseline and protected runs of [app], each re-raising
   its run's terminating exception as an uncached run would. *)
let runs (app : Opec_apps.App.t) =
  let c = P.ctx app in
  let baseline = P.baseline c in
  P.reraise baseline.P.b_err;
  let protected_ = P.protected_ c in
  P.reraise protected_.P.p_err;
  (P.image c, baseline, protected_)

(* task instances (entry, executed functions) from a baseline trace *)
let task_instances (app : Opec_apps.App.t) (b : P.baseline) =
  Opec_exec.Trace.tasks_of ~entries:(Opec_apps.App.task_entries app)
    b.P.b_events

let runtime_overhead_pct ~(baseline : P.baseline)
    ~(protected_ : P.protected_result) =
  let b = Int64.to_float baseline.P.b_cycles in
  let p = Int64.to_float protected_.P.p_cycles in
  if b = 0.0 then 0.0 else (p -. b) /. b *. 100.0

let fig9_of_app (app : Opec_apps.App.t) =
  let image, baseline, protected_ = runs app in
  { app = app.Opec_apps.App.app_name;
    runtime_pct = runtime_overhead_pct ~baseline ~protected_;
    flash_pct = C.Image.flash_overhead_pct image;
    sram_pct = C.Image.sram_overhead_pct image }

(* --- Table 2 rows -------------------------------------------------------- *)

type t2_row = {
  t2_app : string;
  policy : string;     (** OPEC / ACES-1 / ACES-2 / ACES-3 *)
  ro : float;          (** runtime ratio vs baseline (x) *)
  fo : float;          (** flash overhead %, of device flash *)
  so : float;          (** SRAM overhead %, of device SRAM *)
  pac : float;         (** privileged application code % *)
}

let t2_opec (app : Opec_apps.App.t) image ~(baseline : P.baseline)
    ~(protected_ : P.protected_result) =
  { t2_app = app.Opec_apps.App.app_name;
    policy = "OPEC";
    ro =
      Int64.to_float protected_.P.p_cycles
      /. Int64.to_float (max 1L baseline.P.b_cycles);
    fo = C.Image.flash_overhead_pct image;
    so = C.Image.sram_overhead_pct image;
    pac = 0.0 (* instruction emulation keeps all application code unprivileged *) }

let t2_aces (app : Opec_apps.App.t) kind ~(baseline : P.baseline) =
  let aces = P.aces (P.ctx app) kind in
  let switches = A.Aces.count_switches aces baseline.P.b_events in
  let switch_cycles = switches * A.Aces.switch_cost_cycles in
  let board = app.Opec_apps.App.board in
  { t2_app = app.Opec_apps.App.app_name;
    policy = A.Strategy.name kind;
    ro =
      (Int64.to_float baseline.P.b_cycles +. float_of_int switch_cycles)
      /. Int64.to_float (max 1L baseline.P.b_cycles);
    fo =
      100.0
      *. float_of_int (A.Aces.flash_overhead_bytes aces)
      /. float_of_int board.M.Memmap.flash_size;
    so =
      100.0
      *. float_of_int (A.Aces.sram_overhead_bytes aces)
      /. float_of_int board.M.Memmap.sram_size;
    pac = A.Aces.privileged_app_code_pct aces }

let table2_of_app (app : Opec_apps.App.t) =
  let image, baseline, protected_ = runs app in
  t2_opec app image ~baseline ~protected_
  :: List.map
       (fun kind -> t2_aces app kind ~baseline)
       [ A.Strategy.Filename; A.Strategy.Filename_no_opt;
         A.Strategy.By_peripheral ]

(* --- overhead breakdown (Section 6.3) ------------------------------------ *)

module Obs = Opec_obs

(* Where the monitor's overhead cycles go, per workload, measured from
   the telemetry stream of the instrumented protected run.  The phase
   buckets come from the span samples; [bd_svc] is the SVC pipeline cost
   (4 cycles per completed trap); [bd_other] is the residual of the
   total overhead not inside any monitor span — fault-handling entry
   costs, re-executed instructions after a Retry, and the switched
   program's own extra work. *)
type breakdown = {
  bd_app : string;
  bd_base_cycles : int64;
  bd_prot_cycles : int64;
  bd_overhead_cycles : int64;  (** protected - baseline *)
  bd_sanitize : int64;
  bd_sync : int64;
  bd_relocate : int64;
  bd_mpu : int64;
      (** 0 in this model: installing a protection state is a register
          write the machine charges no bus cycles for *)
  bd_init : int64;   (** the one-time init span (shadow fill + first arm) *)
  bd_svc : int64;    (** 4-cycle SVC pipeline cost per completed trap *)
  bd_other : int64;  (** residual overhead outside monitor spans *)
  bd_switches : int;
  bd_swaps : int;
  bd_emulations : int;
  bd_synced_bytes : int;
}

let svc_trap_cycles = 4L

let breakdown_of ~app_name ~base_cycles ~prot_cycles
    (agg : Obs.Agg.t) =
  let overhead = Int64.sub prot_cycles base_cycles in
  let ph p = Obs.Agg.phase_cycles agg p in
  let sanitize = ph Obs.Sink.Sanitize in
  let sync = ph Obs.Sink.Sync in
  let relocate = ph Obs.Sink.Relocate in
  let mpu = ph Obs.Sink.Mpu_config in
  let init = agg.Obs.Agg.init_cycles in
  let svc = Int64.mul svc_trap_cycles (Int64.of_int agg.Obs.Agg.svc_marks) in
  let accounted =
    List.fold_left Int64.add 0L [ sanitize; sync; relocate; mpu; svc ]
  in
  (* init's phase legs are already inside sanitize/sync/..., so subtract
     the phase totals (which include init's samples) plus svc only *)
  { bd_app = app_name;
    bd_base_cycles = base_cycles;
    bd_prot_cycles = prot_cycles;
    bd_overhead_cycles = overhead;
    bd_sanitize = sanitize;
    bd_sync = sync;
    bd_relocate = relocate;
    bd_mpu = mpu;
    bd_init = init;
    bd_svc = svc;
    bd_other = Int64.sub overhead accounted;
    bd_switches = agg.Obs.Agg.switch_spans;
    bd_swaps = agg.Obs.Agg.swap_events;
    bd_emulations = agg.Obs.Agg.emulation_events;
    bd_synced_bytes = agg.Obs.Agg.synced_bytes }

(* Run one workload baseline + instrumented-protected (both memoized)
   and derive its overhead breakdown.  The baseline is unprotected and
   backend-independent, so every backend shares the default context's
   run; only the protected run is per-backend. *)
let breakdown_of_app ?backend (app : Opec_apps.App.t) =
  let baseline = P.baseline (P.ctx app) in
  P.reraise baseline.P.b_err;
  let p = P.protected_ (P.ctx ?backend app) in
  P.reraise p.P.p_err;
  breakdown_of ~app_name:app.Opec_apps.App.app_name
    ~base_cycles:baseline.P.b_cycles ~prot_cycles:p.P.p_cycles
    (Obs.Agg.of_events p.P.p_events)

(* The one serialization of a breakdown, shared by [bench obs] and the
   cross-backend study; the caller adds the row's identity. *)
let breakdown_json (b : breakdown) =
  let c v = Obs.Json.Int (Int64.to_int v) and n v = Obs.Json.Int v in
  [ ("baseline_cycles", c b.bd_base_cycles); ("protected_cycles", c b.bd_prot_cycles);
    ("overhead_cycles", c b.bd_overhead_cycles); ("sanitize", c b.bd_sanitize);
    ("sync", c b.bd_sync); ("relocate", c b.bd_relocate); ("mpu", c b.bd_mpu);
    ("svc", c b.bd_svc); ("init", c b.bd_init); ("other", c b.bd_other);
    ("switches", n b.bd_switches); ("swaps", n b.bd_swaps);
    ("emulations", n b.bd_emulations); ("synced_bytes", n b.bd_synced_bytes) ]
