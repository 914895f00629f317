(** Figure 9 (OPEC overhead) and Table 2 (comparison to ACES). *)

type fig9_row = {
  app : string;
  runtime_pct : float;
  flash_pct : float;  (** of device flash capacity *)
  sram_pct : float;   (** of device SRAM capacity *)
}

val fig9_average : fig9_row list -> fig9_row

(** Run one workload baseline + protected and derive its Figure 9 row. *)
val fig9_of_app : Opec_apps.App.t -> fig9_row

(** Figure 9's runtime overhead: (protected - baseline) / baseline. *)
val runtime_overhead_pct :
  baseline:Opec_pipeline.Pipeline.baseline ->
  protected_:Opec_pipeline.Pipeline.protected_result ->
  float

(** Task instances (entry, executed functions) segmented from a baseline
    trace — the paper's GDB-based task profiling. *)
val task_instances :
  Opec_apps.App.t -> Opec_pipeline.Pipeline.baseline ->
  (string * string list) list

type t2_row = {
  t2_app : string;
  policy : string;  (** OPEC / ACES1 / ACES2 / ACES3 *)
  ro : float;       (** runtime ratio vs baseline (x) *)
  fo : float;       (** flash overhead, % of device flash *)
  so : float;       (** SRAM overhead, % of device SRAM *)
  pac : float;      (** privileged application code, % *)
}

(** The four policy rows of one application. *)
val table2_of_app : Opec_apps.App.t -> t2_row list

(** {2 Overhead breakdown (Section 6.3)} *)

(** Where the monitor's overhead cycles go for one workload, measured
    from the telemetry stream of the instrumented protected run.  The
    phase buckets include the one-time init span's legs; [bd_init]
    reports that span separately for reference.  [bd_other] is the part
    of the total overhead spent outside monitor spans (fault-handler
    entry, re-executed instructions after an MPU rotation retry, and the
    protected program's own extra work). *)
type breakdown = {
  bd_app : string;
  bd_base_cycles : int64;
  bd_prot_cycles : int64;
  bd_overhead_cycles : int64;  (** protected - baseline *)
  bd_sanitize : int64;
  bd_sync : int64;
  bd_relocate : int64;
  bd_mpu : int64;
      (** 0 in this model: MPU reconfiguration is a register write the
          machine charges no bus cycles for *)
  bd_init : int64;
  bd_svc : int64;    (** 4-cycle SVC pipeline cost per completed trap *)
  bd_other : int64;
  bd_switches : int;
  bd_swaps : int;
  bd_emulations : int;
  bd_synced_bytes : int;
}

val svc_trap_cycles : int64

(** Derive a breakdown from already-measured numbers. *)
val breakdown_of :
  app_name:string ->
  base_cycles:int64 ->
  prot_cycles:int64 ->
  Opec_obs.Agg.t ->
  breakdown

(** Run one workload baseline + instrumented-protected (both memoized)
    and derive its overhead breakdown.  [backend] selects the
    enforcement backend of the protected run (default MPU); the
    unprotected baseline is shared across backends. *)
val breakdown_of_app :
  ?backend:Opec_machine.Backend.kind -> Opec_apps.App.t -> breakdown

(** The breakdown's JSON members, [baseline_cycles] through
    [synced_bytes] ([bd_app] excluded), in a fixed order. *)
val breakdown_json : breakdown -> (string * Opec_obs.Json.t) list
