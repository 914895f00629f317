(** Drive a workload as the vanilla baseline and under OPEC, collecting
    the measurements the evaluation consumes.

    Backed by the compile-once artifact pipeline: [compile],
    [run_baseline], and [run_protected] are memoized per workload per
    process, so an evaluation sweep derives each artifact exactly once. *)

type baseline_result = {
  b_cycles : int64;
  b_trace : Opec_exec.Trace.event list;
  b_check : (unit, string) result;
  b_flash : int;
  b_sram : int;
}

val run_baseline : Opec_apps.App.t -> baseline_result

type protected_result = {
  p_cycles : int64;
  p_check : (unit, string) result;
  p_stats : Opec_monitor.Stats.t;
  p_image : Opec_core.Image.t;
}

(** Compile a workload with its developer inputs (memoized). *)
val compile : Opec_apps.App.t -> Opec_core.Image.t

(** Run protected; pass [image] to reuse a compiled image.  The run is
    memoized when [image] is the store's own image (or omitted). *)
val run_protected :
  ?image:Opec_core.Image.t -> Opec_apps.App.t -> protected_result

(** Task instances (entry, executed functions) segmented from a baseline
    trace — the paper's GDB-based task profiling. *)
val task_instances :
  Opec_apps.App.t -> baseline_result -> (string * string list) list

(** Figure 9's runtime overhead: (protected - baseline) / baseline. *)
val runtime_overhead_pct :
  baseline:baseline_result -> protected_:protected_result -> float
