(** The staged, memoized artifact store (compile-once pipeline).

    Artifacts — validated program, points-to, call graph, resources,
    partition, OPEC image, ACES analyses, and the baseline / protected
    reference runs — are computed at most once per workload per process
    and shared by every consumer.  A context is keyed by the workload's
    name plus a digest of its (program, dev_input, board) triple, so
    size-variants occupy distinct entries and a mutated developer input
    misses the cache.

    The store is domain-safe; {!parallel_map} fans per-app pipelines out
    across a {!Pool} of stdlib domains with deterministic (input-order)
    results. *)

type baseline = {
  b_run : Opec_monitor.Runner.baseline_run;
  b_err : exn option;
      (** [Interp.Aborted] or [Interp.Fuel_exhausted], if the run died *)
  b_cycles : int64;
  b_events : Opec_exec.Trace.event list;
      (** the run's trace; includes [Access] events only for
          {!baseline_traced}, and is empty for {!baseline_marked} *)
  b_check : (unit, string) result;
  b_flash : int;
  b_sram : int;
}

type protected_result = {
  p_run : Opec_monitor.Runner.protected_run;
  p_err : exn option;
  p_cycles : int64;
  p_check : (unit, string) result;
  p_stats : Opec_monitor.Stats.t;
  p_switches : int;
      (** the interpreter's independent SVC transition count *)
  p_events : Opec_obs.Sink.event list;
      (** the telemetry stream, in emission order *)
}

type ctx

(** The store context for a workload: creates or retrieves the entry
    keyed by the workload's fingerprint plus the enforcement backend
    (default MPU) — each backend's image and reference runs memoize
    separately. *)
val ctx : ?backend:Opec_machine.Backend.kind -> Opec_apps.App.t -> ctx

val app : ctx -> Opec_apps.App.t
val backend : ctx -> Opec_machine.Backend.kind
val key : ctx -> string

(** Drop every cached artifact (all workloads). *)
val reset : unit -> unit

(** Drop one workload's cached artifacts (the fuzz sweep's memory
    bound: each generated program evicts its entry once judged). *)
val evict : ctx -> unit

(** Compile-time stages, each memoized. *)

val validated : ctx -> Opec_ir.Program.t
val points_to : ctx -> Opec_analysis.Points_to.t
val callgraph : ctx -> Opec_analysis.Callgraph.t
val resources : ctx -> Opec_analysis.Resource.t
val ops : ctx -> Opec_core.Operation.t list
val syncsets : ctx -> Opec_analysis.Syncset.t
val image : ctx -> Opec_core.Image.t
val aces : ctx -> Opec_aces.Strategy.kind -> Opec_aces.Aces.t

(** Reference runs, each memoized. *)

(** The plain unprotected baseline (function-granularity trace). *)
val baseline : ctx -> baseline

(** The baseline traced at memory-access granularity — the lint
    oracle's raw material.  Identical cycle counts to {!baseline};
    kept as a separate stage because access events are bulky. *)
val baseline_traced : ctx -> baseline

(** Baseline with the image's operation entries marked, so its cycle
    accounting matches runs that trap at switch points (the attack
    campaign's clean reference). *)
val baseline_marked : ctx -> baseline

(** The protected reference run, with an in-memory telemetry collector
    attached: the evaluation's numbers and the [opec trace] exporters'
    and overhead breakdown's event stream, from one run.  Telemetry
    charges no cycles, so its cycles and statistics equal a sink-less
    run's. *)
val protected_ : ctx -> protected_result

(** Re-raise a memoized run's terminating exception, if any. *)
val reraise : exn option -> unit

(** Stage instrumentation. *)

(** Every stage's name, in pipeline order: the compile-time stages, the
    reference runs, then one [aces:ACESn] stage per ACES strategy. *)
val stage_names : string list

(** [(stage, seconds)] of every stage computed so far, in computation
    order — the data behind [opec profile]. *)
val timings : ctx -> (string * float) list

(** How many times each stage was actually computed (cache misses). *)
val compute_counts : ctx -> (string * int) list

(** One stage's entry of {!compute_counts} (0 when never computed). *)
val compute_count : ctx -> string -> int

(** Materialize the full pipeline for one workload. *)
val warm : ctx -> unit

(** Evaluate [f] over per-app pipelines on the domain pool;
    deterministic (input-order) results. *)
val parallel_map :
  ?domains:int ->
  ?backend:Opec_machine.Backend.kind ->
  (ctx -> 'a) ->
  Opec_apps.App.t list ->
  'a list

(** Pre-materialize every app's pipeline in parallel; subsequent
    sequential rendering hits only the cache. *)
val warm_all : ?domains:int -> Opec_apps.App.t list -> unit
