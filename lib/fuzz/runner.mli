(** The sweep driver: fan a seed range across the domain pool, judge
    every generated program with the {!Oracle} properties, shrink any
    failure, and persist reproducers.

    Per-seed results are deterministic and come back in seed order, so
    two sweeps over the same range agree byte-for-byte; the pipeline
    entry of every judged seed is evicted, holding memory constant over
    arbitrarily long sweeps. *)

type failure = {
  f_seed : int;
  f_property : string;   (** first failing property *)
  f_detail : string;
  f_funcs_before : int;
  f_funcs_after : int;   (** function count after shrinking *)
  f_repro : string option;  (** reproducer path, when one was written *)
}

type report = {
  r_lo : int;
  r_hi : int;
  r_size : int;
  r_properties : string list;
  r_passed : int;
  r_failures : failure list;
}

(** Sweep seeds [lo..hi] (inclusive).  [properties] selects oracle
    names (default: all); unknown names raise [Invalid_argument].
    Failures are shrunk unless [shrink:false] and written under
    [out_dir] (default ["_fuzz"]). *)
val run :
  ?domains:int ->
  ?size:int ->
  ?properties:string list ->
  ?out_dir:string ->
  ?shrink:bool ->
  lo:int ->
  hi:int ->
  unit ->
  report

(** Re-judge a saved reproducer; the failing [(property, detail)]
    pairs, empty when the failure no longer reproduces.  [Error reason]
    when the file does not parse or its program is ill-formed. *)
val replay : string -> ((string * string) list, string) result

val pp_report : Format.formatter -> report -> unit

(** {1 Coverage-guided mode} *)

type guided_failure = {
  gf_origin : string;   (** "seed N" or "mutant <kind> of <origin>" *)
  gf_property : string;
  gf_detail : string;
  gf_funcs_before : int;
  gf_funcs_after : int;
  gf_repro : string option;
}

type guided_report = {
  g_lo : int;
  g_hi : int;
  g_size : int;
  g_budget : int;              (** mutation budget actually applied *)
  g_corpus_dir : string;
  g_loaded : int;              (** corpus entries replayed *)
  g_skipped : (string * string) list;  (** stale corpus files, with reason *)
  g_executions : int;
  g_new_entries : int;         (** corpus files written this run *)
  g_mutants_kept : int;        (** mutants that grew the map *)
  g_edges : int;               (** final coverage-map cardinality *)
  g_curve : (int * int) list;  (** (execution, cumulative edges) on growth *)
  g_failures : guided_failure list;
}

(** The corpus engine: replay [corpus_dir], sweep seeds [lo..hi]
    feeding the coverage map, then spend [budget] (default: range
    width) mutations drawn from the clean pool, persisting every input
    that grows the map back into [corpus_dir]. *)
val run_guided :
  ?size:int ->
  ?properties:string list ->
  ?out_dir:string ->
  ?shrink:bool ->
  ?budget:int ->
  corpus_dir:string ->
  lo:int ->
  hi:int ->
  unit ->
  guided_report

val pp_guided_report : Format.formatter -> guided_report -> unit

(** Single-object JSON encodings of the reports, for [--json] runs:
    the whole report on one line, nothing else on stdout. *)
val report_json : report -> Opec_obs.Json.t

val guided_report_json : guided_report -> Opec_obs.Json.t

(** {1 Seeded-defect efficiency} *)

type efficiency = {
  e_defect : string;
  e_budget : int;
  e_blind_execs : int;        (** = budget: blind has no stopping signal *)
  e_blind_first : int option; (** 1-based execution of first rediscovery *)
  e_guided_execs : int;       (** executions until coverage saturation *)
  e_guided_first : int option;
}

(** Judge seeds [lo..hi] against every seeded {!Defect} class under
    both stopping rules: blind generation must spend the whole budget
    (it has no done-signal), the guided mode stops once the defect has
    fired and [saturation] (default 2) consecutive cases add no new
    coverage edge.  One entry per defect class. *)
val defect_efficiency :
  ?size:int -> ?saturation:int -> lo:int -> hi:int -> unit -> efficiency list
