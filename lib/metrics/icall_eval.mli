(** Table 3's icall-analysis efficiency metrics (Section 6.5). *)

type row = {
  app : string;
  icalls : int;
  svf_resolved : int;   (** resolved by the points-to analysis *)
  time_s : float;       (** points-to + call graph wall-clock time *)
  type_resolved : int;  (** resolved by the type-based fallback *)
  unresolved : int;
  avg_targets : float;
  max_targets : int;
}

val of_callgraph :
  app:string -> time_s:float -> Opec_analysis.Callgraph.t -> row

(** One workload's row from its pipeline, the time column being the
    wall-clock time of the memoized points-to and callgraph stages
    ({!Opec_pipeline.Pipeline.timings}). *)
val of_pipeline : Opec_pipeline.Pipeline.ctx -> row
