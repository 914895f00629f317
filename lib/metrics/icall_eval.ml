(* Table 3's icall-analysis efficiency metrics (paper, Section 6.5):
   indirect-call counts, how many the points-to analysis resolved, the
   analysis time, how many fell back to type-based matching, and the
   average/maximum target-set sizes. *)

module CG = Opec_analysis.Callgraph
module P = Opec_pipeline.Pipeline

type row = {
  app : string;
  icalls : int;
  svf_resolved : int;      (** resolved by the points-to analysis *)
  time_s : float;
  type_resolved : int;
  unresolved : int;
  avg_targets : float;
  max_targets : int;
}

let of_callgraph ~app ~time_s (cg : CG.t) =
  let icalls = cg.CG.icalls in
  let count pred = List.length (List.filter pred icalls) in
  let resolved =
    List.filter (fun i -> i.CG.resolved_by <> `Unresolved) icalls
  in
  let target_counts = List.map (fun i -> List.length i.CG.targets) resolved in
  let total_targets = List.fold_left ( + ) 0 target_counts in
  { app;
    icalls = List.length icalls;
    svf_resolved = count (fun i -> i.CG.resolved_by = `Points_to);
    time_s;
    type_resolved = count (fun i -> i.CG.resolved_by = `Types);
    unresolved = count (fun i -> i.CG.resolved_by = `Unresolved);
    avg_targets =
      (if resolved = [] then 0.0
       else float_of_int total_targets /. float_of_int (List.length resolved));
    max_targets = List.fold_left max 0 target_counts }

(* The time column is the wall-clock time of the pipeline's points-to
   and callgraph stages, so CPU time other domains spend while the
   stages run is never counted. *)
let of_pipeline ctx =
  let cg = P.callgraph ctx in
  let time_s =
    List.fold_left
      (fun acc (stage, dt) ->
        if stage = "points-to" || stage = "callgraph" then acc +. dt else acc)
      0.0 (P.timings ctx)
  in
  of_callgraph ~app:(P.app ctx).Opec_apps.App.app_name ~time_s cg
