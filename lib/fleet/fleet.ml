(* The fleet run loop: turn a job spec into units, push the units
   through the shared work-stealing {!Opec_pipeline.Pool}, and keep two
   records of the run —

   - a journal entry per scheduler event (enqueued / stolen / started /
     finished / failed), the per-job audit trail;
   - a result slot per unit in canonical order, the report's raw
     material, folded into the {!Agg} aggregate once the pool drains.

   A unit whose task raises becomes [Task.Failed] in its slot and a
   "failed" journal event; it never kills the fleet.  Artifacts of
   fuzz-generated images are evicted from the sharded store as soon as
   the image's last task completes, so a wide seed range runs in
   bounded memory while registry images keep their cache for later
   commands in the same process. *)

module P = Opec_pipeline.Pipeline
module Pool = Opec_pipeline.Pool

type outcome = {
  o_spec : Spec.t;
  o_units : Spec.unit_ list;  (** canonical order *)
  o_results : Task.result list;  (** same order as [o_units] *)
  o_agg : Agg.t;
  o_journal : Journal.t;
  o_wall_s : float;
  o_domains : int;  (** participants the run was given *)
  o_failures : (string * string) list;  (** unit name, error *)
}

let status_of = function
  | Task.Failed { x_error } -> "FAILED: " ^ x_error
  | r -> Report.result_cell r

let run ?domains ?(progress = fun (_ : string) -> ()) (spec : Spec.t) :
    (outcome, string) result =
  match Spec.units spec with
  | Error e -> Error e
  | Ok units ->
    let total = List.length units in
    let names = Array.of_list (List.map Spec.unit_name units) in
    let d =
      match domains with Some d -> max 1 d | None -> Pool.size ()
    in
    let journal = Journal.create () in
    (* serialize progress lines; tasks on different domains finish
       concurrently *)
    let progress_lock = Mutex.create () in
    let progress s = Mutex.protect progress_lock (fun () -> progress s) in
    (* remaining-task refcounts of the generated images, for eviction;
       keyed per (image, backend) since each backend memoizes its own
       artifacts *)
    let refcounts : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (u : Spec.unit_) ->
        let im = u.Spec.u_image in
        if im.Spec.im_generated then
          let key = Spec.image_label im u.Spec.u_backend in
          match Hashtbl.find_opt refcounts key with
          | Some c -> ignore (Atomic.fetch_and_add c 1)
          | None -> Hashtbl.add refcounts key (Atomic.make 1))
      units;
    let done_count = Atomic.make 0 in
    let finish (u : Spec.unit_) (r : Task.result) =
      let im = u.Spec.u_image in
      (if im.Spec.im_generated then
         match Hashtbl.find_opt refcounts (Spec.image_label im u.Spec.u_backend) with
         | Some c ->
           if Atomic.fetch_and_add c (-1) = 1 then
             P.evict (P.ctx ~backend:u.Spec.u_backend im.Spec.im_app)
         | None -> ());
      let n = Atomic.fetch_and_add done_count 1 + 1 in
      progress
        (Printf.sprintf "[%d/%d] %s: %s" n total (Spec.unit_name u)
           (status_of r))
    in
    (* re-raise after accounting so the scheduler emits a Failed event
       and the journal sees the failure with its domain and timestamp *)
    let run_unit (u : Spec.unit_) : Task.result =
      match Task.run u with
      | r ->
        finish u r;
        r
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish u (Task.Failed { x_error = Printexc.to_string e });
        Printexc.raise_with_backtrace e bt
    in
    let t0 = Unix.gettimeofday () in
    let slots =
      Pool.map_result ~domains:d
        ~on_event:(Journal.record_pool_event journal names)
        run_unit units
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let results =
      List.map
        (function
          | Ok r -> r
          | Error e -> Task.Failed { x_error = Printexc.to_string e })
        slots
    in
    let failures =
      List.filter_map
        (fun ((u : Spec.unit_), r) ->
          match r with
          | Task.Failed { x_error } -> Some (Spec.unit_name u, x_error)
          | _ -> None)
        (List.combine units results)
    in
    Ok
      { o_spec = spec;
        o_units = units;
        o_results = results;
        o_agg = Agg.of_results results;
        o_journal = journal;
        o_wall_s = wall_s;
        o_domains = min d (max 1 total);
        o_failures = failures }

let pairs (o : outcome) = List.combine o.o_units o.o_results
let report_text (o : outcome) =
  Report.render ~spec:o.o_spec ~pairs:(pairs o) ~agg:o.o_agg
let report_json (o : outcome) =
  Report.to_json ~spec:o.o_spec ~pairs:(pairs o) ~agg:o.o_agg
