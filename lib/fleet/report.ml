(* The consolidated fleet report: one document per job, rendered from
   the canonical unit order and the merged aggregate only.

   Nothing schedule-dependent is allowed in here — no wall-clock, no
   domain ids, no steal counts — so the report (text and JSON alike)
   is byte-identical for the same job spec at any [-j].  That property
   is load-bearing: CI diffs two reports from runs at different [-j]
   and fails the build if they diverge.  Timing truth lives in the job
   journal and in BENCH_fleet.json. *)

module Json = Opec_obs.Json

(* --- JSON ---------------------------------------------------------------- *)

let strs l = Json.List (List.map (fun x -> Json.String x) l)

let job_json (s : Spec.t) =
  let apps =
    match s.Spec.apps with
    | Spec.All_apps -> Json.String "all"
    | Spec.No_apps -> Json.List []
    | Spec.Named names -> strs names
  in
  let seeds =
    match s.Spec.seeds with
    | None -> Json.Null
    | Some (lo, hi) ->
      Json.Obj
        [ ("lo", Json.Int lo); ("hi", Json.Int hi);
          ("size", Json.Int s.Spec.seed_size) ]
  in
  Json.Obj
    [ ("apps", apps); ("seeds", seeds);
      ("tasks", strs (List.map Spec.task_name s.Spec.tasks));
      ( "backends",
        strs (List.map Opec_machine.Backend.kind_name s.Spec.backends) ) ]

(* Group the flat (unit, result) list back into per-(image, backend)
   records.  Units are image-major (then backend-major) in canonical
   order, so grouping is a single left-to-right pass; the group label
   is the backend-qualified image name ("app@pmp"), which degenerates
   to the bare image name on MPU-only jobs. *)
let by_image (pairs : (Spec.unit_ * Task.result) list) :
    (string * Spec.image * (Spec.task * Task.result) list) list =
  List.fold_left
    (fun acc ((u : Spec.unit_), r) ->
      let label = Spec.image_label u.Spec.u_image u.Spec.u_backend in
      let entry = (u.Spec.u_task, r) in
      match acc with
      | (label', im', rs) :: tl when String.equal label' label ->
        (label', im', entry :: rs) :: tl
      | _ -> (label, u.Spec.u_image, [ entry ]) :: acc)
    [] pairs
  |> List.rev_map (fun (label, im, rs) -> (label, im, List.rev rs))

let image_json (label, (im : Spec.image), tasks) =
  let task (t, r) = (Spec.task_name t, Task.to_json r) in
  Json.Obj
    [ ("image", Json.String label);
      ("generated", Json.Bool im.Spec.im_generated);
      ("tasks", Json.Obj (List.map task tasks)) ]

let overhead_pct (g : Agg.t) =
  if Int64.compare g.Agg.g_base_cycles 0L > 0 then
    Int64.to_float g.Agg.g_overhead_cycles
    /. Int64.to_float g.Agg.g_base_cycles
    *. 100.
  else 0.

let aggregate_json (g : Agg.t) =
  let c v = Json.Int (Int64.to_int v) and n v = Json.Int v in
  Json.Obj
    [ ("units", n g.Agg.g_units); ("failed", n g.Agg.g_failed);
      ("images_compiled", n g.Agg.g_images_compiled); ("ops", n g.Agg.g_ops);
      ("flash", n g.Agg.g_flash); ("sram", n g.Agg.g_sram);
      ("syncset_bytes", n g.Agg.g_syncset_bytes);
      ( "lint",
        Json.Obj
          [ ("runs", n g.Agg.g_lint_runs); ("errors", n g.Agg.g_lint_errors);
            ("warnings", n g.Agg.g_lint_warnings);
            ("infos", n g.Agg.g_lint_infos) ] );
      ( "attack",
        Json.Obj
          [ ("runs", n g.Agg.g_attack_runs); ("injections", n g.Agg.g_injections);
            ("opec_escapes", n g.Agg.g_opec_escapes);
            ("defenses", Task.defenses_json g.Agg.g_attack) ] );
      ( "trace",
        Json.Obj
          [ ("runs", n g.Agg.g_trace_runs);
            ("baseline_cycles", c g.Agg.g_base_cycles);
            ("protected_cycles", c g.Agg.g_prot_cycles);
            ("overhead_cycles", c g.Agg.g_overhead_cycles);
            (* two decimals, as the text report prints it *)
            ( "overhead_pct",
              Json.Float (float_of_string (Printf.sprintf "%.2f" (overhead_pct g)))
            );
            ("sync_cycles", c g.Agg.g_sync_cycles);
            ("switches", n g.Agg.g_switches);
            ("synced_bytes", n g.Agg.g_synced_bytes) ] );
      ( "fuzz",
        Json.Obj
          [ ("runs", n g.Agg.g_fuzz_runs); ("failures", n g.Agg.g_fuzz_failures) ]
      ) ]

let to_json ~(spec : Spec.t) ~(pairs : (Spec.unit_ * Task.result) list)
    ~(agg : Agg.t) =
  Json.to_string
    (Json.Obj
       [ ("job", job_json spec);
         ("images", Json.List (List.map image_json (by_image pairs)));
         ("aggregate", aggregate_json agg) ])
  ^ "\n"

(* --- text ---------------------------------------------------------------- *)

let result_cell = function
  | Task.Compiled { c_ops; _ } -> Printf.sprintf "ok (%d ops)" c_ops
  | Task.Linted { l_errors; l_warnings; _ } ->
    if l_errors = 0 then Printf.sprintf "clean (%dw)" l_warnings
    else Printf.sprintf "%d ERR" l_errors
  | Task.Attacked { a_injections; a_opec_escapes; _ } ->
    if a_opec_escapes = 0 then Printf.sprintf "0/%d escaped" a_injections
    else Printf.sprintf "%d/%d ESCAPED" a_opec_escapes a_injections
  | Task.Traced { bd_base_cycles; bd_overhead_cycles; _ } ->
    if Int64.compare bd_base_cycles 0L > 0 then
      Printf.sprintf "+%.2f%%"
        (Int64.to_float bd_overhead_cycles /. Int64.to_float bd_base_cycles
        *. 100.)
    else "+0.00%"
  | Task.Fuzzed { f_failures; _ } ->
    if f_failures = [] then "pass"
    else Printf.sprintf "%d FAIL" (List.length f_failures)
  | Task.Failed { x_error } ->
    let msg =
      if String.length x_error > 24 then String.sub x_error 0 21 ^ "..."
      else x_error
    in
    Printf.sprintf "error: %s" msg

let render ~(spec : Spec.t) ~(pairs : (Spec.unit_ * Task.result) list)
    ~(agg : Agg.t) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let tasks = spec.Spec.tasks in
  pf "fleet report: %d units over %d images (tasks: %s)\n" agg.Agg.g_units
    (List.length (by_image pairs))
    (String.concat "," (List.map Spec.task_name tasks));
  pf "%-14s" "image";
  List.iter (fun t -> pf " %-16s" (Spec.task_name t)) tasks;
  pf "\n";
  List.iter
    (fun (label, (_ : Spec.image), results) ->
      pf "%-14s" label;
      List.iter
        (fun t ->
          match List.assoc_opt t results with
          | Some r -> pf " %-16s" (result_cell r)
          | None -> pf " %-16s" "-")
        tasks;
      pf "\n")
    (by_image pairs);
  pf "\n";
  pf "aggregate: %d units, %d failed\n" agg.Agg.g_units agg.Agg.g_failed;
  if agg.Agg.g_images_compiled > 0 then
    pf "  compile : %d images, %d ops, flash %d B, sram %d B, sync sets %d B\n"
      agg.Agg.g_images_compiled agg.Agg.g_ops agg.Agg.g_flash agg.Agg.g_sram
      agg.Agg.g_syncset_bytes;
  if agg.Agg.g_lint_runs > 0 then
    pf "  lint    : %d runs, %d errors, %d warnings, %d infos\n"
      agg.Agg.g_lint_runs agg.Agg.g_lint_errors agg.Agg.g_lint_warnings
      agg.Agg.g_lint_infos;
  if agg.Agg.g_attack_runs > 0 then begin
    pf "  attack  : %d campaigns, %d injections, %d OPEC escapes\n"
      agg.Agg.g_attack_runs agg.Agg.g_injections agg.Agg.g_opec_escapes;
    List.iter
      (fun (name, oc) ->
        pf "            %-8s blocked %d, contained %d, escaped %d, crashed %d\n"
          name oc.Task.oc_blocked oc.Task.oc_contained oc.Task.oc_escaped
          oc.Task.oc_crashed)
      agg.Agg.g_attack
  end;
  if agg.Agg.g_trace_runs > 0 then
    pf "  trace   : %d runs, overhead %Ld/%Ld cycles (%.2f%%), %d switches, %d B synced\n"
      agg.Agg.g_trace_runs agg.Agg.g_overhead_cycles agg.Agg.g_base_cycles
      (overhead_pct agg)
      agg.Agg.g_switches agg.Agg.g_synced_bytes;
  if agg.Agg.g_fuzz_runs > 0 then
    pf "  fuzz    : %d runs, %d property failures\n" agg.Agg.g_fuzz_runs
      agg.Agg.g_fuzz_failures;
  Buffer.contents b
