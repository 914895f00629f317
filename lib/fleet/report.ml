(* The consolidated fleet report: one document per job, rendered from
   the canonical unit order and the merged aggregate only.

   Nothing schedule-dependent is allowed in here — no wall-clock, no
   domain ids, no steal counts — so the report (text and JSON alike)
   is byte-identical for the same job spec at any [-j].  That property
   is load-bearing: CI diffs two reports from runs at different [-j]
   and fails the build if they diverge.  Timing truth lives in the job
   journal and in BENCH_fleet.json. *)

let quote = Opec_obs.Json.escape

(* --- JSON ---------------------------------------------------------------- *)

let job_json (s : Spec.t) =
  let apps =
    match s.Spec.apps with
    | Spec.All_apps -> {|"all"|}
    | Spec.No_apps -> "[]"
    | Spec.Named names ->
      Printf.sprintf "[%s]"
        (String.concat ","
           (List.map (fun n -> Printf.sprintf {|"%s"|} (quote n)) names))
  in
  let seeds =
    match s.Spec.seeds with
    | None -> "null"
    | Some (lo, hi) -> Printf.sprintf {|{"lo":%d,"hi":%d,"size":%d}|} lo hi s.Spec.seed_size
  in
  let tasks =
    String.concat ","
      (List.map
         (fun t -> Printf.sprintf {|"%s"|} (Spec.task_name t))
         s.Spec.tasks)
  in
  let backends =
    String.concat ","
      (List.map
         (fun k -> Printf.sprintf {|"%s"|} (Opec_machine.Backend.kind_name k))
         s.Spec.backends)
  in
  Printf.sprintf {|{"apps":%s,"seeds":%s,"tasks":[%s],"backends":[%s]}|} apps
    seeds tasks backends

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

let image_json label (im : Spec.image) (tasks : (Spec.task * Task.result) list)
    =
  Printf.sprintf {|{"image":"%s","generated":%b,"tasks":{%s}}|} (quote label)
    im.Spec.im_generated
    (String.concat ","
       (List.map
          (fun (t, r) ->
            Printf.sprintf {|"%s":%s|} (Spec.task_name t) (Task.to_json r))
          tasks))

let aggregate_json (g : Agg.t) =
  let overhead_pct =
    if Int64.compare g.Agg.g_base_cycles 0L > 0 then
      Printf.sprintf "%.2f"
        (Int64.to_float g.Agg.g_overhead_cycles
        /. Int64.to_float g.Agg.g_base_cycles
        *. 100.)
    else "0.00"
  in
  Printf.sprintf
    {|{"units":%d,"failed":%d,"images_compiled":%d,"ops":%d,"flash":%d,"sram":%d,"syncset_bytes":%d,"lint":{"runs":%d,"errors":%d,"warnings":%d,"infos":%d},"attack":{"runs":%d,"injections":%d,"opec_escapes":%d,"defenses":{%s}},"trace":{"runs":%d,"baseline_cycles":%Ld,"protected_cycles":%Ld,"overhead_cycles":%Ld,"overhead_pct":%s,"sync_cycles":%Ld,"switches":%d,"synced_bytes":%d},"fuzz":{"runs":%d,"failures":%d}}|}
    g.Agg.g_units g.Agg.g_failed g.Agg.g_images_compiled g.Agg.g_ops
    g.Agg.g_flash g.Agg.g_sram g.Agg.g_syncset_bytes g.Agg.g_lint_runs
    g.Agg.g_lint_errors g.Agg.g_lint_warnings g.Agg.g_lint_infos
    g.Agg.g_attack_runs g.Agg.g_injections g.Agg.g_opec_escapes
    (String.concat ","
       (List.map
          (fun (name, oc) ->
            Printf.sprintf {|"%s":%s|} (quote name) (Task.oc_json oc))
          g.Agg.g_attack))
    g.Agg.g_trace_runs g.Agg.g_base_cycles g.Agg.g_prot_cycles
    g.Agg.g_overhead_cycles overhead_pct g.Agg.g_sync_cycles g.Agg.g_switches
    g.Agg.g_synced_bytes g.Agg.g_fuzz_runs g.Agg.g_fuzz_failures

let to_json ~(spec : Spec.t) ~(pairs : (Spec.unit_ * Task.result) list)
    ~(agg : Agg.t) =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"job\": %s,\n" (job_json spec));
  Buffer.add_string b "  \"images\": [\n";
  let groups = by_image pairs in
  List.iteri
    (fun i (label, im, tasks) ->
      Buffer.add_string b "    ";
      Buffer.add_string b (image_json label im tasks);
      if i < List.length groups - 1 then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    groups;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"aggregate\": %s\n" (aggregate_json agg));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- text ---------------------------------------------------------------- *)

let result_cell = function
  | Task.Compiled { c_ops; _ } -> Printf.sprintf "ok (%d ops)" c_ops
  | Task.Linted { l_errors; l_warnings; _ } ->
    if l_errors = 0 then Printf.sprintf "clean (%dw)" l_warnings
    else Printf.sprintf "%d ERR" l_errors
  | Task.Attacked { a_injections; a_opec_escapes; _ } ->
    if a_opec_escapes = 0 then Printf.sprintf "0/%d escaped" a_injections
    else Printf.sprintf "%d/%d ESCAPED" a_opec_escapes a_injections
  | Task.Traced { t_base_cycles; t_overhead_cycles; _ } ->
    if Int64.compare t_base_cycles 0L > 0 then
      Printf.sprintf "+%.2f%%"
        (Int64.to_float t_overhead_cycles /. Int64.to_float t_base_cycles *. 100.)
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
      (if Int64.compare agg.Agg.g_base_cycles 0L > 0 then
         Int64.to_float agg.Agg.g_overhead_cycles
         /. Int64.to_float agg.Agg.g_base_cycles
         *. 100.
       else 0.)
      agg.Agg.g_switches agg.Agg.g_synced_bytes;
  if agg.Agg.g_fuzz_runs > 0 then
    pf "  fuzz    : %d runs, %d property failures\n" agg.Agg.g_fuzz_runs
      agg.Agg.g_fuzz_failures;
  Buffer.contents b

let save path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc
