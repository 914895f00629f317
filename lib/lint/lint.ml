(* Checker registry and linter driver. *)

type world = unit -> Opec_machine.Device.t list

type recorded = {
  map : Opec_exec.Address_map.t;
  events : Opec_exec.Trace.event list;
  failure : exn option;
}

type source = Live of world | Recorded of recorded

type checker = {
  code : string;
  name : string;
  doc : string;
  dynamic : bool;
  run : source option -> Opec_core.Image.t -> Diag.t list;
}

let static name ~code ~doc run =
  { code; name; doc; dynamic = false; run = (fun _source image -> run image) }

let checkers =
  [ static "unresolved-icall" ~code:"L001"
      ~doc:"indirect-call sites the points-to analysis could not resolve"
      Checks.unresolved_icall;
    static "unreachable-function" ~code:"L002"
      ~doc:"functions reachable from no operation entry"
      Checks.unreachable_function;
    static "mpu-plan-validity" ~code:"L003"
      ~doc:
        "protection plan legal under the image's backend and covering its \
         targets"
      Checks.plan_validity;
    static "resource-coverage" ~code:"L004"
      ~doc:"every member function's resources inside its operation's set"
      Checks.resource_coverage;
    static "over-privilege" ~code:"L005"
      ~doc:"resources granted that no member function needs (PT > 0)"
      Checks.over_privilege;
    static "svc-instrumentation" ~code:"L006"
      ~doc:"operation entries wired through the SVC switch protocol"
      Checks.svc_instrumentation;
    { code = "L007";
      name = "trace-oracle";
      doc = "replayed baseline accesses all statically predicted";
      dynamic = true;
      run =
        (fun source image ->
          match source with
          | Some (Recorded r) ->
            Oracle.check_trace ~map:r.map ~events:r.events ~failure:r.failure
              image
          | Some (Live w) -> Oracle.check ~devices:(w ()) image
          | None -> Oracle.check image) };
    static "layout-consistency" ~code:"L008"
      ~doc:"data sections disjoint, in bounds, and fully addressable"
      Checks.layout_consistency;
    static "sync-schedule" ~code:"L009"
      ~doc:"embedded sync schedule at least as strong as a recomputation"
      Checks.sync_schedule_soundness;
    static "unsyncable-escape" ~code:"L010"
      ~doc:"globals with no static write bound synchronized conservatively"
      Checks.unsyncable_escape;
    { code = "L011";
      name = "stale-read";
      doc = "replayed reads never observe a shadow a scheduled sync missed";
      dynamic = true;
      run =
        (fun source image ->
          match source with
          | Some (Recorded r) ->
            Oracle.check_sync_trace ~map:r.map ~events:r.events
              ~failure:r.failure image
          | Some (Live w) -> Oracle.check_sync ~devices:(w ()) image
          | None -> Oracle.check_sync image) };
    static "resolved-relocation" ~code:"L012"
      ~doc:"compile-time relocation constants equal the table's value"
      Checks.resolved_relocation;
    static "live-relocation" ~code:"L013"
      ~doc:"relocation slots each operation reads kept at its targets"
      Checks.live_relocation;
    static "direct-grant" ~code:"L014"
      ~doc:"shared globals granted in place are eligible and granted exactly"
      Checks.direct_grant ]

let find_checker code =
  List.find_opt (fun c -> String.equal c.code code) checkers

let run ?(dynamic = false) ?source image =
  List.concat_map
    (fun c -> if c.dynamic && not dynamic then [] else c.run source image)
    checkers
  |> List.sort Diag.compare

let errors = List.filter Diag.is_error

let render ?(all = false) fmt diags =
  let shown =
    List.filter (fun d -> all || d.Diag.severity <> Diag.Info) diags
  in
  List.iter (fun d -> Format.fprintf fmt "%a@." Diag.pp d) shown;
  let count sev =
    List.length (List.filter (fun d -> d.Diag.severity = sev) diags)
  in
  Format.fprintf fmt "%d error%s, %d warning%s, %d info@."
    (count Diag.Error)
    (if count Diag.Error = 1 then "" else "s")
    (count Diag.Warning)
    (if count Diag.Warning = 1 then "" else "s")
    (count Diag.Info)
