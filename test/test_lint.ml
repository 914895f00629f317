(* Tests for the policy-verification linter: a clean bill of health on
   the bundled workloads, the dynamic trace oracle on a full PinLock
   run, and one seeded defect per checker class proving each fires. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module An = Opec_analysis
module L = Opec_lint
module Apps = Opec_apps
module P = Opec_pipeline.Pipeline
module SS = An.Resource.SS

let uart = Peripheral.v "UART" ~base:0x4000_4400 ~size:0x400

let sample_program ?(extra_funcs = []) () =
  Program.v ~name:"lint-sample"
    ~globals:
      [ word "shared"; word "only_a"; word "only_b";
        word ~const:true "k" ~init:7L ]
    ~peripherals:[ uart ]
    ~funcs:
      ([ func "helper" [] [ load "x" (gv "shared"); ret (l "x") ];
         func "task_a" []
           [ call ~dst:"v" "helper" [];
             store (gv "only_a") (l "v");
             store (gv "shared") E.(l "v" + c 1);
             store (reg uart 4) (c 1);
             ret0 ];
         func "task_b" []
           [ call ~dst:"v" "helper" []; store (gv "only_b") (l "v"); ret0 ];
         func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
      @ extra_funcs)
    ()

let compile ?extra_funcs ?(entries = [ "task_a"; "task_b" ]) () =
  C.Compiler.compile (sample_program ?extra_funcs ()) (C.Dev_input.v entries)

let error_codes diags =
  List.sort_uniq String.compare
    (List.map (fun d -> d.L.Diag.code) (L.Lint.errors diags))

let has_error code diags = List.mem code (error_codes diags)

let check_fires name code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s raises a %s error" name code)
    true (has_error code diags)

(* Rewrite one operation's record in an image (records are open enough
   to seed defects without re-running the compiler). *)
let with_op image entry f =
  let ops =
    List.map
      (fun (op : C.Operation.t) ->
        if String.equal op.entry entry then f op else op)
      image.C.Image.ops
  in
  { image with C.Image.ops }

(* --- the bundled workloads are clean ------------------------------------ *)

let test_apps_clean () =
  List.iter
    (fun (app : Apps.App.t) ->
      let image = P.image (P.ctx app) in
      let diags = L.Lint.run image in
      Alcotest.(check (list string))
        (app.app_name ^ " has no lint errors")
        [] (error_codes diags))
    (Apps.Registry.all_small ())

(* Every registry image on every backend, through the artifact store. *)
let backend_images () =
  List.concat_map
    (fun (app : Apps.App.t) ->
      List.map
        (fun kind ->
          ( Printf.sprintf "%s@%s" app.app_name (M.Backend.kind_name kind),
            Opec_pipeline.Pipeline.image
              (Opec_pipeline.Pipeline.ctx ~backend:kind app) ))
        M.Backend.all_kinds)
    (Apps.Registry.all ())

(* Sections are read at the span their own backend reserves, so the
   tighter CHERI and POE layouts raise no false overlap. *)
let test_apps_clean_every_backend () =
  List.iter
    (fun (name, image) ->
      Alcotest.(check (list string))
        (name ^ " has no static lint errors")
        [] (error_codes (L.Lint.run ~dynamic:false image)))
    (backend_images ())

(* L003's budget info fires exactly when a fresh install leaves a
   planned peripheral window non-resident: MPU/PMP overflow, or a
   keyless POE overlay. *)
let test_budget_matches_install () =
  List.iter
    (fun (name, (image : C.Image.t)) ->
      let exceeds =
        List.filter_map
          (fun (d : L.Diag.t) ->
            match d.loc with
            | L.Diag.Operation op
              when d.code = "L003" && d.severity = L.Diag.Info ->
              Some op
            | _ -> None)
          (L.Checks.plan_validity image)
      in
      List.iter
        (fun (opn, meta) ->
          let st, overflow = C.Backend_plan.install image.backend ~image ~meta ~srd:0 in
          let keyless =
            match st.M.Backend.regs with
            | M.Backend.Poe_regs p ->
              List.exists
                (fun (ov : M.Poe.overlay) -> ov.M.Poe.ov_key = M.Poe.no_key)
                p.M.Poe.overlays
            | _ -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: budget info iff non-resident window" name opn)
            (overflow <> [] || keyless) (List.mem opn exceeds))
        image.metas)
    (backend_images ())

(* --- L007 trace oracle on a full PinLock run ---------------------------- *)

let test_oracle_pinlock () =
  let app = Apps.Registry.pinlock () in
  let image = P.image (P.ctx app) in
  let world () =
    let w = app.make_world () in
    w.Apps.App.prepare ();
    w.Apps.App.devices
  in
  let diags = L.Lint.run ~dynamic:true ~source:(L.Lint.Live world) image in
  Alcotest.(check (list string)) "full pinlock run predicted" []
    (error_codes diags)

(* --- seeded defects: one per checker class ------------------------------ *)

let strip_global g (r : An.Resource.func_resources) =
  { r with
    An.Resource.direct_globals = SS.remove g r.An.Resource.direct_globals;
    indirect_globals = SS.remove g r.An.Resource.indirect_globals }

let test_seeded_l001_unresolved_icall () =
  (* an icall whose pointer points nowhere, with an argument count no
     defined function has: both resolution tiers fail *)
  let image =
    compile
      ~extra_funcs:
        [ func "task_c" []
            [ set "p" (c 0); icall (l "p") [ c 1; c 2 ]; ret0 ] ]
      ~entries:[ "task_a"; "task_b"; "task_c" ] ()
  in
  check_fires "unresolved icall" "L001" (L.Lint.run image)

let test_seeded_l003_bad_region () =
  (* replace task_a's peripheral plan with a region whose base is not
     aligned to its 1 KiB size: illegal, and the UART range uncovered *)
  let image = compile () in
  let bad =
    { M.Mpu.base = 0x4000_4404; size_log2 = 10; srd = 0;
      privileged = M.Mpu.Read_write; unprivileged = M.Mpu.Read_write;
      executable = false }
  in
  let metas =
    List.map
      (fun (name, (meta : C.Metadata.op_meta)) ->
        if String.equal meta.op.C.Operation.entry "task_a" then
          (name, { meta with C.Metadata.periph_regions = [ bad ] })
        else (name, meta))
      image.C.Image.metas
  in
  let image = { image with C.Image.metas } in
  check_fires "invalid MPU plan" "L003" (L.Lint.run image)

let test_seeded_l004_missing_resource () =
  (* task_a's functions need [shared]; strip it from the granted set *)
  let image = compile () in
  let image =
    with_op image "task_a" (fun op ->
        { op with C.Operation.resources = strip_global "shared" op.resources })
  in
  check_fires "resource hole" "L004" (L.Lint.run image)

let test_seeded_l005_over_privilege () =
  (* grant task_a a global none of its member functions touches *)
  let image = compile () in
  let image =
    with_op image "task_a" (fun op ->
        { op with
          C.Operation.resources =
            { op.resources with
              An.Resource.direct_globals =
                SS.add "only_b" op.resources.An.Resource.direct_globals } })
  in
  check_fires "over-privilege" "L005" (L.Lint.run image)

let test_seeded_l006_missing_entry () =
  (* drop task_b from the entry list: calls to it bypass the monitor *)
  let image = compile () in
  let image = { image with C.Image.entries = [ "task_a" ] } in
  check_fires "entry not instrumented" "L006" (L.Lint.run image)

let test_seeded_l006_stray_svc () =
  (* a raw SVC that is not the thread-yield service *)
  let image = compile () in
  let rogue =
    Func.v "rogue" ~params:[] ~body:[ Instr.Svc 3; Instr.Return None ]
  in
  let program =
    { image.C.Image.program with
      Program.funcs = rogue :: image.C.Image.program.Program.funcs }
  in
  let image = { image with C.Image.program = program } in
  check_fires "stray svc" "L006" (L.Lint.run image)

let test_seeded_l007_unpredicted_access () =
  (* the oracle replays the baseline (no devices: the program only
     touches globals); with [secret] stripped from task_s's static
     resource set, the replayed accesses are no longer predicted *)
  let p =
    Program.v ~name:"oracle-sample"
      ~globals:[ word "secret" ~init:41L; word "out" ]
      ~peripherals:[]
      ~funcs:
        [ func "task_s" []
            [ load "x" (gv "secret"); store (gv "out") E.(l "x" + c 1); ret0 ];
          func "main" [] [ call "task_s" []; halt ] ]
      ()
  in
  let image = C.Compiler.compile p (C.Dev_input.v [ "task_s" ]) in
  Alcotest.(check (list string)) "clean program passes the oracle" []
    (error_codes (L.Oracle.check image));
  let image =
    with_op image "task_s" (fun op ->
        { op with C.Operation.resources = strip_global "secret" op.resources })
  in
  check_fires "unpredicted access" "L007" (L.Oracle.check image)

let test_seeded_l008_layout_hole () =
  (* an operation granted a writable global the layout never placed *)
  let image = compile () in
  let phantom = word "phantom" in
  let source =
    { image.C.Image.source with
      Program.globals = phantom :: image.C.Image.source.Program.globals }
  in
  let image = { image with C.Image.source = source } in
  let image =
    with_op image "task_a" (fun op ->
        { op with
          C.Operation.resources =
            { op.resources with
              An.Resource.direct_globals =
                SS.add "phantom" op.resources.An.Resource.direct_globals } })
  in
  check_fires "unaddressable global" "L008"
    (L.Checks.layout_consistency image)

(* a deliberately weak sync schedule: the real slot domains, but empty
   may-read/may-write sets — so no switch copies anything *)
let weak_syncsets (image : C.Image.t) =
  let views =
    List.map
      (fun (op : C.Operation.t) ->
        { An.Syncset.ov_name = op.name; ov_entry = op.entry;
          ov_funcs = op.funcs;
          ov_slots = An.Syncset.slots_of image.C.Image.syncsets op.name;
          ov_killed = SS.empty })
      image.C.Image.ops
  in
  An.Syncset.compute ~ops:views ~callgraph:image.C.Image.callgraph
    ~rw:
      (An.Dataflow.analyze
         { image.C.Image.source with Opec_ir.Program.funcs = [] }
         image.C.Image.points_to)
    ~escaped:SS.empty ~sanitized:SS.empty
    ~ptr_vars:SS.empty ~has_irq:false ~conservative_resume:true

let test_seeded_l009_weak_schedule () =
  let image = compile () in
  Alcotest.(check (list string)) "embedded schedule is sound" []
    (error_codes (L.Checks.sync_schedule_soundness image));
  let image = { image with C.Image.syncsets = weak_syncsets image } in
  check_fires "weakened schedule" "L009"
    (L.Checks.sync_schedule_soundness image)

let test_seeded_l010_unsyncable_escape () =
  (* buf's address is stored into the UART window: the device can write
     it at any time, so both tasks must sync it at every switch *)
  let p =
    Program.v ~name:"escape-sample"
      ~globals:[ word "buf"; word "flag" ]
      ~peripherals:[ uart ]
      ~funcs:
        [ func "task_a" []
            [ store (reg uart 0) (gv "buf");
              load "x" (gv "buf");
              store (gv "flag") (l "x"); ret0 ];
          func "task_b" []
            [ load "y" (gv "buf"); store (gv "flag") (l "y"); ret0 ];
          func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
      ()
  in
  let image = C.Compiler.compile p (C.Dev_input.v [ "task_a"; "task_b" ]) in
  let diags = L.Checks.unsyncable_escape image in
  Alcotest.(check bool) "escape warning fires" true
    (List.exists
       (fun d ->
         String.equal d.L.Diag.code "L010"
         && d.L.Diag.severity = L.Diag.Warning)
       diags);
  Alcotest.(check (list string)) "conservative schedule has no errors" []
    (error_codes diags);
  (* drop the escaped global from every scheduled set: now a device
     write could be lost *)
  let image = { image with C.Image.syncsets = weak_syncsets image } in
  check_fires "non-conservative escape" "L010"
    (L.Checks.unsyncable_escape image)

let test_seeded_l011_stale_read () =
  (* the producer publishes through [shared]; the consumer reads it.
     With the schedule emptied the simulated copies stop delivering the
     write, and the generation replay must flag the stale read.  No
     peripherals: the oracle replays the baseline without devices. *)
  let p =
    Program.v ~name:"stale-sample"
      ~globals:[ word "shared"; word "sink" ]
      ~peripherals:[]
      ~funcs:
        [ func "producer" [] [ store (gv "shared") (c 42); ret0 ];
          func "consumer" []
            [ load "x" (gv "shared"); store (gv "sink") (l "x"); ret0 ];
          func "main" [] [ call "producer" []; call "consumer" []; halt ] ]
      ()
  in
  let image = C.Compiler.compile p (C.Dev_input.v [ "producer"; "consumer" ]) in
  Alcotest.(check (list string)) "sound schedule replays clean" []
    (error_codes (L.Oracle.check_sync image));
  let image = { image with C.Image.syncsets = weak_syncsets image } in
  check_fires "stale read" "L011" (L.Oracle.check_sync image)

(* --- framework behaviour ------------------------------------------------- *)

let test_l002_dead_code_is_info () =
  let image =
    compile ~extra_funcs:[ func "orphan" [] [ ret0 ] ] ()
  in
  let diags = L.Lint.run image in
  let dead =
    List.filter
      (fun d ->
        String.equal d.L.Diag.code "L002"
        && d.L.Diag.loc = L.Diag.Function "orphan")
      diags
  in
  Alcotest.(check int) "orphan reported once" 1 (List.length dead);
  Alcotest.(check bool) "as info, not an error" false
    (List.exists L.Diag.is_error dead)

let test_diag_ordering_and_json () =
  let e =
    L.Diag.v ~code:"L004" L.Diag.Error (L.Diag.Operation "op") "boom"
  in
  let w =
    L.Diag.vf ~code:"L001" L.Diag.Warning
      (L.Diag.Icall { func = "f"; index = 0 })
      "weak \"resolution\""
  in
  Alcotest.(check bool) "errors sort first" true (L.Diag.compare e w < 0);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
    go 0
  in
  let json = Opec_obs.Json.to_string (L.Diag.to_json w) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true (contains needle json))
    [ {|"code":"L001"|}; {|"severity":"warning"|}; {|\"resolution\"|} ]

(* L012: a resolved relocation re-pointed at another operation's shadow,
   and one claimed for a function two operations share. *)
let test_seeded_l012 () =
  let image = compile () in
  Alcotest.(check (list string)) "clean image" []
    (error_codes (L.Checks.resolved_relocation image));
  let layout = image.C.Image.layout in
  let shadow op = Option.get (C.Layout.shadow_of layout ~op ~var:"shared") in
  let stats = image.C.Image.stats in
  Alcotest.(check bool) "task_a resolved" true
    (List.exists
       (fun (s : C.Instrument.site) -> String.equal s.C.Instrument.fn "task_a")
       stats.C.Instrument.resolved);
  let with_sites resolved =
    { image with C.Image.stats = { stats with C.Instrument.resolved } }
  in
  let retargeted =
    with_sites
      (List.map
         (fun (s : C.Instrument.site) -> { s with C.Instrument.addr = shadow "task_b" })
         stats.C.Instrument.resolved)
  in
  check_fires "foreign shadow" "L012" (L.Lint.run retargeted);
  let shared_helper =
    with_sites
      ({ C.Instrument.fn = "helper"; var = "shared"; addr = shadow "task_a" }
      :: stats.C.Instrument.resolved)
  in
  check_fires "two-operation function" "L012"
    (L.Checks.resolved_relocation shared_helper)

(* L013: an operation's switches no longer rewrite a slot it reads, and
   a table read outside any prologue that the monitor does not track. *)
let test_seeded_l013 () =
  let module Mon = Opec_monitor.Monitor in
  let image = compile () in
  Alcotest.(check (list string)) "clean image" []
    (error_codes (L.Checks.live_relocation image));
  let plan = Mon.reloc_plan_of image in
  let b =
    let rec find i = function
      | [] -> Alcotest.fail "no task_b operation"
      | (op : C.Operation.t) :: rest ->
        if String.equal op.entry "task_b" then i else find (i + 1) rest
    in
    find 0 image.C.Image.ops
  in
  Alcotest.(check bool) "task_b rewrites the slot of shared" true
    (Array.length plan.Mon.on_switch.(b) > 0);
  let dropped =
    { plan with
      Mon.on_switch = Array.mapi (fun i w -> if i = b then [||] else w) plan.Mon.on_switch }
  in
  check_fires "dropped switch write" "L013"
    (L.Checks.relocation_writes dropped image);
  let slot = Option.get (C.Layout.reloc_slot image.C.Image.layout "shared") in
  let program =
    { image.C.Image.program with
      Program.funcs =
        List.map
          (fun (f : Func.t) ->
            if String.equal f.name "main" then
              { f with body = load "peek" (cl (Int64.of_int slot)) :: f.body }
            else f)
          image.C.Image.program.Program.funcs }
  in
  check_fires "untracked table read" "L013"
    (L.Checks.live_relocation { image with C.Image.program })

(* L014: the sample's [shared] is granted in place on PMP (task_a writes
   it, task_b reads it).  Each seeded defect breaks one eligibility
   rule: the writer's grant removed, a grant handed to an operation
   that does not use the global, a grant widened over the stack, a
   sanitize rule added, and the PMP image relabelled as an MPU one. *)
let test_seeded_l014 () =
  let image =
    C.Compiler.compile ~backend:M.Backend.Pmp (sample_program ())
      (C.Dev_input.v [ "task_a"; "task_b" ])
  in
  Alcotest.(check (list string)) "granted in place" [ "shared" ]
    image.C.Image.layout.C.Layout.direct;
  Alcotest.(check (list string)) "clean image" []
    (error_codes (L.Checks.direct_grant image));
  let with_grants f =
    { image with
      C.Image.metas =
        List.map
          (fun (n, (m : C.Metadata.op_meta)) ->
            (n, { m with C.Metadata.grants = f n m.C.Metadata.grants }))
          image.C.Image.metas }
  in
  let a_grant =
    List.hd (C.Metadata.((Option.get (C.Image.meta_of image "task_a")).grants))
  in
  check_fires "writer without its grant" "L014"
    (L.Checks.direct_grant (with_grants (fun _ g -> if g = [] then g else [])));
  check_fires "grant to an operation that does not use it" "L014"
    (L.Checks.direct_grant
       (with_grants (fun n g -> if String.equal n "default" then [ a_grant ] else g)));
  let var, base, _ = a_grant in
  check_fires "grant widened over the stack" "L014"
    (L.Checks.direct_grant
       (with_grants (fun n g ->
            if String.equal n "task_a" then [ (var, base, 0x4000) ] else g)));
  let sanitized =
    { image with
      C.Image.input =
        C.Dev_input.v
          ~sanitize:[ { C.Dev_input.sz_global = "shared"; sz_min = 0L; sz_max = 9L } ]
          [ "task_a"; "task_b" ] }
  in
  check_fires "sanitize rule" "L014" (L.Checks.direct_grant sanitized);
  check_fires "direct grant on the MPU" "L014"
    (L.Checks.direct_grant { image with C.Image.backend = M.Backend.Mpu });
  Alcotest.(check (list string)) "the MPU image grants nothing in place" []
    (C.Compiler.compile (sample_program ()) (C.Dev_input.v [ "task_a"; "task_b" ]))
      .C.Image.layout.C.Layout.direct

let test_registry_complete () =
  let codes = List.map (fun c -> c.L.Lint.code) L.Lint.checkers in
  Alcotest.(check (list string)) "registry codes"
    [ "L001"; "L002"; "L003"; "L004"; "L005"; "L006"; "L007"; "L008"; "L009";
      "L010"; "L011"; "L012"; "L013"; "L014" ]
    codes;
  Alcotest.(check bool) "only the trace oracles are dynamic" true
    (List.for_all
       (fun c ->
         c.L.Lint.dynamic
         = (String.equal c.L.Lint.code "L007"
           || String.equal c.L.Lint.code "L011"))
       L.Lint.checkers)

let suite () =
  [ ( "lint",
      [ Alcotest.test_case "bundled apps are clean" `Quick test_apps_clean;
        Alcotest.test_case "bundled apps are clean on every backend" `Quick
          test_apps_clean_every_backend;
        Alcotest.test_case "budget info matches the installed plan" `Quick
          test_budget_matches_install;
        Alcotest.test_case "trace oracle on full pinlock" `Slow
          test_oracle_pinlock;
        Alcotest.test_case "seeded L001 unresolved icall" `Quick
          test_seeded_l001_unresolved_icall;
        Alcotest.test_case "seeded L003 bad region" `Quick
          test_seeded_l003_bad_region;
        Alcotest.test_case "seeded L004 resource hole" `Quick
          test_seeded_l004_missing_resource;
        Alcotest.test_case "seeded L005 over-privilege" `Quick
          test_seeded_l005_over_privilege;
        Alcotest.test_case "seeded L006 missing entry" `Quick
          test_seeded_l006_missing_entry;
        Alcotest.test_case "seeded L006 stray svc" `Quick
          test_seeded_l006_stray_svc;
        Alcotest.test_case "seeded L007 unpredicted access" `Quick
          test_seeded_l007_unpredicted_access;
        Alcotest.test_case "seeded L008 layout hole" `Quick
          test_seeded_l008_layout_hole;
        Alcotest.test_case "seeded L009 weak schedule" `Quick
          test_seeded_l009_weak_schedule;
        Alcotest.test_case "seeded L010 unsyncable escape" `Quick
          test_seeded_l010_unsyncable_escape;
        Alcotest.test_case "seeded L011 stale read" `Quick
          test_seeded_l011_stale_read;
        Alcotest.test_case "seeded L012 resolved relocation" `Quick
          test_seeded_l012;
        Alcotest.test_case "seeded L013 live relocation slots" `Quick
          test_seeded_l013;
        Alcotest.test_case "L002 dead code is info" `Quick
          test_l002_dead_code_is_info;
        Alcotest.test_case "diag ordering and json" `Quick
          test_diag_ordering_and_json;
        Alcotest.test_case "seeded L014 direct grants" `Quick test_seeded_l014;
        Alcotest.test_case "checker registry" `Quick test_registry_complete ] )
  ]
