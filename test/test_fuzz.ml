(* Tests for the fuzz subsystem: generator validity over a large seed
   range, replay determinism, reproducer round-trips, the shrinker's
   fixpoint contract, the seeded-defect gate (each deliberate image
   corruption must be caught by its routed oracle property and shrink
   to a small witness), and the sweep driver's determinism.

   Also holds the regression test for [Interp.last_fault] staleness
   across back-to-back runs of one interpreter. *)

open Opec_ir
open Build
module M = Opec_machine
module Ex = Opec_exec
module C = Opec_core
module F = Opec_fuzz

let board = M.Memmap.stm32f4_discovery

(* --- generator validity ------------------------------------------------- *)

(* [Gen.case] promises well-formedness by construction: [Program.v]
   validates inside it, so surviving construction is the check — plus
   the developer input must only name things that exist. *)
let test_generator_validity () =
  for seed = 0 to 999 do
    let program, dev_input = F.Gen.case ~seed ~size:2 in
    let funcs =
      List.map (fun (f : Func.t) -> f.Func.name) program.Program.funcs
    in
    let globals =
      List.map (fun (g : Global.t) -> g.Global.name) program.Program.globals
    in
    List.iter
      (fun e ->
        if not (List.mem e funcs) then
          Alcotest.failf "seed %d: entry %s is not a function" seed e)
      dev_input.C.Dev_input.entries;
    List.iter
      (fun (si : C.Dev_input.stack_info) ->
        if not (List.mem si.C.Dev_input.si_entry dev_input.C.Dev_input.entries)
        then Alcotest.failf "seed %d: stack info for non-entry" seed)
      dev_input.C.Dev_input.stack_infos;
    List.iter
      (fun (r : C.Dev_input.sanitize_rule) ->
        if not (List.mem r.C.Dev_input.sz_global globals) then
          Alcotest.failf "seed %d: sanitize rule for unknown global" seed)
      dev_input.C.Dev_input.sanitize;
    if dev_input.C.Dev_input.entries = [] then
      Alcotest.failf "seed %d: no entries" seed
  done

(* every generated case must also compile to an image *)
let test_generator_compiles () =
  for seed = 0 to 99 do
    let program, dev_input = F.Gen.case ~seed ~size:2 in
    ignore (C.Compiler.compile ~board program dev_input)
  done

(* --- determinism --------------------------------------------------------- *)

let render p = Sexp.to_string (Sexp.encode_program p)

let test_replay_deterministic () =
  let p1, d1 = F.Gen.case ~seed:11 ~size:2 in
  let p2, d2 = F.Gen.case ~seed:11 ~size:2 in
  Alcotest.(check string) "same seed, byte-identical program" (render p1)
    (render p2);
  Alcotest.(check bool) "same seed, identical dev input" true (d1 = d2);
  let p3, _ = F.Gen.case ~seed:12 ~size:2 in
  Alcotest.(check bool) "different seed, different program" false
    (String.equal (render p1) (render p3))

let test_repro_roundtrip () =
  let program, dev_input = F.Gen.case ~seed:7 ~size:2 in
  let t =
    { F.Repro.seed = Some 7; size = Some 2; property = "transparency";
      detail = "final state diverged"; program; dev_input }
  in
  let path = Filename.temp_file "opec-repro" ".sexp" in
  F.Repro.save path t;
  let t' = F.Repro.load path in
  Sys.remove path;
  Alcotest.(check (option int)) "seed survives" (Some 7) t'.F.Repro.seed;
  Alcotest.(check (option int)) "size survives" (Some 2) t'.F.Repro.size;
  Alcotest.(check string) "property survives" "transparency"
    t'.F.Repro.property;
  Alcotest.(check string) "program round-trips" (render program)
    (render t'.F.Repro.program);
  Alcotest.(check bool) "dev input round-trips" true
    (t'.F.Repro.dev_input = dev_input)

let test_runner_deterministic () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "opec-fuzz-test" in
  let r1 = F.Runner.run ~domains:1 ~lo:0 ~hi:5 ~out_dir:dir () in
  let r2 = F.Runner.run ~domains:1 ~lo:0 ~hi:5 ~out_dir:dir () in
  Alcotest.(check int) "clean sweep" 6 r1.F.Runner.r_passed;
  Alcotest.(check bool) "two sweeps agree" true (r1 = r2)

(* --- shrinker ------------------------------------------------------------ *)

let has_store (p : Program.t) =
  List.exists
    (fun (f : Func.t) ->
      Instr.fold_block
        (fun acc i ->
          acc || match i with Instr.Store _ -> true | _ -> false)
        false f.Func.body)
    p.Program.funcs

let test_shrink_fixpoint () =
  let program, dev_input = F.Gen.case ~seed:5 ~size:2 in
  let test (c : F.Shrink.case) = has_store c.F.Shrink.program in
  let case = { F.Shrink.program; dev_input } in
  Alcotest.(check bool) "input fails" true (test case);
  let before = F.Shrink.func_count case in
  let shrunk, _tests = F.Shrink.shrink ~test case in
  Alcotest.(check bool) "result still fails" true (test shrunk);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk (%d -> %d funcs)" before
       (F.Shrink.func_count shrunk))
    true
    (F.Shrink.func_count shrunk <= before);
  Alcotest.(check bool) "fixpoint: no single step remains" true
    (F.Shrink.improve ~test shrunk = None)

(* --- seeded-defect gate -------------------------------------------------- *)

(* A case fires the defect when its image accepts the corruption and
   the routed property then fails on the corrupted image. *)
let defect_fires defect prop (case : F.Shrink.case) =
  match
    try Some (C.Compiler.compile ~board case.F.Shrink.program
                case.F.Shrink.dev_input)
    with _ -> None
  with
  | None -> false
  | Some img -> (
    match F.Defect.apply defect img with
    | None -> false
    | Some bad -> (
      try
        F.Oracle.check_app ~image:bad ~properties:[ prop ]
          (F.Gen.app_of case.F.Shrink.program case.F.Shrink.dev_input)
        <> []
      with _ -> false))

let test_defect_gate defect () =
  let prop =
    match F.Oracle.find (F.Defect.caught_by defect) with
    | Some p -> p
    | None ->
      Alcotest.failf "defect %s routed to unknown property"
        (F.Defect.name defect)
  in
  let rec hunt seed =
    if seed > 99 then
      Alcotest.failf "no seed in 0..99 fires defect %s" (F.Defect.name defect)
    else
      let program, dev_input = F.Gen.case ~seed ~size:2 in
      let case = { F.Shrink.program; dev_input } in
      if defect_fires defect prop case then case else hunt (seed + 1)
  in
  let case = hunt 0 in
  let shrunk, _ =
    F.Shrink.shrink ~max_tests:400 ~test:(defect_fires defect prop) case
  in
  Alcotest.(check bool) "shrunk case still caught" true
    (defect_fires defect prop shrunk);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 5 functions (got %d)"
       (F.Shrink.func_count shrunk))
    true
    (F.Shrink.func_count shrunk <= 5)

(* clean images must NOT trip the gate properties: the oracles catch
   the corruption, not the program *)
let test_defects_need_corruption () =
  let program, dev_input = F.Gen.case ~seed:0 ~size:2 in
  let app = F.Gen.app_of program dev_input in
  List.iter
    (fun d ->
      let prop =
        match F.Oracle.find (F.Defect.caught_by d) with
        | Some p -> p
        | None -> Alcotest.fail "unknown property"
      in
      Alcotest.(check (list (pair string string)))
        (F.Defect.name d ^ ": clean image passes its property")
        []
        (F.Oracle.check_app ~properties:[ prop ] app))
    F.Defect.all

(* Corrupted shadow slots no longer match the relocations the compiler
   resolved, so the monitor refuses the image at creation.  That refusal
   must reach transparency as its own verdict (the protected run died,
   the baseline ran), not as an exception escaping the oracle. *)
let test_corrupt_shadow_refused_at_create () =
  let prop = Option.get (F.Oracle.find "transparency") in
  let rec hunt seed =
    if seed > 99 then Alcotest.fail "no seed in 0..99 corrupts a resolved site"
    else
      let program, dev_input = F.Gen.case ~seed ~size:2 in
      match C.Compiler.compile ~board program dev_input with
      | exception _ -> hunt (seed + 1)
      | img -> (
        match F.Defect.apply F.Defect.Corrupt_shadow img with
        | Some bad
          when (try
                  ignore (Opec_monitor.Monitor.create bad
                            (Opec_machine.Bus.create ~board));
                  false
                with Opec_monitor.Monitor.Violation _ -> true) ->
          (F.Gen.app_of program dev_input, bad)
        | _ -> hunt (seed + 1))
  in
  let app, bad = hunt 0 in
  match F.Oracle.check_app ~image:bad ~properties:[ prop ] app with
  | [ ("transparency", detail) ] ->
    let starts p =
      String.length detail >= String.length p
      && String.sub detail 0 (String.length p) = p
    in
    Alcotest.(check bool) ("a transparency verdict: " ^ detail) true
      (starts "protected died, baseline ran")
  | _ -> Alcotest.fail "transparency must fail on the refused image"

(* --- Interp.last_fault regression ---------------------------------------- *)

(* A faulting run used to leave [last_fault] set for the next run of
   the same interpreter, so post-mortem classifiers reading it after a
   clean run saw the stale fault.  [run] must reset it. *)
let test_last_fault_reset () =
  let p =
    Program.v ~name:"t" ~globals:[ word "out" ] ~peripherals:[]
      ~funcs:
        [ func "bad" [] [ store (c 0) (c 1); ret0 ];
          func "main" [] [ store (gv "out") (c 7); halt ] ]
      ()
  in
  let bus = M.Bus.create ~board in
  let layout = Ex.Vanilla_layout.make ~board p in
  Ex.Vanilla_layout.load_initial_values bus
    ~global_addr:layout.Ex.Vanilla_layout.map.Ex.Address_map.global_addr p;
  let interp = Ex.Interp.create ~bus ~map:layout.Ex.Vanilla_layout.map p in
  (try ignore (Ex.Interp.call interp "bad" [])
   with _ -> ());
  Alcotest.(check bool) "faulting store recorded" true
    (Ex.Interp.last_fault interp <> None);
  Ex.Interp.run interp;
  Alcotest.(check bool) "clean run clears the stale fault" true
    (Ex.Interp.last_fault interp = None)

(* --- coverage-guided mode ------------------------------------------------ *)

(* fresh per-test corpus directories under the test sandbox *)
let fresh_dir name =
  if Sys.file_exists name then
    Array.iter
      (fun f -> Sys.remove (Filename.concat name f))
      (Sys.readdir name)
  else Unix.mkdir name 0o755;
  name

(* Satellite gate: at the same seed budget, the coverage-guided
   stopping rule must rediscover every seeded defect class in strictly
   fewer executions than blind generation, which has no signal that it
   is done and so always spends the whole budget. *)
let test_efficiency_gate () =
  let effs = F.Runner.defect_efficiency ~lo:0 ~hi:39 () in
  Alcotest.(check int) "one row per defect class" (List.length F.Defect.all)
    (List.length effs);
  List.iter
    (fun (e : F.Runner.efficiency) ->
      Alcotest.(check int) "blind spends the whole budget" e.F.Runner.e_budget
        e.F.Runner.e_blind_execs;
      (match e.F.Runner.e_blind_first with
      | Some _ -> ()
      | None ->
        Alcotest.failf "%s: blind mode never rediscovered the defect"
          e.F.Runner.e_defect);
      (match e.F.Runner.e_guided_first with
      | Some _ -> ()
      | None ->
        Alcotest.failf "%s: guided mode never rediscovered the defect"
          e.F.Runner.e_defect);
      if e.F.Runner.e_guided_execs >= e.F.Runner.e_blind_execs then
        Alcotest.failf "%s: guided used %d executions, blind %d"
          e.F.Runner.e_defect e.F.Runner.e_guided_execs
          e.F.Runner.e_blind_execs)
    effs

(* loading a persisted corpus twice yields byte-identical coverage
   maps (and the replay traces they are distilled from) *)
let test_corpus_load_deterministic () =
  let dir = fresh_dir "_corpus_det" in
  let r =
    F.Runner.run_guided ~lo:0 ~hi:3 ~budget:4 ~corpus_dir:dir ~shrink:false ()
  in
  Alcotest.(check bool) "run persisted entries" true
    (r.F.Runner.g_new_entries > 0);
  let round () =
    let l = F.Corpus.load dir in
    Alcotest.(check (list string)) "no stale entries" []
      (List.map fst l.F.Corpus.skipped);
    let cov =
      List.fold_left
        (fun acc (e : F.Corpus.entry) ->
          F.Coverage.union acc
            (F.Coverage.of_case e.F.Corpus.case.F.Shrink.program
               e.F.Corpus.case.F.Shrink.dev_input))
        F.Coverage.empty l.F.Corpus.entries
    in
    (List.map (fun (e : F.Corpus.entry) -> e.F.Corpus.path) l.F.Corpus.entries,
     F.Coverage.encode cov)
  in
  let paths1, cov1 = round () in
  let paths2, cov2 = round () in
  Alcotest.(check (list string)) "same files in the same order" paths1 paths2;
  Alcotest.(check string) "byte-identical coverage maps" cov1 cov2;
  Alcotest.(check bool) "maps are non-trivial" true (String.length cov1 > 0)

(* corpus entries survive a Shrink round-trip: the minimized case still
   persists, reloads, and passes the staleness screen *)
let test_corpus_shrink_roundtrip () =
  let dir = fresh_dir "_corpus_shrink" in
  let program, dev_input = F.Gen.case ~seed:3 ~size:2 in
  let path0 =
    F.Corpus.save ~dir ~index:0 ~provenance:"seed 3"
      { F.Shrink.program; dev_input }
  in
  let loaded = F.Corpus.load dir in
  let entry =
    match loaded.F.Corpus.entries with
    | [ e ] -> e
    | es -> Alcotest.failf "expected 1 entry, loaded %d" (List.length es)
  in
  Alcotest.(check string) "loaded the saved file" path0 entry.F.Corpus.path;
  (* shrink against the corpus invariant — still has an operation,
     still compiles, still covers — not a failing property *)
  let test (c : F.Shrink.case) =
    c.F.Shrink.dev_input.C.Dev_input.entries <> []
    &&
    match F.Coverage.of_case c.F.Shrink.program c.F.Shrink.dev_input with
    | cov -> F.Coverage.cardinal cov > 0
    | exception _ -> false
  in
  let minimized, _tests = F.Shrink.shrink ~max_tests:200 ~test entry.F.Corpus.case in
  Alcotest.(check bool) "shrinking never grows the case" true
    (F.Shrink.func_count minimized <= F.Shrink.func_count entry.F.Corpus.case);
  ignore (F.Corpus.save ~dir ~index:1 ~provenance:"shrunk seed 3" minimized);
  let reloaded = F.Corpus.load dir in
  Alcotest.(check int) "both entries load" 2
    (List.length reloaded.F.Corpus.entries);
  Alcotest.(check (list string)) "neither is stale" []
    (List.map fst reloaded.F.Corpus.skipped)

(* stale corpus entries — unparseable files or ones naming removed IR
   constructs — are skipped with a diagnostic, never a crash *)
let test_corpus_stale_skipped () =
  let dir = fresh_dir "_corpus_stale" in
  let program, dev_input = F.Gen.case ~seed:0 ~size:2 in
  ignore
    (F.Corpus.save ~dir ~index:0 ~provenance:"seed 0"
       { F.Shrink.program; dev_input });
  (* an entry whose operation entry function no longer exists *)
  F.Repro.save
    (Filename.concat dir "corpus-000001.sexp")
    { F.Repro.seed = None; size = None; property = F.Corpus.property;
      detail = "stale"; program;
      dev_input = C.Dev_input.v [ "removed_entry" ] };
  (* bytes that are not a reproducer at all *)
  let oc = open_out (Filename.concat dir "corpus-000002.sexp") in
  output_string oc "(((not a repro";
  close_out oc;
  let loaded = F.Corpus.load dir in
  Alcotest.(check int) "the valid entry loads" 1
    (List.length loaded.F.Corpus.entries);
  Alcotest.(check int) "both stale files are skipped" 2
    (List.length loaded.F.Corpus.skipped);
  List.iter
    (fun (path, reason) ->
      if String.length reason = 0 then
        Alcotest.failf "no diagnostic for skipped %s" path)
    loaded.F.Corpus.skipped;
  Alcotest.(check int) "next index steps past stale files" 3
    (F.Corpus.next_index dir)

(* backend-matrix smoke: the coverage sweep runs once per enforcement
   backend and the backend-containment oracle holds on every corpus
   entry under every backend *)
let test_backend_matrix () =
  let dir = fresh_dir "_corpus_matrix" in
  ignore
    (F.Runner.run_guided ~lo:0 ~hi:2 ~budget:2 ~corpus_dir:dir ~shrink:false ());
  let loaded = F.Corpus.load dir in
  Alcotest.(check bool) "corpus has entries" true
    (loaded.F.Corpus.entries <> []);
  let containment =
    match F.Oracle.find "backend-containment" with
    | Some p -> p
    | None -> Alcotest.fail "backend-containment oracle is gone"
  in
  List.iter
    (fun backend ->
      List.iter
        (fun (e : F.Corpus.entry) ->
          let case = e.F.Corpus.case in
          let cov =
            F.Coverage.of_case ~backend case.F.Shrink.program
              case.F.Shrink.dev_input
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s sweep covers %s"
               (M.Backend.kind_name backend)
               (Filename.basename e.F.Corpus.path))
            true
            (F.Coverage.cardinal cov > 0);
          match
            F.Oracle.check_app ~properties:[ containment ]
              (F.Gen.app_of case.F.Shrink.program case.F.Shrink.dev_input)
          with
          | [] -> ()
          | (_, detail) :: _ ->
            Alcotest.failf "containment broke under %s on %s: %s"
              (M.Backend.kind_name backend)
              (Filename.basename e.F.Corpus.path)
              detail)
        loaded.F.Corpus.entries)
    M.Backend.all_kinds

let suite () =
  [ ( "fuzz",
      [ Alcotest.test_case "1000 seeds generate valid programs" `Slow
          test_generator_validity;
        Alcotest.test_case "generated cases compile" `Slow
          test_generator_compiles;
        Alcotest.test_case "same seed replays byte-identically" `Quick
          test_replay_deterministic;
        Alcotest.test_case "reproducer files round-trip" `Quick
          test_repro_roundtrip;
        Alcotest.test_case "sweep driver is deterministic" `Slow
          test_runner_deterministic;
        Alcotest.test_case "shrinker reaches a fixpoint" `Quick
          test_shrink_fixpoint;
        Alcotest.test_case "defect gate: drop-svc" `Slow
          (test_defect_gate F.Defect.Drop_svc);
        Alcotest.test_case "defect gate: widen-mpu" `Slow
          (test_defect_gate F.Defect.Widen_mpu);
        Alcotest.test_case "defect gate: corrupt-shadow" `Slow
          (test_defect_gate F.Defect.Corrupt_shadow);
        Alcotest.test_case "clean images pass the gate properties" `Quick
          test_defects_need_corruption;
        Alcotest.test_case "corrupt-shadow refused at monitor creation" `Quick
          test_corrupt_shadow_refused_at_create;
        Alcotest.test_case "last_fault resets between runs" `Quick
          test_last_fault_reset;
        Alcotest.test_case "guided beats blind on seeded defects" `Slow
          test_efficiency_gate;
        Alcotest.test_case "corpus loads deterministically" `Slow
          test_corpus_load_deterministic;
        Alcotest.test_case "corpus entries survive shrinking" `Slow
          test_corpus_shrink_roundtrip;
        Alcotest.test_case "stale corpus entries are skipped" `Quick
          test_corpus_stale_skipped;
        Alcotest.test_case "backend matrix holds on the corpus" `Slow
          test_backend_matrix ] ) ]
