(* Tests for the compile-once artifact pipeline: memoization (physical
   sharing across consumers), cache keying on the developer input,
   deterministic parallel evaluation, the stage instrumentation, and
   the compile-exactly-once guarantee the full evaluation sweep relies
   on. *)

module C = Opec_core
module Apps = Opec_apps
module Met = Opec_metrics
module Atk = Opec_attack
module P = Opec_pipeline.Pipeline

(* Every test starts from an empty store so earlier suites (or earlier
   cases) can't satisfy its cache hits. *)
let fresh () =
  P.reset ();
  C.Compiler.reset_compile_count ()

(* --- memoization --------------------------------------------------------- *)

let test_image_physically_shared () =
  fresh ();
  let app = Apps.Registry.pinlock () in
  let c = P.ctx app in
  let i1 = P.image c in
  let i2 = P.image c in
  Alcotest.(check bool) "second access is the same artifact" true (i1 == i2);
  Alcotest.(check int) "the compiler ran once" 1 (C.Compiler.compile_count ())

let test_baseline_physically_shared () =
  fresh ();
  let app = Apps.Registry.pinlock () in
  let c = P.ctx app in
  let b1 = P.baseline c in
  let b2 = P.baseline c in
  Alcotest.(check bool) "baseline memoized" true (b1 == b2);
  let p1 = P.protected_ c in
  let p2 = P.protected_ c in
  Alcotest.(check bool) "protected run memoized" true (p1 == p2)

let test_dev_input_mutation_misses () =
  fresh ();
  let app = Apps.Registry.pinlock () in
  let mutated =
    { app with
      Apps.App.dev_input =
        { app.Apps.App.dev_input with
          C.Dev_input.entries = List.rev app.Apps.App.dev_input.C.Dev_input.entries } }
  in
  Alcotest.(check bool) "mutated dev_input has ≥2 entries" true
    (List.length app.Apps.App.dev_input.C.Dev_input.entries >= 2);
  let c = P.ctx app in
  let c' = P.ctx mutated in
  Alcotest.(check bool) "fingerprints differ" false
    (String.equal (P.key c) (P.key c'));
  let i = P.image c in
  let i' = P.image c' in
  Alcotest.(check bool) "distinct artifacts" false (i == i');
  Alcotest.(check int) "both compiled" 2 (C.Compiler.compile_count ());
  (* the original entry is untouched: re-reading it is still a hit *)
  Alcotest.(check bool) "original still cached" true (P.image c == i)

(* --- compile-exactly-once across a full sweep ---------------------------- *)

(* Drive every consumer the evaluation sweep runs — tables, figures,
   and the attack campaign — over the same workloads and assert the
   OPEC compiler ran exactly once per workload. *)
let test_sweep_compiles_once () =
  fresh ();
  let apps = Apps.Registry.all_small () in
  List.iter
    (fun app ->
      ignore (Met.Overhead.fig9_of_app app);
      ignore (Met.Overhead.task_instances app (P.baseline (P.ctx app)));
      List.iter
        (fun k -> ignore (P.aces (P.ctx app) k))
        [ Opec_aces.Strategy.Filename; Opec_aces.Strategy.Filename_no_opt;
          Opec_aces.Strategy.By_peripheral ];
      ignore (Atk.Campaign.run_app app))
    apps;
  Alcotest.(check int) "one compile per workload"
    (List.length apps)
    (C.Compiler.compile_count ())

(* --- deterministic parallel evaluation ----------------------------------- *)

let test_parallel_map_order () =
  fresh ();
  let apps = Apps.Registry.all_small () in
  let names = P.parallel_map (fun c -> (P.app c).Apps.App.app_name) apps in
  Alcotest.(check (list string))
    "results come back in input order"
    (List.map (fun (a : Apps.App.t) -> a.Apps.App.app_name) apps)
    names

let test_campaign_parallel_deterministic () =
  fresh ();
  let apps = Apps.Registry.all_small () in
  let sequential = List.map (fun app -> Atk.Campaign.run_app app) apps in
  P.reset ();
  let fanned = Atk.Campaign.run_all ~domains:2 apps in
  (* byte-identical reports: every injection and cell classification
     matches the sequential run *)
  Alcotest.(check bool) "same matrices" true (sequential = fanned)

(* --- instrumentation ----------------------------------------------------- *)

let test_timings_and_counts () =
  fresh ();
  let app = Apps.Registry.pinlock () in
  let c = P.ctx app in
  P.warm c;
  Alcotest.(check int) "image computed once" 1 (P.compute_count c "image");
  Alcotest.(check int) "baseline computed once" 1
    (P.compute_count c "baseline");
  ignore (P.image c);
  ignore (P.baseline c);
  Alcotest.(check int) "hits don't recount" 1 (P.compute_count c "image");
  let timings = P.timings c in
  Alcotest.(check bool) "timings recorded" true (List.length timings > 0);
  List.iter
    (fun (stage, seconds) ->
      Alcotest.(check bool)
        (Printf.sprintf "stage %s is known" stage)
        true
        (List.mem stage P.stage_names);
      Alcotest.(check bool)
        (Printf.sprintf "stage %s has a sane duration" stage)
        true (seconds >= 0.0))
    timings;
  Alcotest.(check (list string)) "one protected stage" [ "protected" ]
    (List.filter (String.starts_with ~prefix:"protected") P.stage_names)

(* The attack campaign's clean reference and the overhead breakdown
   read the same protected run: one stage, computed once. *)
let test_one_protected_run () =
  fresh ();
  let app = Apps.Registry.pinlock ~rounds:4 () in
  let c = P.ctx app in
  ignore (Atk.Campaign.run_opec_only app);
  ignore (Met.Overhead.breakdown_of_app app);
  Alcotest.(check (list (pair string int))) "protected stages computed"
    [ ("protected", 1) ]
    (List.filter
       (fun (stage, _) -> String.starts_with ~prefix:"protected" stage)
       (P.compute_counts c))

(* --- failure path --------------------------------------------------------- *)

(* An app whose front end rejects the program: [main] calls a function
   that does not exist.  The record is built directly, since
   [Program.v] would reject it before the store sees it. *)
let ill_formed_app () =
  let open Opec_ir in
  { Apps.App.app_name = "ill-formed";
    board = Opec_machine.Memmap.stm32f4_discovery;
    program =
      { Program.name = "ill-formed";
        globals = [];
        peripherals = [];
        funcs = [ Build.func "main" [] [ Build.call "nowhere" []; Build.halt ] ];
        main = "main" };
    dev_input = C.Dev_input.v [];
    make_world =
      (fun () ->
        { Apps.App.devices = [];
          prepare = (fun () -> ());
          check = (fun () -> Ok ()) }) }

let image_error c =
  match P.image c with
  | _ -> Alcotest.fail "an ill-formed program compiled"
  | exception (Opec_ir.Program.Ill_formed _ as e) -> Printexc.to_string e

(* A failing stage abandons its claim: a second lookup computes again
   and raises the same exception (no stale value, no hang), and the
   failure leaves no timing and no compute count behind. *)
let test_failed_stage_recomputes () =
  fresh ();
  let c = P.ctx (ill_formed_app ()) in
  let first = image_error c in
  Alcotest.(check string) "second lookup raises the same" first
    (image_error c);
  Alcotest.(check (list (pair string (float 0.0)))) "no timings" []
    (P.timings c);
  Alcotest.(check (list (pair string int))) "no compute counts" []
    (P.compute_counts c);
  (* two domains asking at once: both see the exception *)
  let results =
    Opec_pipeline.Pool.map_result ~domains:2
      (fun () -> P.image (P.ctx (ill_formed_app ())))
      [ (); () ]
  in
  List.iter
    (function
      | Ok _ -> Alcotest.fail "an ill-formed program compiled on a domain"
      | Error e ->
        Alcotest.(check string) "each domain sees the exception" first
          (Printexc.to_string e))
    results;
  Alcotest.(check (list (pair string int))) "still no compute counts" []
    (P.compute_counts c)

let suite () =
  [ ( "pipeline",
      [ Alcotest.test_case "image physically shared" `Quick
          test_image_physically_shared;
        Alcotest.test_case "runs memoized" `Quick
          test_baseline_physically_shared;
        Alcotest.test_case "mutated dev_input misses" `Quick
          test_dev_input_mutation_misses;
        Alcotest.test_case "sweep compiles once per app" `Slow
          test_sweep_compiles_once;
        Alcotest.test_case "parallel_map keeps input order" `Quick
          test_parallel_map_order;
        Alcotest.test_case "campaign fan-out deterministic" `Slow
          test_campaign_parallel_deterministic;
        Alcotest.test_case "timings and compute counts" `Quick
          test_timings_and_counts;
        Alcotest.test_case "campaign and breakdown share one run" `Quick
          test_one_protected_run;
        Alcotest.test_case "failed stage recomputes" `Quick
          test_failed_stage_recomputes ] ) ]
