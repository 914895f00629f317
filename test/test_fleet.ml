(* Tests for the fleet evaluation service and the work-stealing pool it
   runs on: compile-exactly-once under heavy domain contention, physical
   sharing through the sharded store, byte-deterministic reports across
   pool widths, exception safety of the scheduler, the
   nested-parallelism guard, and journal well-formedness. *)

module C = Opec_core
module Apps = Opec_apps
module P = Opec_pipeline.Pipeline
module Pool = Opec_pipeline.Pool
module Fl = Opec_fleet

let fresh () =
  P.reset ();
  C.Compiler.reset_compile_count ()

(* --- compile-exactly-once under contention ------------------------------- *)

(* Eight domains race eight units that all want the same workload's
   image: the store's in-flight claim must hold exactly one of them to
   the compile and park the other seven on the condition variable. *)
let test_store_contention_compiles_once () =
  fresh ();
  let app = Apps.Registry.pinlock () in
  let images =
    Pool.map ~domains:8 (fun _ -> P.image (P.ctx app)) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check int) "one compile despite 8 racing units" 1
    (C.Compiler.compile_count ());
  let first = List.hd images in
  List.iter
    (fun i ->
      Alcotest.(check bool) "every racer got the same artifact" true
        (i == first))
    images

(* The same guarantee end-to-end: a fleet job at -j 8 whose tasks all
   need the compiled image still compiles each image exactly once. *)
let test_fleet_compiles_once () =
  fresh ();
  let spec =
    { Fl.Spec.apps = Fl.Spec.All_apps;
      seeds = Some (0, 5);
      seed_size = 2;
      tasks = [ Fl.Spec.Compile; Fl.Spec.Lint ];
      backends = [ Opec_machine.Backend.Mpu ] }
  in
  let n_images =
    match Fl.Spec.images spec with
    | Ok l -> List.length l
    | Error e -> Alcotest.fail e
  in
  match Fl.Fleet.run ~domains:8 spec with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check (list (pair string string))) "no task failures" []
      o.Fl.Fleet.o_failures;
    Alcotest.(check int) "one compile per image" n_images
      (C.Compiler.compile_count ())

(* --- physical sharing across the sharded store --------------------------- *)

(* Distinct workloads hash into distinct shards; within each shard the
   entry is still memoized, so re-deriving any stage is the same
   physical artifact. *)
let test_sharded_memoization_physical () =
  fresh ();
  let apps = Apps.Registry.all_small () in
  let round1 = Pool.map ~domains:4 (fun a -> P.image (P.ctx a)) apps in
  let round2 = Pool.map ~domains:2 (fun a -> P.image (P.ctx a)) apps in
  List.iter2
    (fun i1 i2 ->
      Alcotest.(check bool) "second derivation is the same artifact" true
        (i1 == i2))
    round1 round2;
  Alcotest.(check int) "one compile per workload" (List.length apps)
    (C.Compiler.compile_count ())

(* --- deterministic reports across -j ------------------------------------- *)

let test_report_bytes_deterministic () =
  let spec =
    { Fl.Spec.apps = Fl.Spec.No_apps;
      seeds = Some (0, 9);
      seed_size = 2;
      tasks = [ Fl.Spec.Compile; Fl.Spec.Lint; Fl.Spec.Attack ];
      backends = [ Opec_machine.Backend.Mpu ] }
  in
  let run j =
    fresh ();
    match Fl.Fleet.run ~domains:j spec with
    | Error e -> Alcotest.fail e
    | Ok o -> (Fl.Fleet.report_text o, Fl.Fleet.report_json o)
  in
  let t1, j1 = run 1 in
  let t4, j4 = run 4 in
  Alcotest.(check string) "text report byte-identical across -j" t1 t4;
  Alcotest.(check string) "json report byte-identical across -j" j1 j4

(* --- scheduler exception safety ------------------------------------------ *)

exception Boom of int

let test_pool_raise_regression () =
  fresh ();
  (* the first raising element (in input order) is what the caller
     sees, the pool drains, and no helper domain is leaked *)
  let raised =
    try
      ignore
        (Pool.map ~domains:4
           (fun i -> if i mod 3 = 0 then raise (Boom i) else i)
           [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "first in-order failure re-raised" (Some 3)
    raised;
  (* the pool is not wedged: a subsequent run works and its results are
     in order *)
  let again = Pool.map ~domains:4 (fun i -> i * 2) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "pool usable after a failure" [ 2; 4; 6 ] again;
  (* map_result keeps failures in their slots instead of raising *)
  let slots =
    Pool.map_result ~domains:4
      (fun i -> if i = 2 then raise (Boom i) else i)
      [ 1; 2; 3 ]
  in
  let show = function
    | Ok i -> Printf.sprintf "ok %d" i
    | Error (Boom i) -> Printf.sprintf "boom %d" i
    | Error _ -> "other"
  in
  Alcotest.(check (list string))
    "map_result isolates the failure" [ "ok 1"; "boom 2"; "ok 3" ]
    (List.map show slots)

(* --- nested parallelism cannot oversubscribe ----------------------------- *)

let test_nested_no_oversubscription () =
  fresh ();
  Pool.live_peak_reset ();
  let outer = [ 1; 2; 3; 4; 5; 6 ] in
  let results =
    Pool.map ~domains:3
      (fun i ->
        (* a unit that itself fans out — the attack-inside-fleet shape;
           the nested map must run inline on this worker's domain *)
        let inner = Pool.map ~domains:4 (fun j -> i * 10 + j) [ 1; 2; 3 ] in
        List.fold_left ( + ) 0 inner)
      outer
  in
  Alcotest.(check (list int))
    "nested results correct"
    (List.map (fun i -> (i * 30) + 6) outer)
    results;
  Alcotest.(check bool)
    (Printf.sprintf "peak live participants %d stayed within the outer width"
       (Pool.live_peak_value ()))
    true
    (Pool.live_peak_value () <= 3)

(* --- mixed enforcement backends in one job ------------------------------- *)

(* One job spec naming two backends runs every image×task unit once per
   backend, qualifies the non-MPU units' names, and completes with no
   failures and no OPEC escapes under either backend. *)
let test_fleet_mixes_backends () =
  fresh ();
  let spec =
    { Fl.Spec.apps = Fl.Spec.Named [ "PinLock" ];
      seeds = Some (0, 1);
      seed_size = 2;
      tasks = [ Fl.Spec.Compile; Fl.Spec.Attack ];
      backends = [ Opec_machine.Backend.Mpu; Opec_machine.Backend.Pmp ] }
  in
  (match Fl.Spec.backends_of_string "mpu, pmp" with
  | Ok ks ->
    Alcotest.(check bool) "backend list parser round-trips" true
      (ks = spec.Fl.Spec.backends)
  | Error e -> Alcotest.fail e);
  match Fl.Fleet.run ~domains:2 spec with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check (list (pair string string))) "no task failures" []
      o.Fl.Fleet.o_failures;
    Alcotest.(check int) "image x task x backend units" (3 * 2 * 2)
      (List.length o.Fl.Fleet.o_units);
    let names = List.map Fl.Spec.unit_name o.Fl.Fleet.o_units in
    Alcotest.(check bool) "MPU units keep the bare image name" true
      (List.mem "PinLock:attack" names);
    Alcotest.(check bool) "PMP units are backend-qualified" true
      (List.mem "PinLock@pmp:attack" names);
    Alcotest.(check int) "no escapes under either backend" 0
      o.Fl.Fleet.o_agg.Fl.Agg.g_opec_escapes

(* --- journal well-formedness --------------------------------------------- *)

let test_journal_well_formed () =
  fresh ();
  let spec =
    { Fl.Spec.apps = Fl.Spec.No_apps;
      seeds = Some (0, 7);
      seed_size = 2;
      tasks = [ Fl.Spec.Compile; Fl.Spec.Lint ];
      backends = [ Opec_machine.Backend.Mpu ] }
  in
  match Fl.Fleet.run ~domains:3 spec with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let j = o.Fl.Fleet.o_journal in
    let n = List.length o.Fl.Fleet.o_units in
    Alcotest.(check int) "every unit enqueued" n (Fl.Journal.count j "enqueued");
    Alcotest.(check int) "every unit started" n (Fl.Journal.count j "started");
    Alcotest.(check int) "every unit finished or failed" n
      (Fl.Journal.count j "finished" + Fl.Journal.count j "failed");
    let entries = Fl.Journal.entries j in
    let names = List.map Fl.Spec.unit_name o.Fl.Fleet.o_units in
    List.iteri
      (fun i (e : Fl.Journal.entry) ->
        Alcotest.(check int) "sequence numbers are dense and ordered" i
          e.Fl.Journal.e_seq;
        Alcotest.(check bool)
          (Printf.sprintf "unit %s is from this job" e.Fl.Journal.e_unit)
          true
          (List.mem e.Fl.Journal.e_unit names);
        Alcotest.(check bool) "domain id within the pool" true
          (e.Fl.Journal.e_domain >= 0 && e.Fl.Journal.e_domain < 3);
        Alcotest.(check bool) "timestamp non-negative" true
          (Int64.compare e.Fl.Journal.e_ns 0L >= 0))
      entries;
    (* the exported JSON parses back to one event object per entry *)
    let module Json = Opec_obs.Json in
    let kinds =
      match Json.parse (Fl.Journal.to_json j) with
      | Ok (Json.Obj [ ("events", Json.List es) ]) ->
        List.map
          (function Json.Obj kvs -> List.assoc_opt "kind" kvs | _ -> None)
          es
      | _ -> Alcotest.fail "journal JSON is not an events array"
    in
    Alcotest.(check int) "one event object per entry" (List.length entries)
      (List.length kinds);
    Alcotest.(check bool) "journal JSON mentions every kind" true
      (List.for_all
         (fun k -> List.mem (Some (Json.String k)) kinds)
         [ "enqueued"; "started"; "finished" ])

(* --- failed tasks are contained, reported, and journaled ----------------- *)

let test_failed_task_contained () =
  fresh ();
  (* an unknown registry name fails spec resolution... *)
  (match
     Fl.Spec.units
       { Fl.Spec.default with Fl.Spec.apps = Fl.Spec.Named [ "no-such-app" ] }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown app accepted");
  (* ...and a raising task becomes a Failed slot plus a failed journal
     event, not a crashed fleet.  Drive it through the pool directly
     with a raising unit to keep the probe self-contained. *)
  let journal = Fl.Journal.create () in
  let names = [| "a:boom"; "b:fine" |] in
  let slots =
    Pool.map_result ~domains:2
      ~on_event:(Fl.Journal.record_pool_event journal names)
      (fun i -> if i = 0 then raise (Boom 0) else i)
      [ 0; 1 ]
  in
  Alcotest.(check int) "one failure slot" 1
    (List.length (List.filter Result.is_error slots));
  Alcotest.(check int) "one failed journal event" 1
    (Fl.Journal.count journal "failed");
  Alcotest.(check int) "one finished journal event" 1
    (Fl.Journal.count journal "finished")

let suite () =
  [ ( "fleet",
      [ Alcotest.test_case "store contention compiles once" `Quick
          test_store_contention_compiles_once;
        Alcotest.test_case "fleet -j8 compiles once per image" `Slow
          test_fleet_compiles_once;
        Alcotest.test_case "sharded store physically shares" `Slow
          test_sharded_memoization_physical;
        Alcotest.test_case "report bytes deterministic across -j" `Slow
          test_report_bytes_deterministic;
        Alcotest.test_case "pool raise regression" `Quick
          test_pool_raise_regression;
        Alcotest.test_case "nested map cannot oversubscribe" `Quick
          test_nested_no_oversubscription;
        Alcotest.test_case "fleet mixes backends in one job" `Slow
          test_fleet_mixes_backends;
        Alcotest.test_case "journal well-formed" `Quick
          test_journal_well_formed;
        Alcotest.test_case "failures contained and journaled" `Quick
          test_failed_task_contained ] ) ]
