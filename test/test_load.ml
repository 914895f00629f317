(* Tests for the load-generator scenario suite: determinism of the
   scripted device drivers, the percentile estimator's contract, and
   the exact pins: every synthetic scenario on every backend at a fixed
   10k-event target must reproduce the event count, switch spans,
   cycles and switch-latency quantiles recorded in
   [data/load_ref.json]. *)

module L = Opec_load
module M = Opec_machine
module Obs = Opec_obs

let ref_file = "data/load_ref.json"

(* --- percentile estimator ------------------------------------------------ *)

let test_percentile_contract () =
  let h =
    { Obs.Agg.buckets = Array.make Obs.Agg.hist_buckets 0;
      samples = 0; total = 0; min = max_int; max = 0 }
  in
  Alcotest.(check int64) "empty histogram reads 0" 0L
    (Obs.Agg.hist_percentile h 0.99);
  (* 100 samples of 10 cycles and one of 1000: the tail pops only past
     the 99th percentile *)
  let addc v =
    let rec bucket i = if v < (1 lsl (i + 1)) then i else bucket (i + 1) in
    let b = min (bucket 0) (Obs.Agg.hist_buckets - 1) in
    h.Obs.Agg.buckets.(b) <- h.Obs.Agg.buckets.(b) + 1;
    h.Obs.Agg.samples <- h.Obs.Agg.samples + 1;
    h.Obs.Agg.total <- h.Obs.Agg.total + v;
    if v < h.Obs.Agg.min then h.Obs.Agg.min <- v;
    if v > h.Obs.Agg.max then h.Obs.Agg.max <- v
  in
  for _ = 1 to 100 do addc 10 done;
  addc 1000;
  let p50 = Obs.Agg.hist_percentile h 0.5 in
  let p99 = Obs.Agg.hist_percentile h 0.99 in
  let p999 = Obs.Agg.hist_percentile h 0.999 in
  Alcotest.(check bool) "p50 sits in the 10-cycle bucket" true
    (p50 >= 8L && p50 <= 15L);
  Alcotest.(check bool) "p99 still below the outlier" true (p99 < 1000L);
  Alcotest.(check bool) "p999 lands in the outlier's bucket, capped at max"
    true
    (p999 >= 512L && p999 <= 1000L);
  Alcotest.(check bool) "quantiles are monotone" true
    (p50 <= p99 && p99 <= p999)

(* the estimator's edge cases: empty, single-sample, and the exact
   p0/p100 endpoints, which must be the observed extremes, never an
   interpolation artifact *)
let test_percentile_edges () =
  let fresh () =
    { Obs.Agg.buckets = Array.make Obs.Agg.hist_buckets 0;
      samples = 0; total = 0; min = max_int; max = 0 }
  in
  let add = Obs.Agg.hist_add in
  (* empty: every quantile reads 0 *)
  let h = fresh () in
  List.iter
    (fun q ->
      Alcotest.(check int64)
        (Printf.sprintf "empty q=%g is 0" q)
        0L (Obs.Agg.hist_percentile h q))
    [ 0.; 0.5; 1. ];
  (* single sample: every quantile is that sample *)
  let h = fresh () in
  add h 37;
  List.iter
    (fun q ->
      Alcotest.(check int64)
        (Printf.sprintf "single-sample q=%g is the sample" q)
        37L (Obs.Agg.hist_percentile h q))
    [ 0.; 0.25; 0.5; 0.99; 1. ];
  (* p0 / p100 are the exact observed extremes, and out-of-range
     quantiles clamp to them *)
  let h = fresh () in
  List.iter (add h) [ 3; 10; 10; 12; 900 ];
  Alcotest.(check int64) "p0 is the observed minimum" 3L
    (Obs.Agg.hist_percentile h 0.);
  Alcotest.(check int64) "p100 is the observed maximum" 900L
    (Obs.Agg.hist_percentile h 1.);
  Alcotest.(check int64) "q < 0 clamps to the minimum" 3L
    (Obs.Agg.hist_percentile h (-0.5));
  Alcotest.(check int64) "q > 1 clamps to the maximum" 900L
    (Obs.Agg.hist_percentile h 2.);
  (* interpolated quantiles stay within the observed range *)
  List.iter
    (fun q ->
      let v = Obs.Agg.hist_percentile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g within [min, max]" q)
        true
        (v >= 3L && v <= 900L))
    [ 0.01; 0.1; 0.5; 0.9; 0.99 ]

(* --- scenario determinism ------------------------------------------------ *)

(* the scripted device world is deterministic: two identical runs agree
   on every count and on the whole latency distribution *)
let test_run_deterministic () =
  let run () = L.Scenario.run ~target_events:10_000 L.Scenario.Request_storm in
  let a = run () and b = run () in
  Alcotest.(check int) "same events" a.L.Scenario.r_events
    b.L.Scenario.r_events;
  Alcotest.(check int) "same switch spans" a.L.Scenario.r_switch_spans
    b.L.Scenario.r_switch_spans;
  Alcotest.(check int64) "same cycles" a.L.Scenario.r_cycles
    b.L.Scenario.r_cycles;
  Alcotest.(check int64) "same p99" a.L.Scenario.r_p99 b.L.Scenario.r_p99;
  Alcotest.(check int64) "same p999" a.L.Scenario.r_p999 b.L.Scenario.r_p999

(* every scenario's end-to-end output check passes at a small target *)
let test_checks_pass () =
  List.iter
    (fun kind ->
      let r = L.Scenario.run ~target_events:5_000 kind in
      match r.L.Scenario.r_check with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" r.L.Scenario.r_scenario e)
    [ L.Scenario.Request_storm; L.Scenario.Sensor_burst;
      L.Scenario.Interrupt_preempt ]

(* --- the exact pins ------------------------------------------------------ *)

let pinned (r : L.Scenario.result) =
  let n v = Obs.Json.Int v and c v = Obs.Json.Int (Int64.to_int v) in
  Obs.Json.Obj
    [ ("scenario", Obs.Json.String r.L.Scenario.r_scenario);
      ("backend", Obs.Json.String r.L.Scenario.r_backend);
      ("events", n r.L.Scenario.r_events);
      ("switch_spans", n r.L.Scenario.r_switch_spans);
      ("cycles", c r.L.Scenario.r_cycles); ("p50", c r.L.Scenario.r_p50);
      ("p99", c r.L.Scenario.r_p99); ("p999", c r.L.Scenario.r_p999);
      ("max", c r.L.Scenario.r_max) ]

(* The model runs are deterministic, so every field is compared exactly:
   a switch-protocol change that moves the tail by one cycle fails here.
   A deliberate change is recorded by copying these fields from
   [opec load SCENARIO --backend B --events 10000 --json]. *)
let test_pinned () =
  let actual =
    List.concat_map
      (fun kind ->
        List.map
          (fun backend ->
            pinned (L.Scenario.run ~backend ~target_events:10_000 kind))
          M.Backend.all_kinds)
      [ L.Scenario.Request_storm; L.Scenario.Sensor_burst;
        L.Scenario.Interrupt_preempt ]
  in
  Alcotest.(check (list Test_switch.json))
    "events, spans, cycles and quantiles equal the recorded values"
    (Test_switch.read_pins ref_file) actual

let suite () =
  [ ( "load",
      [ Alcotest.test_case "percentile estimator contract" `Quick
          test_percentile_contract;
        Alcotest.test_case "percentile estimator edge cases" `Quick
          test_percentile_edges;
        Alcotest.test_case "scenario runs are deterministic" `Quick
          test_run_deterministic;
        Alcotest.test_case "scenario output checks pass" `Quick
          test_checks_pass;
        Alcotest.test_case "scenarios equal load_ref.json" `Quick
          test_pinned ] ) ]
