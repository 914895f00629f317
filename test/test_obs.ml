(* Telemetry tests: the counter-drift differential (monitor Stats
   counters vs the telemetry event stream, over every registry
   workload), cycle identity of the instrumented run, the overhead
   breakdown pinned to BENCH_obs.json, exporter reconciliation, and the
   trace forward-view cache. *)

module Apps = Opec_apps
module Mon = Opec_monitor
module Obs = Opec_obs
module E = Opec_exec
module M = Opec_machine
module P = Opec_pipeline.Pipeline

let spans evs =
  List.filter_map (function Obs.Sink.Switch s -> Some s | _ -> None) evs

let span_bytes (s : Obs.Sink.span) =
  List.fold_left
    (fun acc (p : Obs.Sink.phase_sample) -> acc + p.Obs.Sink.ph_bytes)
    0 s.Obs.Sink.sp_phases

(* Every Stats counter must agree exactly with its telemetry shadow:
   drift between the two means an emission site or a counter bump is
   missing. *)
let check_app (app : Apps.App.t) =
  let p = P.protected_ (P.ctx app) in
  P.reraise p.P.p_err;
  let st = p.P.p_stats in
  let a = Obs.Agg.of_events p.P.p_events in
  let name = app.Apps.App.app_name in
  let chk what expected got =
    Alcotest.(check int) (Printf.sprintf "%s: %s" name what) expected got
  in
  chk "switch spans = Stats.switches" st.Mon.Stats.switches
    a.Obs.Agg.switch_spans;
  chk "swap events = Stats.virt_swaps" st.Mon.Stats.virt_swaps
    a.Obs.Agg.swap_events;
  chk "emulation events = Stats.emulations" st.Mon.Stats.emulations
    a.Obs.Agg.emulation_events;
  chk "denial events = Stats.denied" st.Mon.Stats.denied
    a.Obs.Agg.denial_events;
  chk "svc marks = Interp.switches" p.P.p_switches a.Obs.Agg.svc_marks;
  chk "Interp.switches = Stats.switches" st.Mon.Stats.switches p.P.p_switches;
  chk "span bytes = Stats.synced_bytes" st.Mon.Stats.synced_bytes
    a.Obs.Agg.synced_bytes;
  (* the per-span bytes reconcile too, not just the aggregate *)
  chk "summed span bytes = Stats.synced_bytes" st.Mon.Stats.synced_bytes
    (List.fold_left
       (fun acc s -> acc + span_bytes s)
       0
       (spans p.P.p_events))

let test_counter_drift () = List.iter check_app (Apps.Registry.all_small ())

(* Attaching the telemetry sink must not perturb the run: the store's
   protected run, which always carries an in-memory sink, has the same
   cycles and statistics as a private sink-less run of the same image,
   on every backend. *)
let test_cycle_identity () =
  List.iter
    (fun backend ->
      List.iter
        (fun (app : Apps.App.t) ->
          let c = P.ctx ~backend app in
          let p = P.protected_ c in
          P.reraise p.P.p_err;
          let world = app.Apps.App.make_world () in
          world.Apps.App.prepare ();
          let r =
            Mon.Runner.run_protected ~devices:world.Apps.App.devices
              (P.image c)
          in
          let what =
            Printf.sprintf "%s on %s" app.Apps.App.app_name
              (M.Backend.kind_name backend)
          in
          Alcotest.(check bool) (what ^ ": private run has no sink") false
            (Mon.Monitor.sink r.Mon.Runner.monitor).Obs.Sink.active;
          Alcotest.(check int64) (what ^ ": cycles identical") p.P.p_cycles
            (E.Interp.cycles r.Mon.Runner.interp);
          Alcotest.(check string) (what ^ ": stats identical")
            (Fmt.str "%a" Mon.Stats.pp p.P.p_stats)
            (Fmt.str "%a" Mon.Stats.pp (Mon.Monitor.stats r.Mon.Runner.monitor)))
        (Apps.Registry.all_small ()))
    M.Backend.all_kinds

(* ---- the overhead breakdown, pinned ---------------------------------- *)

(* Every registry workload's Section 6.3 breakdown equals its row in the
   checked-in BENCH_obs.json, field by field: the model runs are
   deterministic, so cycles, phases, switches, swaps, emulations and
   synced bytes are compared exactly.  [bench/main.exe obs] regenerates
   the file when a change moves them on purpose. *)
let test_breakdown_pinned () =
  let recorded =
    match
      Obs.Json.parse
        (In_channel.with_open_bin "../BENCH_obs.json" In_channel.input_all)
    with
    | Ok (Obs.Json.Obj [ ("workloads", Obs.Json.List rows) ]) -> rows
    | Ok _ -> Alcotest.fail "BENCH_obs.json: not a {\"workloads\": [...]} object"
    | Error e -> Alcotest.failf "BENCH_obs.json: %s" e
  in
  let actual =
    List.map
      (fun (app : Apps.App.t) ->
        Obs.Json.Obj
          (("app", Obs.Json.String app.Apps.App.app_name)
          :: Opec_metrics.Overhead.(breakdown_json (breakdown_of_app app))))
      (Apps.Registry.all ())
  in
  Alcotest.(check (list Test_switch.json))
    "every field equals BENCH_obs.json" recorded actual

(* ---- exporter reconciliation --------------------------------------- *)

let occurrences hay needle =
  let n = String.length hay and m = String.length needle in
  let count = ref 0 in
  for i = 0 to n - m do
    if String.equal (String.sub hay i m) needle then incr count
  done;
  !count

let pinlock_obs () =
  let p = P.protected_ (P.ctx (Apps.Registry.pinlock ~rounds:5 ())) in
  P.reraise p.P.p_err;
  p

(* An exported document, parsed back: its members, and the [key]
   member of each object in its array [arr]. *)
let exported s arr key =
  let field k = function Obs.Json.Obj kvs -> List.assoc_opt k kvs | _ -> None in
  match Obs.Json.parse s with
  | Ok (Obs.Json.Obj kvs as doc) -> (
    match List.assoc_opt arr kvs with
    | Some (Obs.Json.List l) -> (kvs, List.map (field key) l)
    | _ -> Alcotest.failf "no %S array in %s" arr (Obs.Json.to_string doc))
  | _ -> Alcotest.fail "export is not a JSON object"

let count keys v = List.length (List.filter (( = ) (Some (Obs.Json.String v))) keys)

let test_chrome_reconciles () =
  let p = pinlock_obs () in
  let evs = p.P.p_events in
  let a = Obs.Agg.of_events evs in
  let top, cats = exported (Obs.Export.chrome evs) "traceEvents" "cat" in
  let cat = count cats in
  Alcotest.(check int) "one complete event per span (incl. init)"
    (a.Obs.Agg.switch_spans + a.Obs.Agg.init_spans)
    (cat "switch");
  let legs =
    Array.fold_left
      (fun acc (t : Obs.Agg.phase_total) -> acc + t.Obs.Agg.pt_samples)
      0 a.Obs.Agg.totals
  in
  Alcotest.(check int) "one complete event per phase leg" legs (cat "phase");
  Alcotest.(check int) "one instant per emulation" a.Obs.Agg.emulation_events
    (cat "emulation");
  Alcotest.(check int) "one instant per region swap" a.Obs.Agg.swap_events
    (cat "region-swap");
  Alcotest.(check int) "one instant per denial" a.Obs.Agg.denial_events
    (cat "denial");
  Alcotest.(check int) "one instant per svc mark" a.Obs.Agg.svc_marks
    (cat "svc");
  (* spans reconcile with the Stats counters, the acceptance bar *)
  Alcotest.(check int) "chrome spans = Stats.switches"
    p.P.p_stats.Mon.Stats.switches
    (cat "switch" - a.Obs.Agg.init_spans);
  Alcotest.(check int) "every trace event counted once" (List.length cats)
    (cat "switch" + legs + a.Obs.Agg.emulation_events + a.Obs.Agg.swap_events
    + a.Obs.Agg.denial_events + a.Obs.Agg.svc_marks);
  Alcotest.(check bool) "wrapped as a trace-event document" true
    (List.assoc_opt "displayTimeUnit" top = Some (Obs.Json.String "ns"))

let test_json_reconciles () =
  let p = pinlock_obs () in
  let evs = p.P.p_events in
  let a = Obs.Agg.of_events evs in
  let _, types = exported (Obs.Export.json evs) "events" "type" in
  let ty = count types in
  Alcotest.(check int) "one switch object per span"
    (a.Obs.Agg.switch_spans + a.Obs.Agg.init_spans)
    (ty "switch");
  Alcotest.(check int) "one emulation object per event"
    a.Obs.Agg.emulation_events (ty "emulation");
  Alcotest.(check int) "one svc object per mark" a.Obs.Agg.svc_marks
    (ty "svc_switch");
  Alcotest.(check int) "one object per event" (List.length evs)
    (List.length types)

let test_text_renders () =
  let s = Obs.Export.text (pinlock_obs ()).P.p_events in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (occurrences s needle >= 1))
    [ "switch spans"; "phase breakdown"; "per operation"; "switch matrix" ]

(* ---- golden exports ------------------------------------------------- *)

(* The three exports of two recorded streams, byte for byte: Camera on
   the MPU (spans, a region swap, PPB emulations, SVC marks) and PinLock
   on PMP.  The reconciliation tests above count event types; these pin
   every timestamp, field and aggregate the exporters print. *)
let golden_dir = "data/obs_exports"

let test_golden_exports () =
  List.iter
    (fun (stem, backend, (app : Apps.App.t)) ->
      let p = P.protected_ (P.ctx ~backend app) in
      P.reraise p.P.p_err;
      let evs = p.P.p_events in
      List.iter
        (fun (suffix, render) ->
          let file = Filename.concat golden_dir (stem ^ suffix) in
          Alcotest.(check string) file
            (In_channel.with_open_bin file In_channel.input_all)
            (render evs))
        [ (".txt", Obs.Export.text ~events:true); (".json", Obs.Export.json);
          (".chrome.json", Obs.Export.chrome) ])
    [ ("camera-mpu", M.Backend.Mpu, Apps.Registry.camera ());
      ("pinlock-pmp", M.Backend.Pmp, Apps.Registry.pinlock ~rounds:4 ()) ]

(* ---- Agg name identity --------------------------------------------- *)

(* [Agg] looks an operation up by physical equality before
   [String.equal]: a stream whose names are fresh copies, equal but not
   identical, must aggregate to the same figures as the recorded one.
   Synthetic spans add [""] sources and destinations, and more names
   than [Agg] scans before it falls back to hashing, each seen twice. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

let fresh_names : Obs.Sink.event -> Obs.Sink.event = function
  | Obs.Sink.Switch s ->
    Obs.Sink.Switch
      { s with Obs.Sink.sp_src = fresh s.Obs.Sink.sp_src;
        sp_dst = fresh s.Obs.Sink.sp_dst }
  | Obs.Sink.Region_swap r -> Obs.Sink.Region_swap { r with rs_op = fresh r.rs_op }
  | Obs.Sink.Emulation e -> Obs.Sink.Emulation { e with em_op = fresh e.em_op }
  | Obs.Sink.Denial d -> Obs.Sink.Denial { d with dn_op = fresh d.dn_op }
  | Obs.Sink.Svc_switch v -> Obs.Sink.Svc_switch { v with sv_entry = fresh v.sv_entry }

let synthetic_events () =
  let span kind src dst at cycles =
    Obs.Sink.Switch
      { Obs.Sink.sp_kind = kind; sp_src = src; sp_dst = dst; sp_start = at;
        sp_end = at + cycles;
        sp_phases =
          [ { Obs.Sink.ph = Obs.Sink.Sync; ph_start = at; ph_end = at + 1;
              ph_bytes = 8 };
            { Obs.Sink.ph = Obs.Sink.Mpu_config; ph_start = at + 1;
              ph_end = at + cycles; ph_bytes = 0 } ] }
  in
  [ span Obs.Sink.Enter "" "lone" 10 3; span Obs.Sink.Exit "lone" "" 20 700;
    span Obs.Sink.Thread "lone" "" 800 40; span Obs.Sink.Init "" "lone" 900 5;
    Obs.Sink.Denial { dn_op = ""; dn_reason = "synthetic"; dn_info = None; dn_at = 950 } ]
  @ List.concat_map
      (fun i ->
        let op = Printf.sprintf "op%d" i and at = 1000 + (10 * i) in
        let src = if i mod 3 = 0 then "" else "lone" in
        [ span Obs.Sink.Enter src op at (i + 2); span Obs.Sink.Exit op src (at + 5) 3 ])
      (List.init 24 Fun.id)

let agg_summary (a : Obs.Agg.t) =
  [ ("switch_spans", a.Obs.Agg.switch_spans); ("init_spans", a.Obs.Agg.init_spans);
    ("swap_events", a.Obs.Agg.swap_events);
    ("emulation_events", a.Obs.Agg.emulation_events);
    ("denial_events", a.Obs.Agg.denial_events); ("svc_marks", a.Obs.Agg.svc_marks);
    ("switch_cycles", a.Obs.Agg.switch_cycles);
    ("init_cycles", Int64.to_int a.Obs.Agg.init_cycles);
    ("synced_bytes", a.Obs.Agg.synced_bytes) ]

let quantiles h = List.map (Obs.Agg.hist_percentile h) [ 0.5; 0.99; 0.999 ]

let test_agg_name_identity () =
  let camera = P.protected_ (P.ctx (Apps.Registry.camera ())) in
  P.reraise camera.P.p_err;
  let evs = (pinlock_obs ()).P.p_events @ camera.P.p_events @ synthetic_events () in
  Alcotest.(check bool) "a fresh copy is a different string" false (fresh "" == "");
  let a = Obs.Agg.of_events evs in
  let b = Obs.Agg.of_events (List.map fresh_names evs) in
  Alcotest.(check (list (pair string int))) "summary" (agg_summary a) (agg_summary b);
  Alcotest.(check bool) "phase totals" true (a.Obs.Agg.totals = b.Obs.Agg.totals);
  Alcotest.(check bool) "latency histogram" true
    (a.Obs.Agg.all_latency = b.Obs.Agg.all_latency);
  Alcotest.(check (list int64)) "p50/p99/p999" (quantiles a.Obs.Agg.all_latency)
    (quantiles b.Obs.Agg.all_latency);
  Alcotest.(check (list (triple string string int))) "matrix rows"
    (Obs.Agg.matrix_rows a) (Obs.Agg.matrix_rows b);
  let ops = Obs.Agg.ops_by_cost a and ops' = Obs.Agg.ops_by_cost b in
  Alcotest.(check (list string)) "operations by cost"
    (List.map (fun (o : Obs.Agg.op_agg) -> o.Obs.Agg.op_name) ops)
    (List.map (fun (o : Obs.Agg.op_agg) -> o.Obs.Agg.op_name) ops');
  Alcotest.(check bool) "every operation's record" true (ops = ops');
  let names = List.map (fun (o : Obs.Agg.op_agg) -> o.Obs.Agg.op_name) ops in
  Alcotest.(check int) "one record per operation" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let cells = List.map (fun (src, dst, _) -> (src, dst)) (Obs.Agg.matrix_rows a) in
  Alcotest.(check int) "one matrix cell per pair" (List.length cells)
    (List.length (List.sort_uniq compare cells));
  List.iter2
    (fun (o : Obs.Agg.op_agg) (o' : Obs.Agg.op_agg) ->
      Alcotest.(check (list int64)) (o.Obs.Agg.op_name ^ " p50/p99/p999")
        (quantiles o.Obs.Agg.op_latency) (quantiles o'.Obs.Agg.op_latency))
    ops ops';
  Alcotest.(check bool) "the matrix has \"\" sources and destinations" true
    (List.exists (fun (src, _, _) -> src = "") (Obs.Agg.matrix_rows a)
    && List.exists (fun (_, dst, _) -> dst = "") (Obs.Agg.matrix_rows a))

(* ---- null sink ------------------------------------------------------ *)

let test_null_sink_inert () =
  Alcotest.(check bool) "null sink is inactive" false
    Obs.Sink.null.Obs.Sink.active;
  (* emitting into it is a no-op, not an error *)
  Obs.Sink.null.Obs.Sink.emit
    (Obs.Sink.Svc_switch
       { sv_kind = Obs.Sink.Enter; sv_entry = "x"; sv_at = 0 })

(* ---- trace forward-view cache --------------------------------------- *)

let test_trace_cache () =
  let tr = E.Trace.create () in
  tr.E.Trace.enabled <- true;
  E.Trace.record tr (E.Trace.Call "a");
  E.Trace.record tr (E.Trace.Call "b");
  let v1 = E.Trace.events tr in
  let v2 = E.Trace.events tr in
  Alcotest.(check bool) "repeated reads share the cached view" true (v1 == v2);
  Alcotest.(check (list string)) "execution order"
    [ "a"; "b" ]
    (List.map (function E.Trace.Call f -> f | _ -> "?") v1);
  E.Trace.record tr (E.Trace.Call "c");
  let v3 = E.Trace.events tr in
  Alcotest.(check bool) "a record invalidates the cache" true (v1 != v3);
  Alcotest.(check int) "new view sees the new event" 3 (List.length v3);
  E.Trace.clear tr;
  Alcotest.(check (list string)) "clear resets both views" []
    (List.map (fun _ -> "?") (E.Trace.events tr))

let suite () =
  [ ( "obs",
      [ Alcotest.test_case "counter drift (all workloads)" `Quick
          test_counter_drift;
        Alcotest.test_case "cycle identity" `Quick test_cycle_identity;
        Alcotest.test_case "breakdown equals BENCH_obs.json" `Quick
          test_breakdown_pinned;
        Alcotest.test_case "chrome export reconciles" `Quick
          test_chrome_reconciles;
        Alcotest.test_case "json export reconciles" `Quick
          test_json_reconciles;
        Alcotest.test_case "text export renders" `Quick test_text_renders;
        Alcotest.test_case "exports equal the golden files" `Quick
          test_golden_exports;
        Alcotest.test_case "Agg ignores name identity" `Quick
          test_agg_name_identity;
        Alcotest.test_case "null sink inert" `Quick test_null_sink_inert;
        Alcotest.test_case "trace forward cache" `Quick test_trace_cache ] ) ]
