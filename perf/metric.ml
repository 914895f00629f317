(* The benchmark's metrics: names, units and directions (mirrored in
   BENCHMARK.json, which [main.exe check] compares against this table),
   and their values for one measured invocation. *)

module Mon = Opec_monitor
module Obs = Opec_obs

type better = Lower | Higher

type def = {
  name : string;
  unit : string;
  better : better;
  exact : bool;  (** deterministic for a given seed: any change is real *)
}

let d ?(exact = false) ?(better = Lower) name unit = { name; unit; better; exact }

let end_to_end =
  [ d "setup_s" "s";
    d "items_per_s" "items/s" ~better:Higher;
    d "mcycles_per_s" "Mcycles/s" ~better:Higher;
    d "model_cycles" "cycles" ~exact:true;
    d "overhead_pct" "%" ~exact:true;
    d "switch_p50_cycles" "cycles" ~exact:true;
    d "switch_p99_cycles" "cycles" ~exact:true;
    d "heap_peak_mb" "MB" ]

let stage_layers =
  Ledger.[ Front; Points_to; Callgraph; Resources; Partition; Syncsets; Back ]

let per_layer =
  List.map (fun l -> d (Ledger.name l ^ "_s") "s") stage_layers
  @ [ d "monitor.prepare_s" "s";
      d "monitor.init_s" "s";
      d "monitor.enter_s" "s";
      d "monitor.exit_s" "s";
      d "monitor.fault_s" "s";
      d "monitor.enter_calls" "count";
      d "monitor.exit_calls" "count";
      d "monitor.fault_calls" "count";
      d "monitor.ns_per_switch" "ns";
      d "monitor.switches" "count";
      d "monitor.synced_bytes" "bytes";
      d "monitor.swaps" "count";
      d "monitor.emulations" "count";
      d "monitor.denied" "count";
      d "cycles.sanitize" "cycles";
      d "cycles.sync" "cycles";
      d "cycles.relocate" "cycles";
      d "cycles.mpu_config" "cycles";
      d "cycles.init" "cycles";
      d "cycles.residual" "cycles";
      d "machine.device_s" "s";
      d "machine.device_calls" "count";
      d "obs.emit_s" "s";
      d "obs.events" "count";
      d "exec.self_s" "s";
      d "exec.ns_per_kcycle" "ns";
      d "gc.minor_words_per_item" "words";
      d "gc.promoted_words" "words";
      d "gc.major_collections" "count";
      d "bench.run_s_median" "s";
      d "bench.run_s_iqr" "s";
      d "bench.trace_overhead_frac" "ratio" ]

let better_name = function Lower -> "lower" | Higher -> "higher"

(* --- statistics --------------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them (the
   default "exclusive" method); [None] below two values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then None
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    Some (q 1, q 2, q 3)

let iqr xs = match quartiles xs with Some (q1, _, q3) -> q3 -. q1 | None -> 0.

(* --- values ------------------------------------------------------------- *)

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

let best xs = List.fold_left Float.min infinity xs

let end_to_end_values (r : Measure.result) =
  let tm = r.Measure.timing in
  let best = best tm.Measure.walls_s in
  let h = r.Measure.agg.Obs.Agg.all_latency in
  let cycles = Int64.to_float r.Measure.cycles in
  let base = Int64.to_float r.Measure.base_cycles in
  [ ("setup_s", median tm.Measure.setup_s);
    ("items_per_s", float_of_int r.Measure.items /. best);
    ("mcycles_per_s", cycles /. best /. 1e6);
    ("model_cycles", cycles);
    ("overhead_pct", (cycles -. base) /. base *. 100.);
    ("switch_p50_cycles", Int64.to_float (Obs.Agg.hist_percentile h 0.5));
    ("switch_p99_cycles", Int64.to_float (Obs.Agg.hist_percentile h 0.99));
    ("heap_peak_mb", words_to_mb tm.Measure.heap_words) ]

let per_layer_values (r : Measure.result) =
  let open Measure in
  let tm = r.timing in
  let sl = tm.setup_ledger and rl = r.run_ledger in
  let per_setup l = Ledger.seconds sl l /. float_of_int tm.setups in
  let stage l =
    (* compile-sweep's run is the compiler itself: report the traced
       sweep's stage totals; elsewhere the per-set-up time *)
    if Ledger.calls rl Ledger.Sweep > 0 then Ledger.seconds rl l else per_setup l
  in
  let f = float_of_int and f64 = Int64.to_float in
  let s = r.stats and agg = r.agg in
  let switch_calls = Ledger.calls rl Enter + Ledger.calls rl Exit in
  let switch_ns = rl.Ledger.ns.(Ledger.index Enter) + rl.Ledger.ns.(Ledger.index Exit) in
  let g0, g1 = tm.gc in
  let best = best tm.walls_s in
  let traced = f rl.Ledger.wall *. 1e-9 in
  let ph p = f64 (Obs.Agg.phase_cycles agg p) in
  List.map (fun l -> (Ledger.name l ^ "_s", stage l)) stage_layers
  @ [ ("monitor.prepare_s", per_setup Prepare);
      ("monitor.init_s", per_setup Init);
      ("monitor.enter_s", Ledger.seconds rl Enter);
      ("monitor.exit_s", Ledger.seconds rl Exit);
      ("monitor.fault_s", Ledger.seconds rl Fault);
      ("monitor.enter_calls", f (Ledger.calls rl Enter));
      ("monitor.exit_calls", f (Ledger.calls rl Exit));
      ("monitor.fault_calls", f (Ledger.calls rl Fault));
      ("monitor.ns_per_switch",
       if switch_calls = 0 then 0. else f switch_ns /. f switch_calls);
      ("monitor.switches", f s.Mon.Stats.switches);
      ("monitor.synced_bytes", f s.Mon.Stats.synced_bytes);
      ("monitor.swaps", f s.Mon.Stats.virt_swaps);
      ("monitor.emulations", f s.Mon.Stats.emulations);
      ("monitor.denied", f s.Mon.Stats.denied);
      ("cycles.sanitize", ph Obs.Sink.Sanitize);
      ("cycles.sync", ph Obs.Sink.Sync);
      ("cycles.relocate", ph Obs.Sink.Relocate);
      ("cycles.mpu_config", ph Obs.Sink.Mpu_config);
      ("cycles.init", f64 agg.Obs.Agg.init_cycles);
      ("cycles.residual",
       f64 (Int64.sub (Int64.sub r.cycles r.base_cycles) (Obs.Agg.monitor_cycles agg)));
      ("machine.device_s", Ledger.seconds rl Device);
      ("machine.device_calls", f (Ledger.calls rl Device));
      ("obs.emit_s", Ledger.seconds rl Emit);
      ("obs.events", f (Ledger.calls rl Emit));
      ("exec.self_s", Ledger.seconds rl Exec);
      ("exec.ns_per_kcycle",
       if Ledger.calls rl Exec = 0 then 0.
       else f rl.Ledger.ns.(Ledger.index Exec) /. (f64 r.cycles /. 1000.));
      ("gc.minor_words_per_item", (g1.Gc.minor_words -. g0.Gc.minor_words) /. f r.items);
      ("gc.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
      ("gc.major_collections", f (g1.Gc.major_collections - g0.Gc.major_collections));
      ("bench.run_s_median", median tm.walls_s);
      ("bench.run_s_iqr", iqr tm.walls_s);
      ("bench.trace_overhead_frac", (traced -. best) /. best) ]
