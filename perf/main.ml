(* The repository benchmark.

     main.exe run --workload W --seed S [--seconds T] [--trace 0|1]
                  [--smoke] [--out FILE]
     main.exe compare BASE NEW
     main.exe check SPEC RESULT...
     main.exe spread [--out FILE] RESULT...

   [run] measures one workload and prints every metric by name with its
   unit; its last line is one JSON object holding the end-to-end metrics
   ([--trace 0]) or the per-layer metrics ([--trace 1]).  It exits 1 when
   any output check fails.  BASE, NEW and RESULT name result files
   written by [run --out] or directories of them; [compare] reads the
   bounds from BENCHMARK.json in the current directory. *)

let usage =
  "usage: main.exe run --workload W --seed S [--seconds T] [--trace 0|1] \
   [--smoke] [--out FILE]\n\
  \       main.exe compare BASE NEW\n\
  \       main.exe check SPEC RESULT...\n\
  \       main.exe spread [--out FILE] RESULT...\n\
   workloads: "
  ^ String.concat ", " Workload.names

exception Usage of string

let usage_error fmt = Printf.ksprintf (fun m -> raise (Usage m)) fmt

(* [--flag value] pairs and bare [--switch]es, then positional args. *)
let parse_args ~switches args =
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | a :: rest when List.mem a switches -> go ((a, "") :: flags) pos rest
    | a :: v :: rest when String.length a > 2 && String.sub a 0 2 = "--" ->
      go ((a, v) :: flags) pos rest
    | a :: _ when String.length a > 2 && String.sub a 0 2 = "--" ->
      usage_error "%s needs a value" a
    | a :: rest -> go flags (a :: pos) rest
  in
  go [] [] args

let int_flag flags name ~default =
  match List.assoc_opt name flags with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> i
    | None -> usage_error "%s expects an integer, got %S" name v)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* --- run ---------------------------------------------------------------- *)

let metrics_json defs values =
  Json.Assoc
    (List.map
       (fun (d : Metric.def) ->
         ( d.Metric.name,
           Json.Assoc
             [ ("value", Json.Float (List.assoc d.Metric.name values));
               ("unit", Json.String d.Metric.unit) ] ))
       defs)

let print_metrics title defs values =
  Printf.printf "%s\n" title;
  List.iter
    (fun (d : Metric.def) ->
      Printf.printf "  %-28s %16.6g %s\n" d.Metric.name
        (List.assoc d.Metric.name values) d.Metric.unit)
    defs

(* The traced run's exclusive ledger: every layer's self time, its share
   of the traced wall, and its call count. *)
let print_ledger (l : Ledger.t) =
  let wall = float_of_int l.Ledger.wall in
  Printf.printf "ledger of the traced run (exclusive host time, %.6f s wall)\n"
    (wall *. 1e-9);
  List.iter
    (fun layer ->
      let ns = float_of_int l.Ledger.ns.(Ledger.index layer) in
      if Ledger.calls l layer > 0 then
        Printf.printf "  %-22s %12.6f s %6.2f%% %10d calls\n" (Ledger.name layer)
          (ns *. 1e-9) (100. *. ns /. wall) (Ledger.calls l layer))
    Ledger.all;
  Printf.printf "  %-22s %12.6f s (sum of layers)\n" "total"
    (float_of_int (Ledger.total_ns l) *. 1e-9)

let ledger_json (l : Ledger.t) =
  Json.Assoc
    [ ("wall_ns", Json.Int l.Ledger.wall);
      ( "layers",
        Json.Assoc
          (List.filter_map
             (fun layer ->
               if Ledger.calls l layer = 0 then None
               else
                 Some
                   ( Ledger.name layer,
                     Json.Assoc
                       [ ("ns", Json.Int l.Ledger.ns.(Ledger.index layer));
                         ("calls", Json.Int (Ledger.calls l layer)) ] ))
             Ledger.all) ) ]

let run args =
  let flags, pos = parse_args ~switches:[ "--smoke" ] args in
  if pos <> [] then usage_error "unexpected argument %s" (List.hd pos);
  let name =
    match List.assoc_opt "--workload" flags with
    | Some w when List.mem w Workload.names -> w
    | Some w -> usage_error "unknown workload %S" w
    | None -> usage_error "--workload is required"
  in
  let seed = int_flag flags "--seed" ~default:1 in
  let seconds = int_flag flags "--seconds" ~default:0 in
  let trace =
    match int_flag flags "--trace" ~default:0 with
    | (0 | 1) as t -> t = 1
    | t -> usage_error "--trace expects 0 or 1, got %d" t
  in
  let smoke = List.mem_assoc "--smoke" flags in
  let w = Workload.make ~smoke ~seed name in
  let t0 = Ledger.now () in
  let r = Measure.measure { Measure.seconds = float_of_int seconds; smoke } w in
  let elapsed = float_of_int (Ledger.now () - t0) *. 1e-9 in
  let e2e = Metric.end_to_end_values r and layers = Metric.per_layer_values r in
  let tm = r.Measure.timing in
  let correct = r.Measure.failures = [] in
  Printf.printf "workload %s, seed %d%s: %d timed runs, %d set-up batches, %.1f s\n"
    name seed (if smoke then " (smoke)" else "")
    (List.length tm.Measure.walls_s) (List.length tm.Measure.setup_s) elapsed;
  Printf.printf "  runs_s: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") tm.Measure.walls_s));
  let spans = r.Measure.agg.Opec_obs.Agg.all_latency.Opec_obs.Agg.samples in
  Printf.printf "  switch spans: %d%s\n" spans
    (if spans < 1000 then " (fewer than 1000: p99 has under 10 samples beyond it)"
     else "");
  print_metrics "end-to-end" Metric.end_to_end e2e;
  print_metrics "per-layer" Metric.per_layer layers;
  print_ledger r.Measure.run_ledger;
  List.iter (Printf.printf "FAILED: %s\n") r.Measure.failures;
  let fail_frac =
    float_of_int r.Measure.failed /. float_of_int (max 1 r.Measure.attempted)
  in
  let common =
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Int r.Measure.attempted);
      ("failed", Json.Int r.Measure.failed) ]
  in
  Option.iter
    (fun path ->
      write_file path
        (Json.to_string
           (Json.Assoc
              ([ ("workload", Json.String name);
                 ("seed", Json.Int seed);
                 ("seconds", Json.Int seconds);
                 ("smoke", Json.Bool smoke) ]
              @ common
              @ [ ("fail_frac", Json.Float fail_frac);
                  ("failures", Json.List (List.map (fun m -> Json.String m) r.Measure.failures));
                  ("end_to_end", metrics_json Metric.end_to_end e2e);
                  ("per_layer", metrics_json Metric.per_layer layers);
                  ("runs_s", Json.List (List.map (fun x -> Json.Float x) tm.Measure.walls_s));
                  ("setup_s", Json.List (List.map (fun x -> Json.Float x) tm.Measure.setup_s));
                  ("switch_spans", Json.Int spans);
                  ("setup_ledger", ledger_json tm.Measure.setup_ledger);
                  ("run_ledger", ledger_json r.Measure.run_ledger) ]))
        ^ "\n"))
    (List.assoc_opt "--out" flags);
  let metrics =
    if trace then metrics_json Metric.per_layer layers
    else metrics_json Metric.end_to_end e2e
  in
  print_endline (Json.to_string (Json.Assoc (common @ [ ("metrics", metrics) ])));
  if correct then 0 else 1

(* --- reading results ---------------------------------------------------- *)

exception Bad_input of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_input m)) fmt

let load path =
  match Json.of_file path with Ok v -> v | Error e -> bad "%s" e

(* Result files named directly, or every *.json in a named directory. *)
let result_files paths =
  List.concat_map
    (fun p ->
      if Sys.is_directory p then
        Sys.readdir p |> Array.to_list |> List.sort compare
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.map (Filename.concat p)
      else [ p ])
    paths

let str_field path k v =
  match Json.member k v with Some (Json.String s) -> s | _ -> bad "%s: no string %S" path k

let metric_value path section name v =
  match Option.bind (Json.member section v) (Json.member name) with
  | Some m -> (
    match (Option.bind (Json.member "value" m) Json.to_float, Json.member "unit" m) with
    | Some x, Some (Json.String u) -> (x, u)
    | _ -> bad "%s: malformed %s.%s" path section name)
  | None -> bad "%s: missing %s.%s" path section name

let results paths =
  List.map (fun p -> (p, load p)) (result_files paths)

(* --- compare ------------------------------------------------------------ *)

type spec_metric = {
  s_name : string;
  s_unit : string;
  s_better : string;
  s_bound : float option;  (** end-to-end metrics only *)
}

let spec_metrics path spec section =
  match Json.member section spec with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        let s k = str_field path k m in
        { s_name = s "name"; s_unit = s "unit"; s_better = s "better";
          s_bound = Option.bind (Json.member "bound" m) Json.to_float })
      l
  | _ -> bad "%s: no %s list" path section

let verdict ~exact ~better ~bound base nw =
  let worse = if better = "lower" then nw > base else nw < base in
  let beyond =
    if better = "lower" then nw > base *. (1. +. bound)
    else nw < base *. (1. -. bound)
  in
  if nw = base then "same"
  else if not worse then "better"
  else if exact || beyond then "REGRESSION"
  else "within bound"

let compare_cmd args =
  let spec_path = "BENCHMARK.json" in
  let base_paths, new_paths =
    match args with [ b; n ] -> ([ b ], [ n ]) | _ -> usage_error "compare takes BASE and NEW"
  in
  let spec = load spec_path in
  let metrics = spec_metrics spec_path spec "end_to_end" in
  let by_workload paths =
    List.map (fun (p, v) -> (str_field p "workload" v, (p, v))) (results paths)
  in
  let base = by_workload base_paths and nw = by_workload new_paths in
  if base = [] then bad "no result files in %s" (List.hd base_paths);
  let regressions = ref 0 in
  Printf.printf "%-17s %-18s %16s %16s %8s %6s  %s\n" "workload" "metric" "base"
    "new" "ratio" "bound" "verdict";
  List.iter
    (fun (w, (bp, bv)) ->
      match List.assoc_opt w nw with
      | None -> incr regressions; Printf.printf "%-17s missing from NEW\n" w
      | Some (np, nv) ->
        let seed p v = match Json.member "seed" v with Some (Json.Int s) -> s | _ -> bad "%s: no seed" p in
        if seed bp bv <> seed np nv || Json.member "smoke" bv <> Json.member "smoke" nv then
          bad "%s and %s were run with different seeds or sizes" bp np;
        if Json.member "correct" nv <> Some (Json.Bool true) then begin
          incr regressions;
          Printf.printf "%-17s NEW failed its output checks\n" w
        end;
        List.iter
          (fun m ->
            let b, _ = metric_value bp "end_to_end" m.s_name bv in
            let n, _ = metric_value np "end_to_end" m.s_name nv in
            let exact =
              List.exists
                (fun (d : Metric.def) -> d.Metric.name = m.s_name && d.Metric.exact)
                Metric.end_to_end
            in
            let bound =
              match m.s_bound with
              | Some b -> b
              | None -> bad "%s: %s has no bound" spec_path m.s_name
            in
            let v = verdict ~exact ~better:m.s_better ~bound b n in
            if v = "REGRESSION" then incr regressions;
            Printf.printf "%-17s %-18s %16.10g %16.10g %8.4f %6s  %s\n" w m.s_name b n
              (n /. b)
              (if exact then "exact" else Printf.sprintf "%.0f%%" (100. *. bound))
              v)
          metrics)
    base;
  Printf.printf "%d regression(s)\n" !regressions;
  if !regressions = 0 then 0 else 1

(* --- check -------------------------------------------------------------- *)

(* BENCHMARK.json names the same metrics as this program, and every
   result file parses, passed its checks and carries every metric. *)
let check_cmd args =
  let spec_path, paths =
    match args with s :: (_ :: _ as r) -> (s, r) | _ -> usage_error "check takes SPEC RESULT..."
  in
  let spec = load spec_path in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun (section, defs) ->
      let ms = spec_metrics spec_path spec section in
      if List.map (fun m -> m.s_name) ms <> List.map (fun (d : Metric.def) -> d.Metric.name) defs
      then err "%s: %s names differ from the benchmark's" spec_path section;
      if section = "end_to_end" then
        List.iter
          (fun m ->
            match m.s_bound with
            | Some b when b > 0. && b <= 0.25 -> ()
            | _ -> err "%s: %s needs a bound in (0, 0.25]" spec_path m.s_name)
          ms;
      List.iter
        (fun (d : Metric.def) ->
          match List.find_opt (fun m -> m.s_name = d.Metric.name) ms with
          | Some m when m.s_unit <> d.Metric.unit || m.s_better <> Metric.better_name d.Metric.better ->
            err "%s: %s is in %s with %s better, but the benchmark reports %s with %s better"
              spec_path d.Metric.name m.s_unit m.s_better d.Metric.unit
              (Metric.better_name d.Metric.better)
          | _ -> ())
        defs)
    [ ("end_to_end", Metric.end_to_end); ("per_layer", Metric.per_layer) ];
  (match Json.member "workloads" spec with
  | Some (Json.List ws) ->
    if List.map (str_field spec_path "name") ws <> Workload.names then
      err "%s: workload names differ from the benchmark's" spec_path
  | _ -> err "%s: no workloads list" spec_path);
  List.iter
    (fun (p, v) ->
      if Json.member "correct" v <> Some (Json.Bool true) then err "%s: not correct" p;
      List.iter
        (fun (section, defs) ->
          List.iter
            (fun (d : Metric.def) ->
              match metric_value p section d.Metric.name v with
              | _, u when u <> d.Metric.unit -> err "%s: %s in %s" p d.Metric.name u
              | _ -> ()
              | exception Bad_input m -> err "%s" m)
            defs)
        [ ("end_to_end", Metric.end_to_end); ("per_layer", Metric.per_layer) ])
    (results paths);
  List.iter prerr_endline (List.rev !errors);
  if !errors = [] then 0 else 1

(* --- spread ------------------------------------------------------------- *)

(* Per workload and end-to-end metric: the median of the given runs, and
   the distance between their quartiles and between their extremes, each
   as a share of it.  (With two runs, Python's quartiles extrapolate to
   1.5 times the range.) *)
let spread_cmd args =
  let flags, pos = parse_args ~switches:[] args in
  let rs = results pos in
  let workloads =
    List.sort_uniq compare (List.map (fun (p, v) -> str_field p "workload" v) rs)
  in
  let rows =
    List.map
      (fun w ->
        let runs = List.filter (fun (p, v) -> str_field p "workload" v = w) rs in
        ( w,
          List.map
            (fun (d : Metric.def) ->
              let xs =
                List.map (fun (p, v) -> fst (metric_value p "end_to_end" d.Metric.name v)) runs
              in
              let med = Metric.median xs in
              let range =
                List.fold_left Float.max neg_infinity xs -. List.fold_left Float.min infinity xs
              in
              (d.Metric.name, List.length xs, med, Metric.iqr xs /. med, range /. med))
            Metric.end_to_end ))
      workloads
  in
  List.iter
    (fun (w, ms) ->
      List.iter
        (fun (name, n, med, spread, range) ->
          Printf.printf "%-17s %-18s n=%-3d median %14.6g  iqr/median %.4f  range/median %.4f\n"
            w name n med spread range)
        ms)
    rows;
  Option.iter
    (fun path ->
      write_file path
        (Json.to_string
           (Json.Assoc
              (List.map
                 (fun (w, ms) ->
                   ( w,
                     Json.Assoc
                       (List.map
                          (fun (name, n, med, spread, range) ->
                            ( name,
                              Json.Assoc
                                [ ("runs", Json.Int n); ("median", Json.Float med);
                                  ("iqr_over_median", Json.Float spread);
                                  ("range_over_median", Json.Float range) ] ))
                          ms) ))
                 rows))
        ^ "\n"))
    (List.assoc_opt "--out" flags);
  0

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "run" :: args -> run args
      | "compare" :: args -> compare_cmd args
      | "check" :: args -> check_cmd args
      | "spread" :: args -> spread_cmd args
      | _ -> usage_error "no command"
    with
    | Usage m -> prerr_endline (m ^ "\n" ^ usage); 2
    | Bad_input m -> prerr_endline m; 2
    | Sys_error m -> prerr_endline m; 2
  in
  exit code
