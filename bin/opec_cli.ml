(* The opec command-line tool.

     opec list                      enumerate bundled workloads
     opec policy APP                print the operation policy file
     opec run APP [--baseline]      execute a workload on the machine model
     opec compare APP               baseline vs OPEC overhead for one app
     opec aces APP [-s STRATEGY]    show the ACES baseline's compartments
     opec trace APP [-n N]          operation-switch timeline of a run
     opec profile [APP]             per-stage pipeline timings
     opec syncsets [APP] [--json]   static sync-schedule report
     opec lint [APP] [--all] [--json]  verify the derived policy
     opec attack [APP] [--all] [--json]  run the attack-injection campaign
     opec compare-backends [APP] [--json]  MPU/PMP/CHERI/POE trade-off study
     opec fuzz [--seeds A..B] [--size N] [--property P] [--replay FILE]
               [--corpus DIR] [--budget N] [--json]
                                    property-based differential fuzzing
                                    (coverage-guided with --corpus)
     opec fleet [--apps ...] [--seeds A..B] [--tasks ...] [-j N]
                                    sharded fleet-scale evaluation
     opec load [SCENARIO] [--backend B] [--events N] [--json]
                                    traffic-driven switch-latency tails

   Every command draws its artifacts from the compile-once pipeline, so
   within one invocation each workload is compiled and run at most
   once no matter how many commands' worth of work an invocation does.
   Parallel commands (attack, compare-backends, fuzz, fleet) share one
   domain pool; [-j] sets its size for the invocation. *)

open Cmdliner
module M = Opec_machine
module C = Opec_core
module A = Opec_aces
module Mon = Opec_monitor
module Apps = Opec_apps
module Met = Opec_metrics
module P = Opec_pipeline.Pipeline
module Json = Opec_obs.Json

(* one JSON document per line on stdout *)
let print_json v = Format.printf "%s@." (Json.to_string v)

let exits_with_error msg =
  Format.eprintf "error: %s@." msg;
  exit 1

(* An output FILE that cannot be written is an input error (exit 1):
   checked before a command spends its run, and again at the write. *)
let cannot_write e = exits_with_error ("cannot write " ^ e)

let check_writable = function
  | Some path -> (
    match
      Out_channel.open_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
    with
    | oc -> Out_channel.close oc
    | exception Sys_error e -> cannot_write e)
  | None -> ()

let write_file path s =
  try Out_channel.with_open_text path (fun oc -> output_string oc s)
  with Sys_error e -> cannot_write e

(* Look a workload up by name in [registry] (default: the full-size
   workloads); an unknown name is an input error (exit 1). *)
let find_app ?(registry = Apps.Registry.all) name =
  match Apps.Registry.find name (registry ()) with
  | Some app -> app
  | None ->
    exits_with_error
      (Printf.sprintf "unknown application %S; try `opec list'" name)

let app_arg =
  let doc = "Workload name (see `opec list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

(* "APP, or every workload of a registry", the optional positional
   argument of trace, profile, syncsets, lint, attack and
   compare-backends.  [workloads_arg] yields a picker that a command
   applies to its registry (attack, which also checks the name against
   --all, picks itself), so the name is looked up only once every other
   argument has parsed, and an unknown one exits 1 after any usage
   error. *)
let pick_workloads name registry =
  match name with
  | None -> registry ()
  | Some n -> [ find_app ~registry n ]

let workload_name_arg what =
  let doc =
    Printf.sprintf "Workload to %s (default: every bundled workload)." what
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let workloads_arg what = Term.(const pick_workloads $ workload_name_arg what)

(* "A..B" inclusive seed ranges, shared by fuzz and fleet. *)
let seed_range_conv =
  let parse s =
    match String.index_opt s '.' with
    | Some i
      when i + 1 < String.length s
           && s.[i + 1] = '.'
           && i + 2 <= String.length s -> (
      let lo = String.sub s 0 i
      and hi = String.sub s (i + 2) (String.length s - i - 2) in
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo <= hi -> Ok (lo, hi)
      | _ -> Error (`Msg (Printf.sprintf "bad seed range %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad seed range %S (want A..B)" s))
  in
  let print f (lo, hi) = Format.fprintf f "%d..%d" lo hi in
  Arg.conv (parse, print)

(* Counts ([trace --limit], [load --events], [--size], [--budget]): a
   negative one is a usage error. *)
let count_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "bad count %S (want an integer >= 0)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Worker domains ([-j]) of attack, compare-backends, fuzz and fleet:
   the size of the one domain pool they share.  Zero or a negative count
   is a usage error. *)
let domains_arg =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "bad count %S (want an integer >= 1)" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt (some positive) None
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:
          "Worker domains (default: pool size).  The pool is shared with \
           every other parallel command, so nested parallel work runs \
           inline instead of oversubscribing.")

(* Enforcement-backend selection, shared by run/trace/attack and the
   cross-backend study. *)
let backend_conv =
  let parse s =
    match M.Backend.kind_of_name (String.lowercase_ascii (String.trim s)) with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown enforcement backend %S (known: %s)" s
              (String.concat ", "
                 (List.map M.Backend.kind_name M.Backend.all_kinds))))
  in
  let print fmt k = Format.pp_print_string fmt (M.Backend.kind_name k) in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt backend_conv M.Backend.Mpu
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Enforcement backend the protected run uses: $(b,mpu) \
           (default), $(b,pmp), $(b,cheri), or $(b,poe).")

(* ------------------------------------------------------------------ list *)

let list_cmd =
  let run () =
    List.iter
      (fun (app : Apps.App.t) ->
        Format.printf "%-10s (%s, %d functions, %d globals)@."
          app.Apps.App.app_name
          app.Apps.App.board.M.Memmap.board_name
          (List.length app.Apps.App.program.Opec_ir.Program.funcs)
          (List.length app.Apps.App.program.Opec_ir.Program.globals))
      (Apps.Registry.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled workloads")
    Term.(const run $ const ())

(* ---------------------------------------------------------------- policy *)

let policy_cmd =
  let run name =
    print_endline (C.Compiler.policy (P.image (P.ctx (find_app name))))
  in
  Cmd.v
    (Cmd.info "policy"
       ~doc:"Partition a workload and print its operation policy file")
    Term.(const run $ app_arg)

(* ------------------------------------------------------------------- run *)

let run_cmd =
  let baseline =
    Arg.(value & flag & info [ "baseline" ] ~doc:"Run the unprotected baseline binary.")
  in
  let run name baseline_only =
    let c = P.ctx (find_app name) in
    let check =
      if baseline_only then begin
        let b = P.baseline c in
        P.reraise b.P.b_err;
        Format.printf "cycles: %Ld@." b.P.b_cycles;
        b.P.b_check
      end
      else begin
        let p = P.protected_ c in
        P.reraise p.P.p_err;
        Format.printf "cycles: %Ld@." p.P.p_cycles;
        Format.printf "monitor: %a@." Mon.Stats.pp p.P.p_stats;
        p.P.p_check
      end
    in
    match check with
    | Ok () -> Format.printf "world check: OK@."
    | Error e -> exits_with_error ("world check failed: " ^ e)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a workload on the machine model")
    Term.(const run $ app_arg $ baseline)

(* --------------------------------------------------------------- compare *)

let compare_cmd =
  let run name =
    let c = P.ctx (find_app name) in
    let baseline = P.baseline c in
    P.reraise baseline.P.b_err;
    let protected_ = P.protected_ c in
    P.reraise protected_.P.p_err;
    let image = P.image c in
    Format.printf "baseline cycles:  %Ld@." baseline.P.b_cycles;
    Format.printf "protected cycles: %Ld@." protected_.P.p_cycles;
    Format.printf "runtime overhead: %.2f%%@."
      (Met.Overhead.runtime_overhead_pct ~baseline ~protected_);
    Format.printf "flash overhead:   %.2f%% of device flash@."
      (C.Image.flash_overhead_pct image);
    Format.printf "SRAM overhead:    %.2f%% of device SRAM@."
      (C.Image.sram_overhead_pct image)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Baseline vs OPEC overhead for one workload")
    Term.(const run $ app_arg)

(* ------------------------------------------------------------------ aces *)

let strategy_conv =
  let parse = function
    | "1" | "filename" -> Ok A.Strategy.Filename
    | "2" | "filename-no-opt" -> Ok A.Strategy.Filename_no_opt
    | "3" | "peripheral" -> Ok A.Strategy.By_peripheral
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print fmt k = Format.pp_print_string fmt (A.Strategy.name k) in
  Arg.conv (parse, print)

let aces_cmd =
  let strategy =
    Arg.(
      value
      & opt strategy_conv A.Strategy.Filename
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:"ACES strategy: filename (1), filename-no-opt (2), peripheral (3).")
  in
  let run name kind =
    let aces = A.Aces.analyze kind (find_app name).Apps.App.program in
    Format.printf "%a@." A.Aces.pp aces;
    List.iter
      (fun (s : Met.Overprivilege.pt_sample) ->
        if s.Met.Overprivilege.pt > 0.0 then
          Format.printf "PT %-40s %.3f@." s.Met.Overprivilege.domain
            s.Met.Overprivilege.pt)
      (Met.Overprivilege.aces_pt aces)
  in
  Cmd.v
    (Cmd.info "aces" ~doc:"Show the ACES baseline's compartments for a workload")
    Term.(const run $ app_arg $ strategy)

(* ----------------------------------------------------------------- trace *)

let trace_cmd =
  let module Obs = Opec_obs in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the export to FILE instead of stdout (single workload only).")
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [ ("text", Obs.Export.Text); ("json", Obs.Export.Json);
               ("chrome", Obs.Export.Chrome) ])
          Obs.Export.Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Export format: text (human summary), json (machine), or \
             chrome (trace-event JSON loadable in Perfetto / \
             chrome://tracing).")
  in
  let limit =
    Arg.(
      value & opt count_conv 40
      & info [ "n"; "limit" ] ~docv:"N"
          ~doc:"Telemetry events to list in text format (default 40).")
  in
  let trace_app backend fmt limit out (app : Apps.App.t) =
    let c = P.ctx ~backend app in
    let p = P.protected_ c in
    P.reraise p.P.p_err;
    let events = p.P.p_events in
    match fmt with
    | Obs.Export.Text ->
      let emit line = Format.printf "%s" line in
      emit (Printf.sprintf "== %s ==\n" app.Apps.App.app_name);
      emit
        (Fmt.str "monitor: %a\nsvc transitions (interp): %d\n@?" Mon.Stats.pp
           p.P.p_stats p.P.p_switches);
      emit (Obs.Export.text events);
      let n = List.length events in
      Format.printf "@.first %d of %d events:@." (min limit n) n;
      List.iteri
        (fun i e ->
          if i < limit then Format.printf "  %a@." Obs.Sink.pp_event e)
        events;
      if n > limit then
        Format.printf "... (%d more; raise -n or use --format json)@."
          (n - limit)
    | Obs.Export.Json | Obs.Export.Chrome -> (
      let rendered = Obs.Export.render fmt events in
      match out with
      | None -> print_string rendered
      | Some path ->
        write_file path rendered;
        Format.eprintf "wrote %d %s events to %s@." (List.length events)
          (Obs.Export.format_name fmt) path)
  in
  let run workloads backend fmt limit out =
    let apps = workloads Apps.Registry.all in
    if out <> None && List.length apps > 1 then
      exits_with_error "--out requires naming a single workload";
    check_writable out;
    List.iter (trace_app backend fmt limit out) apps
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with cycle-accurate monitor telemetry and export \
          it: per-phase switch spans, region swaps, PPB emulations, and \
          denials, as human text, JSON, or a Chrome/Perfetto trace")
    Term.(
      const run $ workloads_arg "trace" $ backend_arg $ format $ limit $ out)

(* --------------------------------------------------------------- profile *)

let profile_cmd =
  let profile_app (app : Apps.App.t) =
    let c = P.ctx app in
    let t0 = Unix.gettimeofday () in
    P.warm c;
    let total = Unix.gettimeofday () -. t0 in
    Format.printf "== %s ==@." app.Apps.App.app_name;
    List.iter
      (fun (stage, dt) ->
        Format.printf "  %-18s %9.2f ms@." stage (dt *. 1000.0))
      (P.timings c);
    Format.printf "  %-18s %9.2f ms@." "total" (total *. 1000.0);
    let p = P.protected_ c in
    Format.printf "  monitor: %a@." Mon.Stats.pp p.P.p_stats
  in
  let run workloads = List.iter profile_app (workloads Apps.Registry.all) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Materialize a workload's full artifact pipeline and print the \
          wall-clock cost of every stage (validate, analyses, partition, \
          image, reference runs, ACES)")
    Term.(const run $ workloads_arg "profile")

(* -------------------------------------------------------------- syncsets *)

let syncsets_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let module Ss = Opec_analysis.Syncset in
  let list_bytes s =
    C.Config.syncset_header_bytes
    + (Ss.SS.cardinal s * C.Config.syncset_entry_bytes)
  in
  let report_app ~json (app : Apps.App.t) =
    let c = P.ctx app in
    let image = P.image c in
    let ss = image.C.Image.syncsets in
    let pair_rows =
      List.map
        (fun (src, dst) ->
          let r = Ss.resume_set ss ~src ~dst in
          (src, dst, Ss.SS.cardinal r, list_bytes r))
        (Ss.pairs ss)
    in
    let op_rows =
      List.map
        (fun opn ->
          let out = Ss.out_set ss opn and enter = Ss.enter_set ss opn in
          ( opn,
            Ss.SS.cardinal (Ss.slots_of ss opn),
            Ss.SS.cardinal out,
            Ss.SS.cardinal enter,
            Ss.SS.cardinal (Ss.relevant_set ss opn),
            Ss.SS.cardinal (Ss.ro_set ss opn),
            Ss.SS.cardinal (Ss.unobserved_set ss opn),
            list_bytes out + list_bytes enter ))
        (Ss.ops ss)
    in
    if json then begin
      let n v = Json.Int v and str v = Json.String v in
      let ops_json =
        List.map
          (fun (opn, slots, out, enter, relevant, ro, dead, bytes) ->
            Json.Obj
              [ ("op", str opn); ("slots", n slots); ("out", n out);
                ("enter", n enter); ("relevant", n relevant); ("ro", n ro);
                ("dead", n dead); ("bytes", n bytes) ])
          op_rows
      in
      let pairs_json =
        List.map
          (fun (src, dst, slots, bytes) ->
            Json.Obj
              [ ("src", str src); ("dst", str dst); ("slots", n slots);
                ("bytes", n bytes) ])
          pair_rows
      in
      print_json
        (Json.Obj
           [ ("app", str app.Apps.App.app_name);
             ("conservative_resume", Json.Bool (Ss.conservative_resume ss));
             ("escaped", Json.List (List.map str (Ss.SS.elements (Ss.escaped ss))));
             ("ops", Json.List ops_json);
             ("pairs", Json.List pairs_json);
             ("schedule_bytes", n image.C.Image.syncset_bytes) ])
    end
    else begin
      Format.printf "== %s ==@." app.Apps.App.app_name;
      Format.printf "  resume scheduling: %s@."
        (if Ss.conservative_resume ss then
           "conservative (raw SVC yields: resume = enter)"
         else Printf.sprintf "precise (%d pairs)" (List.length pair_rows));
      (match Ss.SS.elements (Ss.escaped ss) with
      | [] -> Format.printf "  escaped globals: none@."
      | gs ->
        Format.printf "  escaped globals: %s@." (String.concat ", " gs));
      Format.printf "  %-16s %5s %5s %6s %9s %4s %5s %6s@." "operation"
        "slots" "out" "enter" "relevant" "ro" "dead" "bytes";
      List.iter
        (fun (opn, slots, out, enter, relevant, ro, dead, bytes) ->
          Format.printf "  %-16s %5d %5d %6d %9d %4d %5d %6d@." opn slots out
            enter relevant ro dead bytes)
        op_rows;
      List.iter
        (fun (src, dst, slots, bytes) ->
          Format.printf "  resume %s -> %s: %d slot%s, %d B@." src dst slots
            (if slots = 1 then "" else "s")
            bytes)
        pair_rows;
      Format.printf "  schedule: %d B of flash@." image.C.Image.syncset_bytes
    end
  in
  let run workloads json =
    List.iter (report_app ~json) (workloads Apps.Registry.all)
  in
  Cmd.v
    (Cmd.info "syncsets"
       ~doc:
         "Report the static sync schedule: per-operation out/enter set \
          sizes, read-only master mappings, dead (never-observed) \
          publishes, per-pair resume sets, escaped globals, and the \
          schedule's flash footprint")
    Term.(const run $ workloads_arg "report" $ json)

(* ------------------------------------------------------------------ lint *)

let lint_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Also run the dynamic trace oracle (L007) and show \
             info-severity diagnostics.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")
  in
  let lint_app ~all ~json (app : Apps.App.t) =
    let c = P.ctx app in
    let image = P.image c in
    (* the oracle walks the pipeline's memoized traced baseline: no
       private replay, and the compile is shared with every other
       command in this process *)
    let source =
      if all then begin
        let b = P.baseline_traced c in
        Some
          (Opec_lint.Lint.Recorded
             { Opec_lint.Lint.map =
                 b.P.b_run.Mon.Runner.b_layout.Opec_exec.Vanilla_layout.map;
               events = b.P.b_events;
               failure = b.P.b_err })
      end
      else None
    in
    let diags = Opec_lint.Lint.run ~dynamic:all ?source image in
    if json then
      print_json
        (Json.Obj
           [ ("app", Json.String app.Apps.App.app_name);
             ("diagnostics", Json.List (List.map Opec_lint.Diag.to_json diags)) ])
    else begin
      Format.printf "== %s ==@." app.Apps.App.app_name;
      Opec_lint.Lint.render ~all Format.std_formatter diags
    end;
    Opec_lint.Lint.errors diags = []
  in
  let run workloads all json =
    let ok =
      List.fold_left
        (fun ok app -> lint_app ~all ~json app && ok)
        true (workloads Apps.Registry.all)
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Verify a workload's derived policy: static checks over the \
          compiled image, plus (with --all) a dynamic trace oracle")
    Term.(const run $ workloads_arg "lint" $ all $ json)

(* ---------------------------------------------------------------- attack *)

let attack_cmd =
  let module Atk = Opec_attack in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Attack every bundled workload (the default when APP is \
             omitted); an error together with APP.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the matrix as JSON.")
  in
  let details =
    Arg.(
      value & flag
      & info [ "details" ]
          ~doc:"Show each cell's injection rationale and classification.")
  in
  let run name all json details domains backend =
    (* reduced-size workload variants: same code and policy, fewer
       rounds, so the 30-cell matrix per app stays quick *)
    let small = Apps.Registry.all_small in
    let apps = pick_workloads name small in
    if all && name <> None then
      exits_with_error "--all attacks every workload: name no APP with it";
    let ms = Atk.Campaign.run_all ?domains ~backend apps in
    if json then print_endline (Atk.Report.to_json ms)
    else begin
      List.iter
        (fun m ->
          print_endline (Atk.Report.render ~details m);
          print_newline ())
        ms;
      if List.length ms > 1 then print_endline (Atk.Report.summary ms)
    end;
    (* the security-regression gate: any escape under OPEC fails *)
    let escapes =
      List.concat_map
        (fun (m : Atk.Campaign.matrix) ->
          List.map (fun c -> (m, c)) (Atk.Campaign.opec_escapes m))
        ms
    in
    List.iter
      (fun ((m : Atk.Campaign.matrix), (c : Atk.Campaign.cell)) ->
        Format.eprintf "OPEC ESCAPE in %s/%s: %s@." m.Atk.Campaign.app
          (Atk.Primitive.name c.Atk.Campaign.injection.Atk.Planner.primitive)
          c.Atk.Campaign.detail)
      escapes;
    if escapes <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Run the attack-injection campaign: every planner-derived \
          primitive against every defense (vanilla, ACES1-3, OPEC), \
          with outcomes classified as blocked / contained / escaped / \
          crashed.  Exits nonzero if any attack escapes OPEC.")
    Term.(
      const run $ workload_name_arg "attack" $ all $ json $ details $ domains_arg
      $ backend_arg)

(* ----------------------------------------------------- compare-backends *)

let compare_backends_cmd =
  let module Atk = Opec_attack in
  let backends =
    Arg.(
      value
      & opt (list backend_conv) M.Backend.all_kinds
      & info [ "backends" ] ~docv:"B1,B2,..."
          ~doc:
            "Comma-separated backends to compare (default: \
             $(b,mpu,pmp,cheri,poe)).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the study as JSON.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the JSON study, one line, to $(docv).")
  in
  let run workloads backends json out domains =
    let apps = workloads Apps.Registry.all_small in
    (* keep first occurrence of each backend, in the order given *)
    let backends =
      List.fold_left
        (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
        [] backends
    in
    if backends = [] then exits_with_error "empty backend list";
    check_writable out;
    let t = Atk.Backend_study.run ~backends ?domains apps in
    (match out with
    | None -> ()
    | Some path ->
      write_file path (Atk.Backend_study.to_json t ^ "\n");
      Format.eprintf "wrote %s@." path);
    if json then print_endline (Atk.Backend_study.to_json t)
    else print_endline (Atk.Backend_study.render t);
    (* the study's gate: no escape under any backend, no abort and no
       denial in any clean protected run *)
    List.iter (Format.eprintf "%s@.") (Atk.Backend_study.failures t);
    let code = Atk.Backend_study.exit_code t in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "compare-backends"
       ~doc:
         "Cross-backend trade-off study: run the containment campaign \
          and the cycle-accurate overhead breakdown under every \
          requested enforcement backend (MPU, PMP, CHERI, POE) and \
          render the app\195\151primitive\195\151backend containment \
          matrix next to the per-backend overhead and image footprint.  \
          Exits nonzero if any attack escapes any backend or any clean \
          protected run aborts or has a denial.")
    Term.(
      const run $ workloads_arg "study" $ backends $ json $ out $ domains_arg)

(* ------------------------------------------------------------------ fuzz *)

let fuzz_cmd =
  let module F = Opec_fuzz in
  let seeds_arg =
    Arg.(
      value
      & opt seed_range_conv (0, 50)
      & info [ "seeds" ] ~docv:"A..B"
          ~doc:"Inclusive seed range to sweep (default 0..50).")
  in
  let size =
    Arg.(
      value & opt count_conv 2
      & info [ "size" ]
          ~doc:"Generator size: scales globals, entries, and body length.")
  in
  let properties =
    Arg.(
      value & opt_all string []
      & info [ "property"; "p" ] ~docv:"P"
          ~doc:"Check only this oracle property (repeatable; default all).")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-judge a saved reproducer instead of sweeping.")
  in
  let out_dir =
    Arg.(
      value & opt string "_fuzz"
      & info [ "out" ] ~docv:"DIR" ~doc:"Where to write reproducers.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Skip delta-debugging of failures.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Coverage-guided mode: replay the corpus in $(docv), sweep \
             the seed range feeding the coverage map, then mutate \
             corpus inputs, persisting every input that grows the map \
             back into $(docv).")
  in
  let budget =
    Arg.(
      value
      & opt (some count_conv) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Mutation budget for $(b,--corpus) mode (default: the seed \
             range width).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the report as one JSON object on stdout; diagnostics \
             (stale corpus entries) go to stderr.")
  in
  let run (lo, hi) size properties replay out_dir no_shrink domains corpus
      budget json =
    match replay with
    | Some path -> (
      match F.Runner.replay path with
      | Error reason -> exits_with_error (path ^ ": " ^ reason)
      | Ok [] -> Format.printf "%s: failure no longer reproduces@." path
      | Ok fails ->
        List.iter
          (fun (p, d) -> Format.printf "%s: %s — %s@." path p d)
          fails;
        exit 1)
    | None -> (
      let properties = if properties = [] then None else Some properties in
      match corpus with
      | Some corpus_dir -> (
        match
          F.Runner.run_guided ~size ?properties ~out_dir
            ~shrink:(not no_shrink) ?budget ~corpus_dir ~lo ~hi ()
        with
        | exception Invalid_argument msg -> exits_with_error msg
        | report ->
          if json then begin
            (* stdout carries exactly one JSON object; human-facing
               warnings about stale corpus files go to stderr *)
            List.iter
              (fun (path, reason) ->
                Format.eprintf "opec fuzz: skipped stale %s: %s@." path
                  reason)
              report.F.Runner.g_skipped;
            print_json (F.Runner.guided_report_json report)
          end
          else Format.printf "%a@." F.Runner.pp_guided_report report;
          if report.F.Runner.g_failures <> [] then exit 1)
      | None -> (
        match
          F.Runner.run ?domains ~size ?properties ~out_dir
            ~shrink:(not no_shrink) ~lo ~hi ()
        with
        | exception Invalid_argument msg -> exits_with_error msg
        | report ->
          if json then print_json (F.Runner.report_json report)
          else Format.printf "%a@." F.Runner.pp_report report;
          if report.F.Runner.r_failures <> [] then exit 1))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate random well-formed firmware from seeds and check \
          differential properties: lint cleanliness, trace-oracle \
          inclusion, baseline/protected transparency, engine agreement, \
          and attack containment.  Failures are shrunk and written as \
          replayable reproducers; exits nonzero if any seed fails.")
    Term.(
      const run $ seeds_arg $ size $ properties $ replay $ out_dir
      $ no_shrink $ domains_arg $ corpus $ budget $ json)

(* ----------------------------------------------------------------- fleet *)

let fleet_cmd =
  let module Fl = Opec_fleet in
  let apps =
    Arg.(
      value & opt string "all"
      & info [ "apps" ] ~docv:"NAMES"
          ~doc:
            "Registry workloads to evaluate: $(b,all) (default), \
             $(b,none), or a comma-separated name list.")
  in
  let seeds =
    Arg.(
      value
      & opt (some seed_range_conv) None
      & info [ "seeds" ] ~docv:"A..B"
          ~doc:
            "Also evaluate fuzz-generated firmware for this inclusive \
             seed range (artifacts of each generated image are evicted \
             when its last task finishes).")
  in
  let size =
    Arg.(
      value & opt count_conv 2
      & info [ "size" ]
          ~doc:"Generator size for the seed images (as in `opec fuzz').")
  in
  let tasks =
    Arg.(
      value & opt string "compile,lint,attack,trace,fuzz"
      & info [ "tasks" ] ~docv:"T1,T2,..."
          ~doc:
            "Evaluation tasks per image: any of $(b,compile), $(b,lint), \
             $(b,attack), $(b,trace), $(b,fuzz).")
  in
  let backends =
    Arg.(
      value & opt string "mpu"
      & info [ "backends" ] ~docv:"B1,B2,..."
          ~doc:
            "Enforcement backends to mix in this job (any of $(b,mpu), \
             $(b,pmp), $(b,cheri), $(b,poe)); every image\195\151task \
             unit runs once per backend.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Write the consolidated report as JSON to $(docv) ($(b,-) \
             for stdout).  The report is byte-identical across -j.")
  in
  let journal_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"OUT"
          ~doc:
            "Write the job journal (the scheduler's event log: enqueued \
             / stolen / started / finished / failed, with domain ids \
             and timestamps) as JSON to $(docv).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Suppress the streaming progress lines.")
  in
  let run apps seeds size tasks backends domains json_out journal_out quiet =
    let spec_apps =
      match String.lowercase_ascii (String.trim apps) with
      | "all" -> Fl.Spec.All_apps
      | "none" -> Fl.Spec.No_apps
      | _ ->
        Fl.Spec.Named
          (String.split_on_char ',' apps |> List.map String.trim
          |> List.filter (fun s -> s <> ""))
    in
    let spec =
      match
        (Fl.Spec.tasks_of_string tasks, Fl.Spec.backends_of_string backends)
      with
      | Error e, _ | _, Error e -> Error e
      | Ok tasks, Ok backends ->
        Ok
          { Fl.Spec.apps = spec_apps; seeds; seed_size = size; tasks; backends }
    in
    match spec with
    | Error e -> exits_with_error e
    | Ok spec -> (
      if json_out <> Some "-" then check_writable json_out;
      check_writable journal_out;
      let progress s = Format.eprintf "%s@." s in
      let progress = if quiet then fun _ -> () else progress in
      match Fl.Fleet.run ?domains ~progress spec with
      | Error e -> exits_with_error e
      | Ok o ->
        (* with the JSON report on stdout, stdout carries nothing else *)
        if json_out <> Some "-" then print_string (Fl.Fleet.report_text o);
        Format.eprintf "fleet: %d units on %d domains in %.2fs@."
          (List.length o.Fl.Fleet.o_units) o.Fl.Fleet.o_domains
          o.Fl.Fleet.o_wall_s;
        (match json_out with
        | None -> ()
        | Some "-" -> print_string (Fl.Fleet.report_json o)
        | Some path -> write_file path (Fl.Fleet.report_json o));
        (match journal_out with
        | None -> ()
        | Some path -> write_file path (Fl.Journal.to_json o.Fl.Fleet.o_journal));
        List.iter
          (fun (u, e) -> Format.eprintf "FAILED %s: %s@." u e)
          o.Fl.Fleet.o_failures;
        if o.Fl.Fleet.o_failures <> [] then exit 1;
        (* same security gate as `opec attack`: escapes fail the job *)
        if o.Fl.Fleet.o_agg.Fl.Agg.g_opec_escapes > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Fleet-scale evaluation: expand registry workloads and \
          fuzz-generated seed images into image×task units, run them on \
          the work-stealing domain pool against the shared compile-once \
          artifact store, and emit one consolidated deterministic \
          report (plus an exportable job journal).  Exits nonzero on \
          any task failure or OPEC escape.")
    Term.(
      const run $ apps $ seeds $ size $ tasks $ backends $ domains_arg $ json_out
      $ journal_out $ quiet)

(* ------------------------------------------------------------------ load *)

let load_cmd =
  let module L = Opec_load in
  let scenario =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Scenario to drive (default: all): request-storm, \
             sensor-burst, interrupt-preempt, or tcp-echo-slice.")
  in
  let events =
    Arg.(
      value & opt count_conv 100_000
      & info [ "events" ] ~docv:"N"
          ~doc:
            "Event target per scenario run (the tcp-echo-slice drives \
             a fixed 500-frame slice regardless).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON object per line instead of text.")
  in
  let run scenario backend events json =
    let kinds =
      match scenario with
      | None -> Ok L.Scenario.all
      | Some s -> (
        match L.Scenario.of_name s with
        | Some k -> Ok [ k ]
        | None ->
          Error
            (Printf.sprintf "unknown scenario %S (known: %s)" s
               (String.concat ", " (List.map L.Scenario.name L.Scenario.all))))
    in
    match kinds with
    | Error msg -> exits_with_error msg
    | Ok kinds ->
      let results =
        List.map (fun k -> L.Scenario.run ~backend ~target_events:events k)
          kinds
      in
      List.iter
        (fun r ->
          if json then print_json (L.Scenario.result_json r)
          else Format.printf "%a@.@." L.Scenario.pp_result r)
        results;
      if
        List.exists
          (fun r -> match r.L.Scenario.r_check with Ok () -> false | Error _ -> true)
          results
      then exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Traffic-driven load scenarios: server-shaped drivers \
          (request/response storms, sensor bursts, preemptive thread \
          traffic, and a TCP-Echo slice) pushing sustained event \
          streams through the protected image and reporting the \
          operation-switch latency tail (mean, p50, p99, p999) under \
          the selected enforcement backend.  Exits nonzero if any \
          scenario's end-to-end output check fails.")
    Term.(const run $ scenario $ backend_arg $ events $ json)

let () =
  let info =
    Cmd.info "opec" ~version:"1.0.0"
      ~doc:"Operation-based security isolation for bare-metal embedded systems"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; policy_cmd; run_cmd; compare_cmd; aces_cmd; trace_cmd;
            profile_cmd; syncsets_cmd; lint_cmd; attack_cmd;
            compare_backends_cmd; fuzz_cmd; fleet_cmd; load_cmd ]))
