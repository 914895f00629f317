(* Fleet task providers: one function per evaluation task, each a thin
   bridge onto an existing subsystem — the pipeline (compile), the
   linter, the attack campaign, the telemetry breakdown, and the fuzz
   oracles.  Every task draws its artifacts from the shared sharded
   store, so two tasks on the same image never compile it twice, no
   matter which domains they land on.

   Results carry only schedule-independent data (counts, cycles of the
   *simulated* machine, byte sizes) — no wall clock, no domain ids —
   so a fleet report aggregated from them is byte-identical at any
   [-j].  Wall-clock truth lives in the job journal. *)

module C = Opec_core
module P = Opec_pipeline.Pipeline
module Met = Opec_metrics
module L = Opec_lint
module Atk = Opec_attack

type outcome_counts = {
  oc_blocked : int;
  oc_contained : int;
  oc_escaped : int;
  oc_crashed : int;
}

type result =
  | Compiled of {
      c_ops : int;
      c_entries : int;
      c_flash : int;
      c_sram : int;
      c_syncset_bytes : int;
    }
  | Linted of {
      l_errors : int;
      l_warnings : int;
      l_infos : int;
      l_by_code : (string * int) list;  (** code -> count, sorted by code *)
    }
  | Attacked of {
      a_injections : int;
      a_defenses : (string * outcome_counts) list;
          (** per defense, campaign column order *)
      a_opec_escapes : int;
    }
  | Traced of {
      t_base_cycles : int64;
      t_prot_cycles : int64;
      t_overhead_cycles : int64;
      t_sanitize : int64;
      t_sync : int64;
      t_relocate : int64;
      t_svc : int64;
      t_other : int64;
      t_switches : int;
      t_synced_bytes : int;
    }
  | Fuzzed of {
      f_properties : string list;
      f_failures : (string * string) list;  (** property, detail *)
    }
  | Failed of { x_error : string }
      (** the task raised; the unit is reported, not the fleet killed *)

(* --- the providers ------------------------------------------------------- *)

let compile_task ~backend (im : Spec.image) =
  let image = P.image (P.ctx ~backend im.Spec.im_app) in
  Compiled
    { c_ops = List.length image.C.Image.ops;
      c_entries = List.length image.C.Image.entries;
      c_flash = image.C.Image.flash_used;
      c_sram = image.C.Image.sram_used;
      c_syncset_bytes = image.C.Image.syncset_bytes }

let lint_task ~backend (im : Spec.image) =
  let image = P.image (P.ctx ~backend im.Spec.im_app) in
  let diags = L.Lint.run ~dynamic:false image in
  let count sev =
    List.length (List.filter (fun d -> d.L.Diag.severity = sev) diags)
  in
  let by_code =
    List.fold_left
      (fun acc (d : L.Diag.t) ->
        let n = Option.value (List.assoc_opt d.L.Diag.code acc) ~default:0 in
        (d.L.Diag.code, n + 1) :: List.remove_assoc d.L.Diag.code acc)
      [] diags
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Linted
    { l_errors = count L.Diag.Error;
      l_warnings = count L.Diag.Warning;
      l_infos = count L.Diag.Info;
      l_by_code = by_code }

let count_outcomes cells =
  List.fold_left
    (fun oc (c : Atk.Campaign.cell) ->
      match c.Atk.Campaign.outcome with
      | Atk.Campaign.Blocked -> { oc with oc_blocked = oc.oc_blocked + 1 }
      | Atk.Campaign.Contained -> { oc with oc_contained = oc.oc_contained + 1 }
      | Atk.Campaign.Escaped -> { oc with oc_escaped = oc.oc_escaped + 1 }
      | Atk.Campaign.Crashed -> { oc with oc_crashed = oc.oc_crashed + 1 })
    { oc_blocked = 0; oc_contained = 0; oc_escaped = 0; oc_crashed = 0 }
    cells

(* Registry images run the full defense matrix (vanilla / ACES1-3 /
   OPEC); generated images run the OPEC column only — the verdict that
   matters there is "no escape", and the four baseline columns would
   triple the fleet's dominant cost for no report value. *)
let attack_task ~backend (im : Spec.image) =
  if im.Spec.im_generated then begin
    let cells = Atk.Campaign.run_opec_only ~backend im.Spec.im_app in
    let oc = count_outcomes cells in
    Attacked
      { a_injections = List.length cells;
        a_defenses = [ ("OPEC", oc) ];
        a_opec_escapes = oc.oc_escaped }
  end
  else begin
    let m = Atk.Campaign.run_app ~backend im.Spec.im_app in
    let defenses =
      List.map
        (fun d ->
          ( Atk.Campaign.defense_name d,
            count_outcomes (Atk.Campaign.cells_of m ~defense:d) ))
        Atk.Campaign.defenses
    in
    Attacked
      { a_injections = List.length m.Atk.Campaign.injections;
        a_defenses = defenses;
        a_opec_escapes = List.length (Atk.Campaign.opec_escapes m) }
  end

let trace_task ~backend (im : Spec.image) =
  let b = Met.Overhead.breakdown_of_app ~backend im.Spec.im_app in
  Traced
    { t_base_cycles = b.Met.Overhead.bd_base_cycles;
      t_prot_cycles = b.Met.Overhead.bd_prot_cycles;
      t_overhead_cycles = b.Met.Overhead.bd_overhead_cycles;
      t_sanitize = b.Met.Overhead.bd_sanitize;
      t_sync = b.Met.Overhead.bd_sync;
      t_relocate = b.Met.Overhead.bd_relocate;
      t_svc = b.Met.Overhead.bd_svc;
      t_other = b.Met.Overhead.bd_other;
      t_switches = b.Met.Overhead.bd_switches;
      t_synced_bytes = b.Met.Overhead.bd_synced_bytes }

(* The differential oracle subset: transparency, engine agreement, and
   sync-schedule soundness.  Static lint is the lint task's job and
   attack containment the attack task's, so the fuzz task doesn't pay
   for them twice. *)
let fuzz_properties = [ "transparency"; "engine-differential"; "sync-soundness" ]

let fuzz_task ~backend (im : Spec.image) =
  let module O = Opec_fuzz.Oracle in
  let props =
    List.filter_map O.find fuzz_properties
  in
  let c = P.ctx ~backend im.Spec.im_app in
  let failures =
    List.filter_map
      (fun (p : O.property) ->
        let verdict =
          try p.O.check c
          with e ->
            O.Fail (Printf.sprintf "oracle raised: %s" (Printexc.to_string e))
        in
        match verdict with
        | O.Pass -> None
        | O.Fail d -> Some (p.O.name, d))
      props
  in
  Fuzzed { f_properties = List.map (fun p -> p.O.name) props; f_failures = failures }

let run (u : Spec.unit_) : result =
  let im = u.Spec.u_image in
  let backend = u.Spec.u_backend in
  match u.Spec.u_task with
  | Spec.Compile -> compile_task ~backend im
  | Spec.Lint -> lint_task ~backend im
  | Spec.Attack -> attack_task ~backend im
  | Spec.Trace -> trace_task ~backend im
  | Spec.Fuzz -> fuzz_task ~backend im

(* --- JSON (deterministic; the report's raw material) -------------------- *)

let quote = Opec_obs.Json.escape

let oc_json oc =
  Printf.sprintf
    {|{"blocked":%d,"contained":%d,"escaped":%d,"crashed":%d}|}
    oc.oc_blocked oc.oc_contained oc.oc_escaped oc.oc_crashed

let to_json = function
  | Compiled c ->
    Printf.sprintf
      {|{"task":"compile","ops":%d,"entries":%d,"flash":%d,"sram":%d,"syncset_bytes":%d}|}
      c.c_ops c.c_entries c.c_flash c.c_sram c.c_syncset_bytes
  | Linted l ->
    Printf.sprintf
      {|{"task":"lint","errors":%d,"warnings":%d,"infos":%d,"by_code":{%s}}|}
      l.l_errors l.l_warnings l.l_infos
      (String.concat ","
         (List.map
            (fun (code, n) -> Printf.sprintf {|"%s":%d|} (quote code) n)
            l.l_by_code))
  | Attacked a ->
    Printf.sprintf
      {|{"task":"attack","injections":%d,"opec_escapes":%d,"defenses":{%s}}|}
      a.a_injections a.a_opec_escapes
      (String.concat ","
         (List.map
            (fun (name, oc) ->
              Printf.sprintf {|"%s":%s|} (quote name) (oc_json oc))
            a.a_defenses))
  | Traced t ->
    Printf.sprintf
      {|{"task":"trace","baseline_cycles":%Ld,"protected_cycles":%Ld,"overhead_cycles":%Ld,"sanitize":%Ld,"sync":%Ld,"relocate":%Ld,"svc":%Ld,"other":%Ld,"switches":%d,"synced_bytes":%d}|}
      t.t_base_cycles t.t_prot_cycles t.t_overhead_cycles t.t_sanitize
      t.t_sync t.t_relocate t.t_svc t.t_other t.t_switches t.t_synced_bytes
  | Fuzzed f ->
    Printf.sprintf {|{"task":"fuzz","properties":[%s],"failures":[%s]}|}
      (String.concat ","
         (List.map (fun p -> Printf.sprintf {|"%s"|} (quote p)) f.f_properties))
      (String.concat ","
         (List.map
            (fun (p, d) ->
              Printf.sprintf {|{"property":"%s","detail":"%s"}|} (quote p)
                (quote d))
            f.f_failures))
  | Failed x ->
    Printf.sprintf {|{"task":"failed","error":"%s"}|} (quote x.x_error)
