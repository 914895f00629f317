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
  | Traced of Met.Overhead.breakdown
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
  Traced (Met.Overhead.breakdown_of_app ~backend im.Spec.im_app)

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

module Json = Opec_obs.Json

let counts kvs = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kvs)

let oc_json oc =
  counts
    [ ("blocked", oc.oc_blocked); ("contained", oc.oc_contained);
      ("escaped", oc.oc_escaped); ("crashed", oc.oc_crashed) ]

let defenses_json ds = Json.Obj (List.map (fun (k, oc) -> (k, oc_json oc)) ds)

let to_json r =
  let task name fields = Json.Obj (("task", Json.String name) :: fields) in
  let c v = Json.Int (Int64.to_int v) and n v = Json.Int v in
  match r with
  | Compiled c ->
    task "compile"
      [ ("ops", n c.c_ops); ("entries", n c.c_entries); ("flash", n c.c_flash);
        ("sram", n c.c_sram); ("syncset_bytes", n c.c_syncset_bytes) ]
  | Linted l ->
    task "lint"
      [ ("errors", n l.l_errors); ("warnings", n l.l_warnings);
        ("infos", n l.l_infos); ("by_code", counts l.l_by_code) ]
  | Attacked a ->
    task "attack"
      [ ("injections", n a.a_injections); ("opec_escapes", n a.a_opec_escapes);
        ("defenses", defenses_json a.a_defenses) ]
  | Traced b ->
    let open Met.Overhead in
    task "trace"
      [ ("baseline_cycles", c b.bd_base_cycles);
        ("protected_cycles", c b.bd_prot_cycles);
        ("overhead_cycles", c b.bd_overhead_cycles); ("sanitize", c b.bd_sanitize);
        ("sync", c b.bd_sync); ("relocate", c b.bd_relocate); ("svc", c b.bd_svc);
        ("other", c b.bd_other); ("switches", n b.bd_switches);
        ("synced_bytes", n b.bd_synced_bytes) ]
  | Fuzzed f ->
    let str s = Json.String s in
    let failure (p, d) = Json.Obj [ ("property", str p); ("detail", str d) ] in
    task "fuzz"
      [ ("properties", Json.List (List.map str f.f_properties));
        ("failures", Json.List (List.map failure f.f_failures)) ]
  | Failed x -> task "failed" [ ("error", Json.String x.x_error) ]
