(* Cross-backend trade-off study: the same workloads run under every
   enforcement backend, pairing the containment matrix (app × primitive
   × backend) with the per-backend overhead breakdown and image
   footprint — the numbers behind `opec compare-backends`.

   Containment and overhead both come from the memoized artifact
   pipeline, so the MPU column of this study is the same protected run
   the rest of the evaluation reports, not a re-measurement. *)

module M = Opec_machine
module C = Opec_core
module Met = Opec_metrics
module P = Opec_pipeline.Pipeline
module Apps = Opec_apps
module Mon = Opec_monitor

(* One (app, backend) measurement. *)
type row = {
  r_app : string;
  r_backend : M.Backend.kind;
  r_cells : Campaign.cell list;  (** the OPEC column under this backend *)
  r_breakdown : Met.Overhead.breakdown;
  r_denied : int;        (** monitor denials in the clean protected run *)
  r_flash_used : int;
  r_sram_used : int;
  r_aborted : string option;
      (** why the clean protected run stopped early, if it did *)
}

type t = { backends : M.Backend.kind list; rows : row list }

let run_one backend (app : Apps.App.t) =
  let c = P.ctx ~backend app in
  let image = P.image c in
  let p = P.protected_ c in
  (* Why the clean protected run did not complete, if it did not.  Such
     a run leaves no end state to attack and no overhead to report, so
     the study records it as a gate failure instead of measuring it. *)
  let aborted =
    Option.map
      (function Opec_exec.Interp.Aborted msg -> msg | e -> Printexc.to_string e)
      p.P.p_err
  in
  let cells, bd =
    match aborted with
    | None ->
      ( Campaign.run_opec_only ~backend app,
        Met.Overhead.breakdown_of_app ~backend app )
    | Some _ ->
      (* the cycles up to the abort, against a complete baseline *)
      ( [],
        Met.Overhead.breakdown_of ~app_name:app.Apps.App.app_name
          ~base_cycles:(P.baseline (P.ctx app)).P.b_cycles
          ~prot_cycles:p.P.p_cycles
          (Opec_obs.Agg.of_events p.P.p_events) )
  in
  { r_app = app.Apps.App.app_name;
    r_backend = backend;
    r_cells = cells;
    r_breakdown = bd;
    r_denied = p.P.p_stats.Mon.Stats.denied;
    r_flash_used = image.C.Image.flash_used;
    r_sram_used = image.C.Image.sram_used;
    r_aborted = aborted }

(* Backend-major sweep; within one backend the apps fan out across the
   domain pool.  Row order is deterministic (backend order × input app
   order), so renderings are byte-stable. *)
let run ?(backends = M.Backend.all_kinds) ?domains (apps : Apps.App.t list) =
  let rows =
    List.concat_map
      (fun backend ->
        P.parallel_map ?domains ~backend
          (fun c -> run_one backend (P.app c))
          apps)
      backends
  in
  { backends; rows }

let rows_of t ~app = List.filter (fun r -> String.equal r.r_app app) t.rows

let apps_of t =
  List.fold_left
    (fun acc r -> if List.mem r.r_app acc then acc else acc @ [ r.r_app ])
    [] t.rows

(* Cells where an attack escaped any backend — the study's security
   gate (must be empty: every backend contains every primitive). *)
let escapes t =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (c : Campaign.cell) ->
          if c.Campaign.outcome = Campaign.Escaped then
            Some (r.r_app, r.r_backend, c)
          else None)
        r.r_cells)
    t.rows

let failures t =
  List.map
    (fun (app, k, (c : Campaign.cell)) ->
      Printf.sprintf "ESCAPE under %s in %s/%s: %s" (M.Backend.kind_name k) app
        (Primitive.name c.Campaign.injection.Planner.primitive)
        c.Campaign.detail)
    (escapes t)
  @ List.filter_map
      (fun r ->
        let backend = M.Backend.kind_name r.r_backend in
        match r.r_aborted with
        | Some msg ->
          Some
            (Printf.sprintf "ABORTED in clean %s run of %s: %s" backend r.r_app
               msg)
        | None when r.r_denied = 0 -> None
        | None ->
          Some
            (Printf.sprintf "DENIALS in clean %s run of %s: %d" backend r.r_app
               r.r_denied))
      t.rows

let exit_code t = if failures t = [] then 0 else 1

(* --- text rendering ------------------------------------------------------ *)

let cell_for (r : row) (inj : Planner.injection) =
  List.find_opt
    (fun (c : Campaign.cell) ->
      String.equal
        (Primitive.name c.Campaign.injection.Planner.primitive)
        (Primitive.name inj.Planner.primitive)
      && String.equal c.Campaign.injection.Planner.op.C.Operation.name
           inj.Planner.op.C.Operation.name)
    r.r_cells

let outcome_label (o : Campaign.outcome) =
  match o with
  | Campaign.Blocked -> "Blocked"
  | Campaign.Contained -> "Contained"
  | Campaign.Escaped -> "ESCAPED"
  | Campaign.Crashed -> "crashed"

(* Per-app matrix: one row per planned injection, one column per
   backend.  The injection list is read off the first backend's cells;
   a backend whose plan produced a different injection set shows "-"
   (it should not: the planner mines the same policy). *)
let render_app t app =
  match rows_of t ~app with
  | [] -> ""
  | first :: _ as rows ->
    let header =
      "primitive" :: "operation"
      :: List.map (fun r -> M.Backend.kind_name r.r_backend) rows
    in
    let body =
      List.map
        (fun (c : Campaign.cell) ->
          let inj = c.Campaign.injection in
          Primitive.name inj.Planner.primitive
          :: inj.Planner.op.C.Operation.name
          :: List.map
               (fun r ->
                 match cell_for r inj with
                 | Some c -> outcome_label c.Campaign.outcome
                 | None -> "-")
               rows)
        first.r_cells
    in
    Met.Report.heading ("Backend containment: " ^ app)
    ^ "\n"
    ^ Met.Report.table ~header body

let overhead_pct (bd : Met.Overhead.breakdown) =
  Int64.to_float bd.Met.Overhead.bd_overhead_cycles
  /. Int64.to_float (max 1L bd.Met.Overhead.bd_base_cycles)
  *. 100.0

let render_overhead t =
  let header =
    [ "app"; "backend"; "cycles"; "overhead%"; "switches"; "swaps";
      "sync"; "synced B"; "denied"; "flash B"; "sram B" ]
  in
  let rows =
    List.concat_map
      (fun app ->
        List.map
          (fun r ->
            let bd = r.r_breakdown in
            [ r.r_app;
              M.Backend.kind_name r.r_backend;
              Int64.to_string bd.Met.Overhead.bd_prot_cycles;
              (match r.r_aborted with
              | None -> Printf.sprintf "%.2f" (overhead_pct bd)
              | Some _ -> "aborted");
              string_of_int bd.Met.Overhead.bd_switches;
              string_of_int bd.Met.Overhead.bd_swaps;
              Int64.to_string bd.Met.Overhead.bd_sync;
              string_of_int bd.Met.Overhead.bd_synced_bytes;
              string_of_int r.r_denied;
              string_of_int r.r_flash_used;
              string_of_int r.r_sram_used ])
          (rows_of t ~app))
      (apps_of t)
  in
  Met.Report.heading "Backend overhead breakdown"
  ^ "\n"
  ^ Met.Report.table ~header rows

let render t =
  String.concat "\n\n"
    (List.map (render_app t) (apps_of t) @ [ render_overhead t ])

(* --- JSON ---------------------------------------------------------------- *)

module Json = Opec_obs.Json

let row_json (r : row) =
  let escaped =
    List.length
      (List.filter
         (fun (c : Campaign.cell) -> c.Campaign.outcome = Campaign.Escaped)
         r.r_cells)
  in
  Json.Obj
    ([ ("backend", Json.String (M.Backend.kind_name r.r_backend));
       ("cells", Json.List (List.map Report.cell_json r.r_cells));
       ("escaped", Json.Int escaped);
       ("denied", Json.Int r.r_denied) ]
    @ (match r.r_aborted with
      | None -> []
      | Some msg -> [ ("aborted", Json.String msg) ])
    @ Met.Overhead.breakdown_json r.r_breakdown
    @ [ ("flash_used", Json.Int r.r_flash_used);
        ("sram_used", Json.Int r.r_sram_used) ])

let to_json t =
  Json.to_string
    (Json.Obj
       [ ( "backends",
           Json.List
             (List.map (fun k -> Json.String (M.Backend.kind_name k)) t.backends)
         );
         ( "apps",
           Json.List
             (List.map
                (fun app ->
                  Json.Obj
                    [ ("app", Json.String app);
                      ("results", Json.List (List.map row_json (rows_of t ~app)))
                    ])
                (apps_of t)) ) ])
