(* Containment-matrix rendering: the text table the CLI and bench print,
   and the machine-readable JSON the CI gate diffs.  Output depends only
   on the matrix, never on wall-clock or iteration order, so two
   campaigns over the same apps render byte-identically. *)

module Met = Opec_metrics
module C = Opec_core

let outcome_label (o : Campaign.outcome) =
  match o with
  | Campaign.Blocked -> "Blocked"
  | Campaign.Contained -> "Contained"
  | Campaign.Escaped -> "ESCAPED"
  | Campaign.Crashed -> "crashed"

let cell_for (m : Campaign.matrix) inj defense =
  List.find_opt
    (fun (c : Campaign.cell) ->
      c.Campaign.defense = defense
      && String.equal
           (Primitive.name c.Campaign.injection.Planner.primitive)
           (Primitive.name inj.Planner.primitive))
    m.Campaign.cells

let render ?(details = false) (m : Campaign.matrix) =
  let header =
    "primitive" :: "operation"
    :: List.map Campaign.defense_name Campaign.defenses
  in
  let rows =
    List.map
      (fun (inj : Planner.injection) ->
        Primitive.name inj.Planner.primitive
        :: inj.Planner.op.C.Operation.name
        :: List.map
             (fun d ->
               match cell_for m inj d with
               | Some c -> outcome_label c.Campaign.outcome
               | None -> "-")
             Campaign.defenses)
      m.Campaign.injections
  in
  let table =
    Met.Report.heading ("Containment matrix: " ^ m.Campaign.app)
    ^ "\n"
    ^ Met.Report.table ~header rows
  in
  if not details then table
  else
    let lines =
      List.concat_map
        (fun (inj : Planner.injection) ->
          Printf.sprintf "* %s: %s"
            (Primitive.name inj.Planner.primitive)
            inj.Planner.rationale
          :: List.filter_map
               (fun d ->
                 Option.map
                   (fun (c : Campaign.cell) ->
                     Printf.sprintf "    %-8s %-9s %s"
                       (Campaign.defense_name d)
                       (Campaign.outcome_name c.Campaign.outcome)
                       c.Campaign.detail)
                   (cell_for m inj d))
               Campaign.defenses)
        m.Campaign.injections
    in
    table ^ "\n\n" ^ String.concat "\n" lines

(* cross-app summary: outcome counts per defense *)
let summary (ms : Campaign.matrix list) =
  let outcomes =
    [ Campaign.Blocked; Campaign.Contained; Campaign.Escaped;
      Campaign.Crashed ]
  in
  let header =
    "defense" :: List.map Campaign.outcome_name outcomes
  in
  let rows =
    List.map
      (fun d ->
        Campaign.defense_name d
        :: List.map
             (fun o ->
               string_of_int
                 (List.fold_left
                    (fun acc (m : Campaign.matrix) ->
                      acc
                      + List.length
                          (List.filter
                             (fun (c : Campaign.cell) ->
                               c.Campaign.outcome = o)
                             (Campaign.cells_of m ~defense:d)))
                    0 ms))
             outcomes)
      Campaign.defenses
  in
  Met.Report.heading
    (Printf.sprintf "Campaign summary (%d apps)" (List.length ms))
  ^ "\n"
  ^ Met.Report.table ~header rows

(* --- JSON ----------------------------------------------------------------- *)

module Json = Opec_obs.Json

let cell_json (c : Campaign.cell) =
  let inj = c.Campaign.injection in
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.String v))
       [ ("primitive", Primitive.name inj.Planner.primitive);
         ("operation", inj.Planner.op.C.Operation.name);
         ("injection", Primitive.describe inj.Planner.primitive);
         ("rationale", inj.Planner.rationale);
         ("defense", Campaign.defense_name c.Campaign.defense);
         ("outcome", Campaign.outcome_name c.Campaign.outcome);
         ("detail", c.Campaign.detail) ])

let matrix_json (m : Campaign.matrix) =
  Json.Obj
    [ ("app", Json.String m.Campaign.app);
      ("cells", Json.List (List.map cell_json m.Campaign.cells)) ]

let to_json (ms : Campaign.matrix list) =
  Json.to_string (Json.List (List.map matrix_json ms))
