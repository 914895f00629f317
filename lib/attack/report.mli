(** Containment-matrix rendering.  Output depends only on the matrix —
    never on wall-clock or iteration order — so two campaigns over the
    same apps render byte-identically. *)

(** One app's matrix as an aligned text table; [details] appends the
    per-cell rationale and classification detail. *)
val render : ?details:bool -> Campaign.matrix -> string

(** Cross-app outcome counts per defense. *)
val summary : Campaign.matrix list -> string

(** The whole campaign as one JSON document (stable field order). *)
val to_json : Campaign.matrix list -> string

(** One cell object — shared with the cross-backend study's exporter. *)
val cell_json : Campaign.cell -> Opec_obs.Json.t
