(** The campaign runner: execute every (primitive × defense) cell for
    an app and classify the outcomes.  Every cell runs on a fresh
    machine; attacked end states are diffed against a clean run of the
    same defense.  Deterministic: two campaigns over the same app
    produce identical matrices. *)

type defense = Vanilla | Aces of Opec_aces.Strategy.kind | Opec

(** Column order: vanilla, ACES1, ACES2, ACES3, OPEC. *)
val defenses : defense list

val defense_name : defense -> string

type outcome =
  | Blocked    (** the defense trapped the injection *)
  | Contained  (** performed, but corruption stayed inside the
                   attacking operation's policy *)
  | Escaped    (** out-of-policy state or a non-owned peripheral
                   changed *)
  | Crashed    (** the device died without the defense trapping the
                   attack *)

val outcome_name : outcome -> string

type cell = {
  defense : defense;
  injection : Planner.injection;
  outcome : outcome;
  detail : string;
}

type matrix = {
  app : string;
  injections : Planner.injection list;
  cells : cell list;
      (** row-major: for each injection, one cell per defense *)
}

(** Run the full matrix for the pipeline's image of one app ([backend]
    selects the enforcement backend the OPEC column runs under, default
    MPU); the clean reference runs are the pipeline's memoized
    artifacts. *)
val run_app :
  ?backend:Opec_machine.Backend.kind ->
  Opec_apps.App.t ->
  matrix

(** The OPEC column alone: every planned injection against the real
    monitor, no vanilla/ACES baseline cells.  The fuzz harness's
    containment oracle — it only needs the "all Blocked" verdict.
    [image] defaults to the pipeline's image; a foreign one (the fuzz
    defect gate) gets a private device probe and clean protected run. *)
val run_opec_only :
  ?backend:Opec_machine.Backend.kind ->
  ?image:Opec_core.Image.t ->
  Opec_apps.App.t ->
  cell list

(** Run every app's matrix, fanned out across a domain pool
    ([domains] defaults to the pool's recommended size).  Results are
    in input order: byte-identical to a sequential run. *)
val run_all :
  ?domains:int ->
  ?backend:Opec_machine.Backend.kind ->
  Opec_apps.App.t list ->
  matrix list

val cells_of : matrix -> defense:defense -> cell list

(** Cells where an attack escaped OPEC — the security-regression gate
    (must be empty). *)
val opec_escapes : matrix -> cell list

(** At least one primitive escaped the vanilla baseline (the paper's
    "compromised" column). *)
val vanilla_escaped : matrix -> bool
