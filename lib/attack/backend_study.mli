(** Cross-backend trade-off study: the same workloads run under every
    enforcement backend — the containment matrix (app × primitive ×
    backend) next to the per-backend overhead breakdown and image
    footprint.  The numbers behind [opec compare-backends]. *)

module M = Opec_machine

(** One (app, backend) measurement. *)
type row = {
  r_app : string;
  r_backend : M.Backend.kind;
  r_cells : Campaign.cell list;  (** the OPEC column under this backend *)
  r_breakdown : Opec_metrics.Overhead.breakdown;
  r_denied : int;  (** monitor denials in the clean protected run *)
  r_flash_used : int;
  r_sram_used : int;
  r_aborted : string option;
      (** why the clean protected run stopped early (an abort or fuel
          exhaustion), if it did; such a row has no cells, and its
          breakdown counts the cycles up to the stop *)
}

type t = { backends : M.Backend.kind list; rows : row list }

(** Run the study ([backends] defaults to all four; apps fan out across
    the domain pool per backend).  Row order is deterministic, so
    renderings are byte-stable. *)
val run :
  ?backends:M.Backend.kind list ->
  ?domains:int ->
  Opec_apps.App.t list ->
  t

val rows_of : t -> app:string -> row list
val apps_of : t -> string list

(** The study's gate, one message per failure: each cell where an
    attack escaped some backend, then each clean protected run that
    aborted or saw a monitor denial.  Empty when the study passes. *)
val failures : t -> string list

(** What [opec compare-backends] exits with: 0 when {!failures} is
    empty, else 1. *)
val exit_code : t -> int

(** Aligned text tables: one containment matrix per app plus the
    overhead comparison. *)
val render : t -> string

val render_app : t -> string -> string
val render_overhead : t -> string

(** The whole study as one JSON document (stable field order). *)
val to_json : t -> string
