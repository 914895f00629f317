(** Arm POE / MPK-style permission-overlay keys (Complets model):
    byte-granular tagged windows, a fixed pool of permission keys, and
    key recycling instead of region eviction on exhaustion. *)

type perm = Mpu.perm = No_access | Read_only | Read_write

(** A tagged window, read-only outside this module: {!reclaim_key} and
    {!retag} change its key. *)
type overlay = private {
  ov_base : int;
  ov_limit : int;
  mutable ov_key : int;
}

(** The overlays and key permissions, read-only outside this module:
    every change goes through the functions below, which keep [dec]
    (the enable bit and the decision memo) in step. *)
type t = private {
  mutable overlays : overlay list;
  por : perm array;
  por_x : bool array;
  dec : Decision.t;
}

(** Saved registers, sharing no overlay record with a live state. *)
type registers

exception Invalid_overlay of string

val key_count : int
val no_key : int
val granule : int

val create : unit -> t

val overlay : ?key:int -> base:int -> limit:int -> unit -> overlay
(** @raise Invalid_overlay on an empty, misaligned, or bad-key window. *)

val clear : t -> unit
val add : t -> overlay -> unit
val set_key : t -> int -> ?x:bool -> perm -> unit
val enable : t -> unit
val overlays : t -> overlay list
val find : t -> int -> overlay option

val reclaim_key : t -> int -> overlay list
(** Strip [key] from every window holding it; returns the victims. *)

val retag : t -> overlay -> int -> unit
(** [retag t ov key] tags [ov], one of [t]'s windows, with [key]. *)

val registers : t -> registers

(** Reinstate saved registers and the decision captured with them. *)
val restore : t -> registers -> Decision.image -> unit

(** The six permission bits of [addr]'s block (see {!Decision}). *)
val block_bits : t -> int -> int

val pp_overlay : Format.formatter -> overlay -> unit
val pp : Format.formatter -> t -> unit
