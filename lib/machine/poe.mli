(** Arm POE / MPK-style permission-overlay keys (Complets model):
    byte-granular tagged windows, a fixed pool of permission keys, and
    key recycling instead of region eviction on exhaustion. *)

type perm = Mpu.perm = No_access | Read_only | Read_write

(** A tagged window. *)
type overlay = private { ov_base : int; ov_limit : int; ov_key : int }

(** The overlays and key permissions.  A value is never changed once
    built: key recycling builds a new one ({!recycle}). *)
type t = private {
  overlays : overlay list;
  por : perm array;
  por_x : bool array;
}

exception Invalid_overlay of string

val key_count : int
val no_key : int
val granule : int

val overlay : ?key:int -> base:int -> limit:int -> unit -> overlay
(** @raise Invalid_overlay on an empty, misaligned, or bad-key window. *)

(** [make ~keys overlays]: each [(key, perm, x)] gives a key its
    unprivileged permission and execute bit (other keys: no access);
    the first overlay covering an address decides.
    @raise Invalid_overlay on a key out of range. *)
val make : keys:(int * perm * bool) list -> overlay list -> t

val find : t -> int -> overlay option

(** [recycle t window key] strips [key] from every window holding it
    and tags [window], one of [t]'s, with it; returns the new state and
    the stripped windows (the victims). *)
val recycle : t -> overlay -> int -> t * overlay list

(** The six permission bits of [addr]'s block (see {!Backend}). *)
val block_bits : t -> int -> int

val pp_overlay : Format.formatter -> overlay -> unit

(** [on] is the enable bit, which the state beside the registers holds. *)
val pp : on:bool -> Format.formatter -> t -> unit
