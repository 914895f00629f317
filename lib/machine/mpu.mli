(** The ARMv7-M Memory Protection Unit (paper, Section 2.2).

    Models the documented constraints OPEC's design is built on: 8
    prioritized regions, power-of-two sizes of at least 32 bytes, bases
    aligned to the region size, 8 individually disableable sub-regions
    for regions of 256 bytes and up, and the PRIVDEFENA background map
    for privileged code. *)

type perm = No_access | Read_only | Read_write

type region = {
  base : int;
  size_log2 : int;     (** region covers [2{^size_log2}] bytes, >= 5 *)
  srd : int;           (** 8-bit sub-region disable mask *)
  privileged : perm;
  unprivileged : perm;
  executable : bool;
}

(** The eight region slots.  A value is never written once built: a
    change builds a new one ({!with_region}). *)
type t = private { regions : region option array }

exception Invalid_region of string

val region_count : int

(** Smallest legal region size: 32 bytes. *)
val min_size_log2 : int

(** Sub-regions are only implemented for regions of 256 bytes and up. *)
val subregion_min_log2 : int

(** Validated region constructor.  Raises {!Invalid_region} on sizes out
    of range, misaligned bases, or bad [srd] masks. *)
val region :
  ?srd:int ->
  ?executable:bool ->
  base:int ->
  size_log2:int ->
  privileged:perm ->
  unprivileged:perm ->
  unit ->
  region

(** [region_size_for bytes] is the smallest legal [(size, log2)] able to
    cover [bytes] bytes. *)
val region_size_for : int -> int * int

(** Slots holding the given regions, the rest empty; a later pair wins
    its slot.  Raises {!Invalid_region} on a slot number out of range. *)
val make : (int * region) list -> t

(** A copy with [slot] holding the region. *)
val with_region : t -> int -> region -> t

(** Does the region match the address, honouring disabled sub-regions? *)
val region_matches : region -> int -> bool

(** The read, write and execute bits of a permission (execute also
    needs read, and [x]: the window is executable). *)
val perm_bits : perm -> x:bool -> int

(** The six permission bits of [addr]'s block (see {!Backend}): the
    highest-numbered region whose (enabled) sub-region contains [addr]
    decides; with no match, privileged accesses use the background map
    and unprivileged ones fault. *)
val block_bits : t -> int -> int

val pp_perm : Format.formatter -> perm -> unit
val pp_region : Format.formatter -> region -> unit

(** [on] is the enable bit, which the state beside the registers holds. *)
val pp : on:bool -> Format.formatter -> t -> unit
