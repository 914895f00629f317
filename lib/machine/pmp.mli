(** RISC-V Physical Memory Protection (PMP), the alternative protection
    unit for porting OPEC to other platforms (Section 7).

    Differences from the ARM MPU that matter to OPEC: 16 entries, the
    LOWEST-numbered matching entry decides, NAPOT/TOR addressing, and
    lock bits that bind even machine-mode (privileged) accesses. *)

type mode =
  | Off
  | Napot of { base : int; size_log2 : int }
  | Tor of { base : int; limit : int }  (** [\[base, limit)] *)

type entry = {
  mode : mode;
  r : bool;
  w : bool;
  x : bool;
  locked : bool;  (** enforced even on machine-mode accesses *)
}

(** The sixteen entries.  A value is never written once built: a change
    builds a new one ({!with_entry}). *)
type t = private { entries : entry array }

exception Invalid_entry of string

val entry_count : int

(** Validated NAPOT entry: naturally aligned power-of-two of >= 8 B. *)
val napot :
  ?locked:bool -> base:int -> size_log2:int -> r:bool -> w:bool -> x:bool ->
  unit -> entry

(** Validated top-of-range entry covering [\[base, limit)]; both bounds
    must be multiples of 4. *)
val tor :
  ?locked:bool -> base:int -> limit:int -> r:bool -> w:bool -> x:bool ->
  unit -> entry

(** Entries holding the given values, the rest off; a later pair wins
    its entry.  Raises {!Invalid_entry} on an index out of range. *)
val make : (int * entry) list -> t

(** A copy with entry [i] holding the value. *)
val with_entry : t -> int -> entry -> t

val matches : entry -> int -> bool

(** The six permission bits of [addr]'s block (see {!Backend}): the
    lowest-numbered matching entry decides; machine mode passes unless
    the entry is locked; no match faults lower privileges. *)
val block_bits : t -> int -> int

val pp_entry : Format.formatter -> entry -> unit
