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

(** The PMP's registers, read-only outside this module: every change
    goes through {!set}, {!enable} or {!restore}, which keep [dec] (the
    enable bit and the decision memo) in step. *)
type t = private { entries : entry array; dec : Decision.t }

exception Invalid_entry of string

val entry_count : int
val create : unit -> t

(** Validated NAPOT entry: naturally aligned power-of-two of >= 8 B. *)
val napot :
  ?locked:bool -> base:int -> size_log2:int -> r:bool -> w:bool -> x:bool ->
  unit -> entry

(** Validated top-of-range entry covering [\[base, limit)]; both bounds
    must be multiples of 4. *)
val tor :
  ?locked:bool -> base:int -> limit:int -> r:bool -> w:bool -> x:bool ->
  unit -> entry

val set : t -> int -> entry -> unit
val get : t -> int -> entry
val enable : t -> unit

(** Reinstate saved entries and the decision captured with them. *)
val restore : t -> entry array -> Decision.image -> unit

val matches : entry -> int -> bool

(** The six permission bits of [addr]'s block (see {!Decision}): the
    lowest-numbered matching entry decides; machine mode passes unless
    the entry is locked; no match faults lower privileges. *)
val block_bits : t -> int -> int

val pp_entry : Format.formatter -> entry -> unit
