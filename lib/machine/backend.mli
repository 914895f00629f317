(** The enforcement-backend abstraction: a constraint descriptor per
    substrate (entry budget, alignment rule) and a uniform runtime
    state + check over the four hardware models (ARMv7-M MPU, RISC-V
    PMP, CHERI capabilities, Arm POE/MPK keys). *)

type kind = Mpu | Pmp | Cheri | Poe

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

type alignment =
  | Pow2 of { min_log2 : int }
  | Granule of { bytes : int }
  | Precision of { mantissa_bits : int }

type descriptor = {
  d_kind : kind;
  d_entry_budget : int option;
  d_alignment : alignment;
  d_range_granule : int option;
      (** one entry grants any range whose base and length are multiples
          of this: 4 on PMP (a TOR entry), 1 on CHERI (within bounds
          precision); [None] on MPU and POE, whose every window takes
          the aligned encoding *)
}

val descriptor : kind -> descriptor

val region_fit : descriptor -> int -> int * int
(** [region_fit d bytes] is the [(alignment, span)] a window covering
    [bytes] bytes costs under the backend's encoding.  Identical to
    [Mpu.region_size_for] for power-of-two backends. *)

val grants_exactly : descriptor -> base:int -> len:int -> bool
(** Whether one entry can grant exactly [\[base, base + len)], no byte
    more: a PMP TOR entry on the 4-byte granule, or a CHERI capability
    representable without widening.  Never on MPU or POE. *)

type state =
  | Mpu_state of Mpu.t
  | Pmp_state of Pmp.t
  | Cheri_state of Cheri.t
  | Poe_state of Poe.t

val create : kind -> state
val kind_of : state -> kind

(** Same kind and same registers.  Use this, not [=]: every backend
    keeps a decision memo beside its registers. *)
val equal : state -> state -> bool

(** The state's enable bit and decision memo, which the bus reads. *)
val decision : state -> Decision.t

(** The six permission bits of [addr]'s block (see {!Decision}): the
    slow path the memo caches and {!check} decides from. *)
val block_bits : state -> int -> int

(** One access decided from the registers, bypassing the memo that
    {!Bus.check_as} consults. *)
val check :
  state ->
  privileged:bool ->
  addr:int ->
  access:Fault.access ->
  (unit, Fault.info) result

val enable : state -> unit
val pp : Format.formatter -> state -> unit
