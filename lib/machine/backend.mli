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

(** A backend's registers. *)
type regs =
  | Mpu_regs of Mpu.t
  | Pmp_regs of Pmp.t
  | Cheri_regs of Cheri.t
  | Poe_regs of Poe.t

(** A protection state: an immutable value of registers, enable bit,
    block grain ([1 lsl shift] bytes, [shift] at most 5: no boundary of
    the registers falls inside a block) and the decision memo that
    belongs to those registers, which the bus reads.  [memo] is
    direct-mapped by {!slot}; an entry is [(block lsl 6) lor bits],
    where the six bits are read, write and execute at the unprivileged
    level (bits 0-2) and at the privileged level (bits 3-5). *)
type state = private { regs : regs; on : bool; shift : int; memo : int array }

(** A state of the registers with an empty memo. *)
val make : on:bool -> regs -> state

(** The disabled state of a backend with empty registers. *)
val create : kind -> state

val kind_of : state -> kind

(** Same enable bit and same registers; the memo is a cache. *)
val equal : state -> state -> bool

(** The memo slot of [addr]'s block. *)
val slot : state -> int -> int

(** A memo miss: [addr]'s six permission bits decided from the
    registers, memoized in its slot. *)
val fill : state -> int -> int

(** One access decided from the registers, bypassing the memo that
    {!Bus.check_as} consults. *)
val check :
  state ->
  privileged:bool ->
  addr:int ->
  access:Fault.access ->
  (unit, Fault.info) result

val pp : Format.formatter -> state -> unit
