(** The system bus: routes accesses to flash, SRAM, mapped devices, and
    the PPB, enforcing the protection backend and privilege rules
    (Section 2).

    PPB accesses require the privileged level (else {!Fault.Bus}); all
    other accesses are backend-checked; unmapped addresses and flash
    writes bus-fault. *)

(** Read-only outside this module.  [flash] holds only what was written
    to it ({!Memory.grown}); [devices] and [ppb_devices] are the
    attached devices outside and inside the PPB, latest first; [prot]
    is the installed protection state. *)
type t = private {
  flash : Memory.t;
  sram : Memory.t;
  mutable devices : Device.t array;
  mutable ppb_devices : Device.t array;
  mutable prot : Backend.state;
  cpu : Cpu.t;
}

(** A machine whose protection is a disabled MPU. *)
val create : board:Memmap.board -> t

(** Install a protection state: one store, its memo coming with it. *)
val set_protection : t -> Backend.state -> unit

val protection : t -> Backend.state

(** The backend check of one access at the given privilege level,
    through the active backend's decision memo.
    @raise Fault.Mem_manage when the backend denies it. *)
val check_as : t -> privileged:bool -> addr:int -> access:Fault.access -> unit

(** Map a device window onto the bus. Devices attached later take
    precedence on overlapping ranges. *)
val attach : t -> Device.t -> unit

val find_device : t -> int -> Device.t option

(** [read t addr width] / [write t addr width v] perform checked
    accesses at the CPU's current privilege level, charging one cycle. *)
val read : t -> int -> int -> int64

val write : t -> int -> int -> int64 -> unit

(** Fast paths for accesses whose region was resolved at translation
    time (the closure-compiled interpreter engine): identical charge,
    backend check, and faults to {!read}/{!write}, skipping only the region
    classification and memory-range scans.  The caller guarantees the
    routing precondition — the address lies in the named region.  The
    [_int] paths carry the value as a native int and take 1- and 4-byte
    accesses only, so they box no [int64]. *)
val read_sram_int : t -> int -> int -> int

val write_sram_int : t -> int -> int -> int -> unit

val read_flash_int : t -> int -> int -> int

val read_device : t -> int -> int -> int64

val write_device : t -> int -> int -> int64 -> unit

(** Whether [addr .. addr + bytes - 1] lies in SRAM. *)
val in_sram : t -> int -> int -> bool

(** Privileged SRAM word primitives for the monitor's copy plans.
    [copy_sram_word t ~src ~dst width] reads [src] and writes the word to
    [dst]; [equal_sram_word t ~a ~b width] reads [a] then [b] and compares.
    Each access charges one cycle and runs the backend check exactly as
    {!read_sram_int}/{!write_sram_int} do at the privileged level, in the same
    order, but neither raises the CPU's level nor boxes the word.
    [width] is 1 or 4, and the caller guarantees both ranges pass
    {!in_sram}. *)
val copy_sram_word : t -> src:int -> dst:int -> int -> unit

val equal_sram_word : t -> a:int -> b:int -> int -> bool

(** Privileged raw accessors for the loader and the monitor: bypass the
    backend (background map) but still route to devices. *)
val read_raw : t -> int -> int -> int64

val write_raw : t -> int -> int -> int64 -> unit

(** Instruction-fetch permission check for a function entry address. *)
val check_execute : t -> int -> unit
