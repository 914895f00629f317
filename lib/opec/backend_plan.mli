(** Backend-parameterized protection plans: the one module that maps an
    operation's policy onto each enforcement backend (MPU regions, PMP
    entries, CHERI capability table, or POE key-tagged overlays). *)

module M = Opec_machine

(** The MPU plan's fixed regions under stack sub-region mask [srd], as
    (region number, slot name, region): ["code"], ["stack"] and, when
    the operation has one, its ["opdata"] section.  Built on demand: a
    malformed layout raises {!M.Mpu.Invalid_region}. *)
val mpu_fixed_regions :
  image:Image.t ->
  meta:Metadata.op_meta ->
  srd:int ->
  (int * string * (unit -> M.Mpu.region)) list

(** The PMP entry that makes a planned peripheral window resident. *)
val pmp_window : M.Mpu.region -> M.Pmp.entry

(** Where an operation's peripheral windows live: the monitor rotates
    windows through [slots] slots (MPU regions, PMP entries or POE keys)
    from [first]; the plan holds [needed] windows, and an install leaves
    [min needed slots] of them resident (keyed, on POE).  The MPU
    rotates through all its reserved peripheral regions, the PMP through
    the entries the install filled, POE through the recyclable keys. *)
type rotation = { first : int; slots : int; needed : int }

(** The operation's rotation window on a backend; [None] on CHERI,
    whose grants are always resident. *)
val rotation : M.Backend.kind -> Metadata.op_meta -> rotation option

(** The protection entries an operation's plan leaves free for direct
    grants ({!Partition.grant_direct}): on the PMP all but the stack,
    data section, heap, code, every peripheral window, the spare and
    the background; [Some 0] on MPU and POE; [None] (no budget) on
    CHERI.  Installs place the grants after the peripheral windows:
    PMP TOR entries before the spare, or extra CHERI capabilities. *)
val free_entries :
  M.Backend.kind -> uses_heap:bool -> Operation.t -> int option

(** The operation's plan under stack sub-region mask [srd] as an
    enabled protection state of backend [kind], and the planned
    peripheral windows left non-resident (MPU/PMP overflow; always [[]]
    for CHERI and POE). *)
val install :
  M.Backend.kind ->
  image:Image.t ->
  meta:Metadata.op_meta ->
  srd:int ->
  M.Backend.state * M.Mpu.region list
