(** Backend-generic enforcement glue: register images of installed
    plans and fault-time virtualization over whatever protection state
    the bus carries (MPU regions, PMP entries, POE keys; CHERI grants are
    always fully resident). *)

module C = Opec_core
module M = Opec_machine
module Obs = Opec_obs

(** A backend's complete protection state as
    {!Opec_core.Backend_plan.install} leaves it: MPU regions, PMP
    entries, the CHERI capability table, or the POE overlays and key
    permissions; and the decision memo of that state. *)
type image

(** The state's image.  Taken right after an install, restoring it
    repeats that install.  The live state moves onto the image's memo. *)
val capture : M.Backend.state -> image

(** Write an image back onto a backend, handing its memo, stamp and
    grain back to the state in O(1); [false], leaving the state
    untouched, when the image was captured from another kind of
    backend. *)
val restore : M.Backend.state -> image -> bool

(** One fault-time rotation: which slot (MPU region / PMP entry / POE
    key) was rotated, what it evicted, and what is now resident. *)
type swap = {
  sw_slot : int;
  sw_evicted : Obs.Sink.region_id option;
  sw_installed : Obs.Sink.region_id;
}

(** The planned peripheral window covering [addr], if any. *)
val covering_region : C.Metadata.op_meta -> int -> M.Mpu.region option

(** Rotate protection onto the permitted-but-faulting access at [addr];
    [None] when no planned window covers it (a real violation — always
    the case on CHERI). *)
val virtualize :
  M.Backend.state ->
  cpu:M.Cpu.t ->
  meta:C.Metadata.op_meta ->
  virt_next:int ->
  addr:int ->
  swap option
