(** Backend-generic fault-time virtualization over whatever protection
    state the bus carries (MPU regions, PMP entries, POE keys; CHERI
    grants are always fully resident). *)

module C = Opec_core
module M = Opec_machine
module Obs = Opec_obs

(** One fault-time rotation: which slot (MPU region / PMP entry / POE
    key) was rotated, what it evicted, and what is now resident. *)
type swap = {
  sw_slot : int;
  sw_evicted : Obs.Sink.region_id option;
  sw_installed : Obs.Sink.region_id;
}

(** Rotate protection onto the permitted-but-faulting access at [addr]:
    the rotated state (a new value with an empty memo; [st] is left as
    it was) and the swap; [None] when no planned window covers it (a
    real violation — always the case on CHERI). *)
val virtualize :
  M.Backend.state ->
  meta:C.Metadata.op_meta ->
  virt_next:int ->
  addr:int ->
  (M.Backend.state * swap) option
