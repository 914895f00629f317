(* Backend-generic enforcement glue: register images of installed plans
   and fault-time virtualization over whatever protection state the bus
   carries.

   Every backend installs through {!Opec_core.Backend_plan.install}, and
   every rotation goes through the plan's {!Opec_core.Backend_plan.rotation}
   window: the MPU and PMP rotate overflowed peripheral windows through
   their slots round-robin; POE never evicts a window — it recycles
   permission keys onto the faulting keyless window; CHERI grants are
   always fully resident, so a capability fault is always a real
   violation. *)

module C = Opec_core
module M = Opec_machine
module Obs = Opec_obs

(* A backend's complete protection state as an install leaves it, and
   the decision memo of that state.  Every install clears and rewrites
   the whole state — all MPU regions, all PMP entries, the capability
   table, every overlay and key permission — so restoring an image
   captured right after an install repeats that install without
   deriving the plan again.  The image keeps the stamp the install left
   (see {!M.Decision}), so its memo outlives a switch away and back. *)
type registers =
  | Mpu_image of M.Mpu.region option array
  | Pmp_image of M.Pmp.entry array
  | Cheri_image of M.Cheri.cap list
  | Poe_image of M.Poe.registers

type image = { registers : registers; decision : M.Decision.image }

let capture st =
  let registers =
    match st with
    | M.Backend.Mpu_state m -> Mpu_image (M.Mpu.regions m)
    | M.Backend.Pmp_state p ->
      Pmp_image (Array.init M.Pmp.entry_count (M.Pmp.get p))
    | M.Backend.Cheri_state c -> Cheri_image (M.Cheri.caps c)
    | M.Backend.Poe_state p -> Poe_image (M.Poe.registers p)
  in
  { registers; decision = M.Decision.capture (M.Backend.decision st) }

(* O(1) in the memo: the image's table, stamp and grain come back as
   they are. *)
let restore st { registers; decision } =
  match (st, registers) with
  | M.Backend.Mpu_state m, Mpu_image r -> M.Mpu.restore m r decision; true
  | M.Backend.Pmp_state p, Pmp_image r -> M.Pmp.restore p r decision; true
  | M.Backend.Cheri_state c, Cheri_image r -> M.Cheri.restore c r decision; true
  | M.Backend.Poe_state p, Poe_image r -> M.Poe.restore p r decision; true
  | _ -> false

(* One fault-time rotation: which slot (region / entry / key) was
   rotated, what it evicted, and what is now resident there. *)
type swap = {
  sw_slot : int;
  sw_evicted : Obs.Sink.region_id option;
  sw_installed : Obs.Sink.region_id;
}

let covering_region (meta : C.Metadata.op_meta) addr =
  List.find_opt
    (fun (r : M.Mpu.region) ->
      addr >= r.M.Mpu.base && addr < r.M.Mpu.base + (1 lsl r.M.Mpu.size_log2))
    meta.C.Metadata.periph_regions

let pmp_entry_id (e : M.Pmp.entry) =
  match e.M.Pmp.mode with
  | M.Pmp.Off -> None
  | M.Pmp.Napot { base; size_log2 } ->
    Some { Obs.Sink.rg_base = base; rg_size_log2 = size_log2 }
  | M.Pmp.Tor { base; limit } ->
    Some
      { Obs.Sink.rg_base = base;
        rg_size_log2 = C.Layout.log2_ceil (max 1 (limit - base)) }

let overlay_id (ov : M.Poe.overlay) =
  { Obs.Sink.rg_base = ov.M.Poe.ov_base;
    rg_size_log2 = C.Layout.log2_ceil (max 1 (ov.M.Poe.ov_limit - ov.M.Poe.ov_base)) }

(* Rotate protection onto the permitted-but-faulting access at [addr].
   Returns [None] when no planned window covers the address (a real
   violation the monitor must deny) — always the case on CHERI, whose
   grants are never partial. *)
let virtualize st ~cpu ~(meta : C.Metadata.op_meta) ~virt_next ~addr =
  let slot () =
    let rot = Option.get (C.Backend_plan.rotation (M.Backend.kind_of st) meta) in
    rot.C.Backend_plan.first + (virt_next mod max 1 rot.C.Backend_plan.slots)
  in
  (* MPU and PMP: write the covering planned window over the slot's
     current one *)
  let rotate_window resident write =
    match covering_region meta addr with
    | None -> None
    | Some region ->
      let slot = slot () in
      let evicted = resident slot in
      M.Cpu.with_privilege cpu (fun () -> write slot region);
      Some
        { sw_slot = slot; sw_evicted = evicted;
          sw_installed = Obs.Sink.region_id_of region }
  in
  match st with
  | M.Backend.Mpu_state mpu ->
    rotate_window
      (fun slot -> Option.map Obs.Sink.region_id_of (M.Mpu.get mpu slot))
      (fun slot region -> M.Mpu.set mpu slot (Some region))
  | M.Backend.Pmp_state pmp ->
    rotate_window
      (fun slot -> pmp_entry_id (M.Pmp.get pmp slot))
      (fun slot region -> M.Pmp.set pmp slot (C.Backend_plan.pmp_window region))
  | M.Backend.Poe_state poe -> (
    (* key recycling, not region eviction: the faulting window is already
       resident but keyless — strip a key from its current holders and
       tag the window with it *)
    let window =
      List.find_opt
        (fun (ov : M.Poe.overlay) ->
          ov.M.Poe.ov_key = M.Poe.no_key
          && addr >= ov.M.Poe.ov_base && addr < ov.M.Poe.ov_limit)
        (M.Poe.overlays poe)
    in
    match window with
    | None -> None
    | Some ov ->
      let key = slot () in
      let victims =
        M.Cpu.with_privilege cpu (fun () ->
            let victims = M.Poe.reclaim_key poe key in
            M.Poe.retag poe ov key;
            victims)
      in
      Some
        { sw_slot = key;
          sw_evicted =
            (match victims with v :: _ -> Some (overlay_id v) | [] -> None);
          sw_installed = overlay_id ov })
  | M.Backend.Cheri_state _ -> None
