(* Backend-generic fault-time virtualization over whatever protection
   state the bus carries.

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

(* Rotate protection onto the permitted-but-faulting access at [addr]:
   a new state, the old one untouched.  Returns [None] when no planned
   window covers the address (a real violation the monitor must deny) —
   always the case on CHERI, whose grants are never partial. *)
let virtualize (st : M.Backend.state) ~(meta : C.Metadata.op_meta) ~virt_next
    ~addr =
  let slot () =
    let rot = Option.get (C.Backend_plan.rotation (M.Backend.kind_of st) meta) in
    rot.C.Backend_plan.first + (virt_next mod max 1 rot.C.Backend_plan.slots)
  in
  let next regs swap = Some (M.Backend.make ~on:st.M.Backend.on regs, swap) in
  (* MPU and PMP: the covering planned window over the slot's current
     one *)
  let rotate_window resident write =
    match covering_region meta addr with
    | None -> None
    | Some region ->
      let slot = slot () in
      next (write slot region)
        { sw_slot = slot; sw_evicted = resident slot;
          sw_installed = Obs.Sink.region_id_of region }
  in
  match st.M.Backend.regs with
  | M.Backend.Mpu_regs mpu ->
    rotate_window
      (fun slot -> Option.map Obs.Sink.region_id_of mpu.M.Mpu.regions.(slot))
      (fun slot region -> M.Backend.Mpu_regs (M.Mpu.with_region mpu slot region))
  | M.Backend.Pmp_regs pmp ->
    rotate_window
      (fun slot -> pmp_entry_id pmp.M.Pmp.entries.(slot))
      (fun slot region ->
        M.Backend.Pmp_regs
          (M.Pmp.with_entry pmp slot (C.Backend_plan.pmp_window region)))
  | M.Backend.Poe_regs poe -> (
    (* key recycling, not region eviction: the faulting window is already
       resident but keyless — strip a key from its current holders and
       tag the window with it *)
    let window =
      List.find_opt
        (fun (ov : M.Poe.overlay) ->
          ov.M.Poe.ov_key = M.Poe.no_key
          && addr >= ov.M.Poe.ov_base && addr < ov.M.Poe.ov_limit)
        poe.M.Poe.overlays
    in
    match window with
    | None -> None
    | Some ov ->
      let key = slot () in
      let poe, victims = M.Poe.recycle poe ov key in
      next (M.Backend.Poe_regs poe)
        { sw_slot = key;
          sw_evicted =
            (match victims with v :: _ -> Some (overlay_id v) | [] -> None);
          sw_installed = overlay_id ov })
  | M.Backend.Cheri_regs _ -> None
