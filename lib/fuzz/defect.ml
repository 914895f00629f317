module C = Opec_core
module M = Opec_machine

type t = Drop_svc | Widen_mpu | Corrupt_shadow

let all = [ Drop_svc; Widen_mpu; Corrupt_shadow ]

let name = function
  | Drop_svc -> "drop-svc"
  | Widen_mpu -> "widen-mpu"
  | Corrupt_shadow -> "corrupt-shadow"

let of_name s = List.find_opt (fun d -> name d = s) all

let caught_by = function
  | Drop_svc -> "lint-static"
  | Widen_mpu -> "backend-containment"
  | Corrupt_shadow -> "transparency"

let is_default (meta : C.Metadata.op_meta) =
  meta.C.Metadata.op.C.Operation.index = 0

let apply d (img : C.Image.t) =
  match d with
  | Drop_svc -> (
    (* losing an entry means an instrumented SVC switch point whose
       operation the metadata no longer lists: L006 must flag it *)
    match img.C.Image.entries with
    | [] -> None
    | _ :: rest -> Some { img with C.Image.entries = rest })
  | Widen_mpu ->
    (* a maximally sloppy peripheral window: base 2^30, 2^29 bytes,
       unprivileged read-write — perfectly legal per the MPU model (so
       the static region checks stay green), but it authorizes every
       MMIO store the planner aims at an unowned peripheral.  The
       monitor's fault handler consults the operation's allow list
       before the planned regions, so the defect widens both — exactly
       the shape of a real over-permissive policy bug *)
    let wide =
      M.Mpu.region ~base:0x4000_0000 ~size_log2:29
        ~privileged:M.Mpu.Read_write ~unprivileged:M.Mpu.Read_write ()
    in
    let wide_range = (0x4000_0000, 0x4000_0000 + (1 lsl 29)) in
    let corrupted = ref false in
    let metas =
      List.map
        (fun (nm, (meta : C.Metadata.op_meta)) ->
          if is_default meta then (nm, meta)
          else begin
            corrupted := true;
            ( nm,
              { meta with
                C.Metadata.op =
                  { meta.C.Metadata.op with
                    C.Operation.periph_ranges =
                      meta.C.Metadata.op.C.Operation.periph_ranges
                      @ [ wide_range ] };
                C.Metadata.periph_regions =
                  meta.C.Metadata.periph_regions @ [ wide ] } )
          end)
        img.C.Image.metas
    in
    if !corrupted then Some { img with C.Image.metas = metas } else None
  | Corrupt_shadow ->
    (* shadow slots that alias the master copies: reads still see the
       right values (masters are world-readable), but the operation's
       unprivileged writes now target the privileged public section and
       MemManage-fault — the protected run aborts where the baseline
       completes, which the transparency property reports *)
    let corrupted = ref false in
    let metas =
      List.map
        (fun (nm, (meta : C.Metadata.op_meta)) ->
          if is_default meta || meta.C.Metadata.shadow_slots = [] then
            (nm, meta)
          else begin
            let slots =
              List.map
                (fun (var, addr) ->
                  match C.Layout.master_of img.C.Image.layout var with
                  | Some master ->
                    corrupted := true;
                    (var, master)
                  | None -> (var, addr))
                meta.C.Metadata.shadow_slots
            in
            (nm, { meta with C.Metadata.shadow_slots = slots })
          end)
        img.C.Image.metas
    in
    if !corrupted then Some { img with C.Image.metas = metas } else None
