(* Backend-parameterized protection plans: the one module that knows how
   an operation's policy — code, accessible stack prefix, data section,
   heap, permitted peripherals — becomes protection state on each
   enforcement backend:

   - MPU (paper, Section 5.2): a fixed 8-region plan; peripheral regions
     beyond the reserved slots overflow into runtime virtualization;
   - PMP (Section 7): 16 lowest-match-wins entries, a TOR stack prefix
     instead of sub-region masking, the same overflow rule;
   - CHERI: a per-operation capability table — one precise grant per
     object, no budget, nothing to virtualize;
   - POE: per-window permission-overlay keys — every window resident,
     peripheral windows beyond the free keys left keyless for the
     monitor to recycle keys onto at fault time.

   The background read-only view (code + SRAM readable, nothing writable
   at the unprivileged level) is part of OPEC's design — relocation
   entries may point straight at public-section masters — so every
   backend grants it: MPU region 0, the PMP's last entry, a CHERI
   default data capability, the POE background overlay on key 0. *)

module M = Opec_machine
module Mpu = M.Mpu
module Pmp = M.Pmp

(* The stack prefix [stack_base, limit) the MPU expresses as a
   sub-region disable mask: [srd] disables every 1/8th strictly above
   the live frame, so the limit is the base of the lowest disabled
   sub-region. *)
let stack_limit_of_srd ~stack_base ~stack_top srd =
  if srd = 0 then stack_top
  else
    let rec first_disabled i =
      if i > 7 then 8 else if srd land (1 lsl i) <> 0 then i else first_disabled (i + 1)
    in
    stack_base + (first_disabled 0 * Config.stack_subregion_size)

(* --- MPU regions ---------------------------------------------------------- *)

(* Fixed plan per operation: region 0 the background (peripheral space
   is deliberately outside it, so unlisted peripherals fault), 1 the
   code, 2 the stack with sub-regions disabled dynamically by the
   monitor, 3 the operation's data section, 4..7 the heap section (for
   heap-using operations) and the merged peripheral ranges. *)

let background_region =
  Mpu.region ~base:0x0 ~size_log2:30 ~privileged:Mpu.Read_write
    ~unprivileged:Mpu.Read_only ()

let code_region ~code_base ~code_bytes =
  let _, log2 = Mpu.region_size_for code_bytes in
  (* align the base down to the region size; flash base is 2^27-aligned *)
  let base = code_base land lnot ((1 lsl log2) - 1) in
  Mpu.region ~executable:true ~base ~size_log2:log2 ~privileged:Mpu.Read_write
    ~unprivileged:Mpu.Read_only ()

let stack_region ~stack_base ~srd =
  let _, log2 = Mpu.region_size_for Config.stack_size in
  Mpu.region ~srd ~base:stack_base ~size_log2:log2 ~privileged:Mpu.Read_write
    ~unprivileged:Mpu.Read_write ()

(* A data or heap section, read-write over its whole span. *)
let section_region (s : Layout.section) =
  Mpu.region ~base:s.Layout.base ~size_log2:(Layout.log2_ceil s.Layout.span)
    ~privileged:Mpu.Read_write ~unprivileged:Mpu.Read_write ()

let mpu_fixed_regions ~(image : Image.t) ~(meta : Metadata.op_meta) ~srd =
  [ ( Config.region_code, "code",
      fun () ->
        code_region ~code_base:image.Image.code_base
          ~code_bytes:image.Image.code_bytes );
    ( Config.region_stack, "stack",
      fun () ->
        stack_region ~stack_base:image.Image.layout.Layout.stack_base ~srd ) ]
  @
  match meta.Metadata.section with
  | None -> []
  | Some s -> [ (Config.region_opdata, "opdata", fun () -> section_region s) ]

(* --- PMP entries ---------------------------------------------------------- *)

(* The PMP picks the LOWEST-numbered matching entry, the opposite of the
   MPU's highest-wins rule, so the plan is reversed: stack prefix (TOR),
   data section, heap, code, peripherals, with the top two entries
   reserved (spare + the read-only background, lowest priority). *)

let pmp_rw ~base ~size_log2 =
  Pmp.napot ~base ~size_log2 ~r:true ~w:true ~x:false ()

let pmp_section (s : Layout.section) =
  pmp_rw ~base:s.Layout.base ~size_log2:(Layout.log2_ceil s.Layout.span)

let pmp_window (r : Mpu.region) =
  pmp_rw ~base:r.Mpu.base ~size_log2:r.Mpu.size_log2

(* --- POE keys ------------------------------------------------------------- *)

(* Fixed key plan mirroring the MPU's region numbering: key 0 the
   read-only background, 1 executable code, 2 the stack prefix, 3 the
   operation data section, 4..7 heap + peripheral windows. *)
let poe_key_background = 0
let poe_key_code = 1
let poe_key_stack = 2
let poe_key_opdata = 3
let poe_key_first_free = 4

(* --- the rotation window -------------------------------------------------- *)

type rotation = { first : int; slots : int; needed : int }

(* The first PMP peripheral window follows the stack, data section,
   heap and code entries. *)
let pmp_first ~section ~heap = 1 + section + heap + 1

(* The entries an operation's plan leaves free for direct grants: on the
   PMP every entry but the stack, data section (every operation has
   one), heap, code, each peripheral window, the spare and the
   background; none on the MPU and POE; no budget on CHERI. *)
let free_entries kind ~uses_heap (op : Operation.t) =
  match kind with
  | M.Backend.Cheri -> None
  | M.Backend.Pmp ->
    let first = pmp_first ~section:1 ~heap:(Bool.to_int uses_heap) in
    Some
      (max 0
         (Pmp.entry_count - 2 - first
         - List.length (Metadata.peripheral_regions op)))
  | M.Backend.Mpu | M.Backend.Poe -> Some 0

let rotation kind (meta : Metadata.op_meta) =
  let heap = if meta.Metadata.uses_heap then 1 else 0 in
  let regions = List.length meta.Metadata.periph_regions in
  match kind with
  | M.Backend.Mpu ->
    (* the heap claims the first reserved slot *)
    let first = Config.peripheral_region_first + heap in
    let last = Config.peripheral_region_first + Config.peripheral_region_count in
    Some { first; slots = last - first; needed = regions }
  | M.Backend.Pmp ->
    let section = if meta.Metadata.section <> None then 1 else 0 in
    let first = pmp_first ~section ~heap in
    Some
      { first; slots = min (Pmp.entry_count - 2 - first) regions;
        needed = regions }
  | M.Backend.Poe ->
    (* one overlay per merged range; the heap claims the first free key *)
    let first = poe_key_first_free + heap in
    Some
      { first; slots = M.Poe.key_count - first;
        needed = List.length meta.Metadata.op.Operation.periph_ranges }
  | M.Backend.Cheri -> None

(* The first [rot.slots] peripheral windows go into consecutive slots
   from [rot.first], as (slot, window) pairs; the rest overflow into
   fault-time rotation. *)
let place rot windows =
  let rec go slot placed = function
    | w :: rest when slot < rot.first + rot.slots ->
      go (slot + 1) ((slot, w) :: placed) rest
    | rest -> (List.rev placed, rest)
  in
  go rot.first [] windows

(* --- CHERI ---------------------------------------------------------------- *)

(* The operation's capability table.  Bounds are byte-granular; only
   bounds precision (representability) can widen a grant, via
   {!M.Cheri.round_bounds}. *)
let cheri_caps ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
    (section : Layout.section option) (meta : Metadata.op_meta) =
  let op = meta.Metadata.op in
  let rounded ?(r = true) ?(w = false) ?(x = false) ~base ~len () =
    let base, len = M.Cheri.round_bounds ~base ~len in
    M.Cheri.cap ~r ~w ~x ~base ~len ()
  in
  let window (s : Layout.section) =
    rounded ~w:true ~base:s.Layout.base ~len:s.Layout.span ()
  in
  let background = rounded ~base:0x0 ~len:(1 lsl 30) () in
  let code = rounded ~x:true ~base:code_base ~len:code_bytes () in
  let stack =
    rounded ~w:true ~base:stack_base ~len:(max 1 (stack_limit - stack_base)) ()
  in
  let periphs =
    List.map
      (fun (base, limit) -> rounded ~w:true ~base ~len:(limit - base) ())
      op.Operation.periph_ranges
  in
  (* a direct grant is exact by classification: no rounding *)
  let grants =
    List.map
      (fun (_, base, len) -> M.Cheri.cap ~w:true ~base ~len ())
      meta.Metadata.grants
  in
  (background :: code :: stack :: Option.to_list (Option.map window section))
  @ Option.to_list (Option.map window heap)
  @ periphs @ grants

(* --- install -------------------------------------------------------------- *)

let round_down g n = n / g * g
let round_up g n = (n + g - 1) / g * g

let poe_window ~base ~limit =
  (round_down M.Poe.granule base, round_up M.Poe.granule limit)

(* Operation [meta]'s plan under stack sub-region mask [srd] as a
   protection state of backend [kind], and the planned peripheral
   windows that are not resident (MPU / PMP overflow, rotated in by the
   monitor); CHERI and POE plans are always fully resident ([] — POE's
   keyless windows are resident, only their keys are lazily assigned).
   Each piece is built in plan order, so a malformed layout raises the
   same error whichever piece comes first. *)
let install kind ~(image : Image.t) ~(meta : Metadata.op_meta) ~srd =
  let layout = image.Image.layout in
  let code_base = image.Image.code_base in
  let code_bytes = image.Image.code_bytes in
  let heap =
    if meta.Metadata.uses_heap then layout.Layout.heap_section else None
  in
  let section = meta.Metadata.section in
  let stack_base = layout.Layout.stack_base in
  let stack_limit =
    stack_limit_of_srd ~stack_base ~stack_top:layout.Layout.stack_top srd
  in
  let rot () = Option.get (rotation kind meta) in
  let state regs = M.Backend.make ~on:true regs in
  match kind with
  | M.Backend.Mpu ->
    let fixed =
      List.map
        (fun (slot, _, region) -> (slot, region ()))
        (mpu_fixed_regions ~image ~meta ~srd)
    in
    let heap =
      Option.to_list
        (Option.map
           (fun hs -> (Config.peripheral_region_first, section_region hs))
           heap)
    in
    let placed, overflow = place (rot ()) meta.Metadata.periph_regions in
    ( state
        (M.Backend.Mpu_regs
           (Mpu.make
              (((Config.region_background, background_region) :: fixed)
              @ heap @ placed))),
      overflow )
  | M.Backend.Pmp ->
    (* the code window is written before the peripherals so a
       peripheral-heavy operation can never crowd it out of the table *)
    let _, code_log2 = Mpu.region_size_for code_bytes in
    let fixed =
      (Pmp.tor ~base:stack_base ~limit:stack_limit ~r:true ~w:true ~x:false ()
      :: Option.to_list (Option.map pmp_section section))
      @ Option.to_list (Option.map pmp_section heap)
      @ [ Pmp.napot ~base:(code_base land lnot ((1 lsl code_log2) - 1))
            ~size_log2:code_log2 ~r:true ~w:false ~x:true () ]
    in
    let rot = rot () in
    let placed, overflow = place rot meta.Metadata.periph_regions in
    let placed = List.map (fun (slot, r) -> (slot, pmp_window r)) placed in
    (* direct grants after the peripheral windows, one TOR entry each;
       the classification left each writer a free entry per grant *)
    let grants =
      List.mapi
        (fun i (var, base, len) ->
          let slot = rot.first + rot.slots + i in
          if slot >= Pmp.entry_count - 2 then
            invalid_arg ("Backend_plan: no free PMP entry to grant " ^ var);
          (slot, Pmp.tor ~base ~limit:(base + len) ~r:true ~w:true ~x:false ()))
        meta.Metadata.grants
    in
    let background =
      Pmp.napot ~base:0x0 ~size_log2:30 ~r:true ~w:false ~x:false ()
    in
    ( state
        (M.Backend.Pmp_regs
           (Pmp.make
              (List.mapi (fun i e -> (i, e)) fixed
              @ placed @ grants
              @ [ (Pmp.entry_count - 1, background) ]))),
      overflow )
  | M.Backend.Cheri ->
    ( state
        (M.Backend.Cheri_regs
           (M.Cheri.make
              (cheri_caps ~code_base ~code_bytes ~stack_base ~stack_limit ?heap
                 section meta))),
      [] )
  | M.Backend.Poe ->
    (* the stack, data section, heap and peripheral keys are read-write *)
    let keys =
      (poe_key_background, M.Poe.Read_only, false)
      :: (poe_key_code, M.Poe.Read_only, true)
      :: List.init (M.Poe.key_count - poe_key_stack) (fun i ->
             (poe_key_stack + i, M.Poe.Read_write, false))
    in
    let window key (base, limit) =
      let base, limit = poe_window ~base ~limit in
      M.Poe.overlay ~key ~base ~limit ()
    in
    let span key (s : Layout.section) =
      window key (s.Layout.base, s.Layout.base + s.Layout.span)
    in
    (* specific windows first (first match wins), background last *)
    let stack =
      if stack_limit > stack_base then
        [ window poe_key_stack (stack_base, stack_limit) ]
      else []
    in
    let section = Option.to_list (Option.map (span poe_key_opdata) section) in
    let heap = Option.to_list (Option.map (span poe_key_first_free) heap) in
    let placed, keyless =
      place (rot ()) meta.Metadata.op.Operation.periph_ranges
    in
    let placed = List.map (fun (key, r) -> window key r) placed in
    let keyless = List.map (window M.Poe.no_key) keyless in
    let code = window poe_key_code (code_base, code_base + code_bytes) in
    let background =
      M.Poe.overlay ~key:poe_key_background ~base:0x0 ~limit:(1 lsl 30) ()
    in
    ( state
        (M.Backend.Poe_regs
           (M.Poe.make ~keys
              (stack @ section @ heap @ placed @ keyless @ [ code; background ]))),
      [] )
