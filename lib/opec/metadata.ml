(* Per-operation metadata (paper, Section 4.4): MPU configurations, stack
   information, sanitization values, the peripheral allow list, and the
   relocation-table entries.  Stored in flash (read-only), except the
   relocation table itself, which the monitor mutates.  The byte counts
   model the flash overhead the metadata causes. *)

module SS = Set.Make (String)
module Mpu = Opec_machine.Mpu

type op_meta = {
  op : Operation.t;
  section : Layout.section option;
  uses_heap : bool;  (** map the heap section read-write for this op *)
  shadow_slots : (string * int) list;   (** external var -> shadow addr *)
  grants : (string * int * int) list;
      (** direct var, master, bytes: a write grant over the master *)
  sanitize : Dev_input.sanitize_rule list;
  stack_info : Dev_input.stack_info option;
  periph_regions : Opec_machine.Mpu.region list;
  bytes : int;
}

let bytes_of ~shadow_count ~periph_region_count ~sanitize_count ~stack_args =
  Config.metadata_fixed_bytes
  + (periph_region_count * Config.metadata_periph_entry_bytes)
  + (sanitize_count * Config.metadata_sanitize_entry_bytes)
  + (stack_args * Config.metadata_stack_arg_entry_bytes)
  + (shadow_count * Config.metadata_reloc_entry_bytes)

(* Cover [lo, hi) with aligned power-of-two regions, greedily taking the
   largest chunk legal at the current base: the reason "one peripheral
   may need two more MPU regions" (Section 5.2). *)
let cover_range (lo, hi) =
  let rec largest_at base remaining k =
    let size = 1 lsl (k + 1) in
    if size <= remaining && base land (size - 1) = 0 && k + 1 <= 30 then
      largest_at base remaining (k + 1)
    else k
  in
  let rec go base acc =
    if base >= hi then List.rev acc
    else
      let remaining = hi - base in
      let k =
        if remaining < 32 then Mpu.min_size_log2
        else largest_at base remaining (Mpu.min_size_log2 - 1)
      in
      let k = max k Mpu.min_size_log2 in
      go (base + (1 lsl k)) ((base, k) :: acc)
  in
  go lo []

(* The MPU regions covering the operation's merged peripheral ranges:
   the plan the MPU and PMP backends install.  A function of the
   operation alone, so the classification can count them before any
   metadata exists. *)
let peripheral_regions (op : Operation.t) =
  List.concat_map cover_range op.Operation.periph_ranges
  |> List.map (fun (base, size_log2) ->
         Mpu.region ~base ~size_log2 ~privileged:Mpu.Read_write
           ~unprivileged:Mpu.Read_write ())

let build ?(cls : Partition.classification option) (layout : Layout.t)
    (input : Dev_input.t) (ops : Operation.t list) =
  List.map
    (fun (op : Operation.t) ->
      let section = Layout.section_of layout op.Operation.name in
      let shadow_slots =
        SS.fold
          (fun v acc ->
            match Layout.shadow_of layout ~op:op.Operation.name ~var:v with
            | Some addr -> (v, addr) :: acc
            | None -> acc)
          (Operation.accessible_globals op)
          []
      in
      (* a word-granular grant over the master of every direct global
         the operation may write *)
      let grants =
        List.filter_map
          (fun (v, writers) ->
            if not (List.mem op.Operation.name writers) then None
            else
              List.find_map
                (fun (s : Layout.slot) ->
                  if String.equal s.Layout.var v then
                    Some (v, s.Layout.addr, Layout.align 4 s.Layout.size)
                  else None)
                layout.Layout.public.Layout.slots)
          (match cls with Some c -> c.Partition.direct | None -> [])
      in
      let sanitize =
        List.filter
          (fun (r : Dev_input.sanitize_rule) ->
            SS.mem r.Dev_input.sz_global (Operation.accessible_globals op))
          input.Dev_input.sanitize
      in
      let stack_info = Dev_input.stack_info_for input op.Operation.entry in
      let periph_regions = peripheral_regions op in
      let stack_args =
        match stack_info with
        | None -> 0
        | Some si -> List.length si.Dev_input.ptr_args
      in
      let bytes =
        bytes_of ~shadow_count:(List.length shadow_slots)
          ~periph_region_count:(List.length periph_regions)
          ~sanitize_count:(List.length sanitize) ~stack_args
      in
      let uses_heap =
        match cls with
        | Some cls -> Partition.op_uses_heap cls op
        | None -> false
      in
      ( op.Operation.name,
        { op; section; uses_heap; shadow_slots; grants; sanitize; stack_info;
          periph_regions; bytes } ))
    ops

(* What an operation's relocation slot for a shared variable holds
   outside the read-only mappings: its shadow, or 0 (NULL) when the
   operation has no access to the variable. *)
let reloc_target meta var =
  match List.assoc_opt var meta.shadow_slots with
  | Some shadow -> shadow
  | None -> 0

let total_bytes metas =
  List.fold_left (fun acc (_, m) -> acc + m.bytes) 0 metas
