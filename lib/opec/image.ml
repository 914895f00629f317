(* The final program image (paper, Figure 6): instrumented code, read-only
   data and operation metadata in flash; public data, relocation table,
   stack, and operation data sections in SRAM.  Also carries everything
   the monitor needs at runtime and the size accounting the evaluation
   reports. *)

open Opec_ir
module SS = Set.Make (String)

type t = {
  program : Program.t;           (** instrumented program *)
  source : Program.t;            (** the original, for baseline builds *)
  board : Opec_machine.Memmap.board;
  backend : Opec_machine.Backend.kind;  (** enforcement backend the plan targets *)
  input : Dev_input.t;
  ops : Operation.t list;
  layout : Layout.t;
  metas : (string * Metadata.op_meta) list;
  map : Opec_exec.Address_map.t;
  entries : string list;         (** operation entry functions (not main) *)
  code_base : int;
  code_bytes : int;              (** application + monitor code span *)
  flash_used : int;              (** total flash bytes of the image *)
  sram_used : int;               (** total SRAM data bytes (excl. stack) *)
  stats : Instrument.stats;
  callgraph : Opec_analysis.Callgraph.t;
  resources : Opec_analysis.Resource.t;
  points_to : Opec_analysis.Points_to.t;
  syncsets : Opec_analysis.Syncset.t;
  syncset_bytes : int;  (** flash bytes of the embedded sync schedule *)
}

(* Flash footprint of the embedded schedule: every per-operation out and
   enter list plus every explicit (src, dst) resume list, at one header
   per list and one slot reference per variable.  Globals the backend
   grants in place ([direct]) are never copied by a switch, so no list
   references them. *)
let syncset_flash_bytes ~direct (ss : Opec_analysis.Syncset.t) =
  let module An = Opec_analysis.Syncset in
  let direct = An.SS.of_list direct in
  let list_bytes s =
    Config.syncset_header_bytes
    + (An.SS.cardinal (An.SS.diff s direct) * Config.syncset_entry_bytes)
  in
  let per_op =
    List.fold_left
      (fun acc op -> acc + list_bytes (An.out_set ss op) + list_bytes (An.enter_set ss op))
      0 (An.ops ss)
  in
  List.fold_left
    (fun acc (src, dst) -> acc + list_bytes (An.resume_set ss ~src ~dst))
    per_op (An.pairs ss)

let align a n = (n + a - 1) / a * a

let assemble ?(backend = Opec_machine.Backend.Mpu) ~board ~input ~ops ~layout
    ~metas ~stats ~callgraph ~resources ~points_to ~syncsets
    ~(source : Program.t) (instrumented : Program.t) =
  let code_base = Opec_machine.Memmap.flash_base in
  let func_addr, func_of_addr, code_end =
    Opec_exec.Address_map.layout_functions ~code_base instrumented
  in
  (* monitor text follows the application code *)
  let monitor_end = code_end + Config.monitor_code_size in
  (* read-only data in flash *)
  let const_addrs = Hashtbl.create 16 in
  let cursor = ref (align 4 monitor_end) in
  List.iter
    (fun (g : Global.t) ->
      if g.const then begin
        let a = align (Ty.alignment g.ty) !cursor in
        Hashtbl.replace const_addrs g.name a;
        cursor := a + Global.size g
      end)
    instrumented.Program.globals;
  (* operation metadata *)
  let metadata_bytes = Metadata.total_bytes metas in
  (* a relocation-table load is an IR [Load] of the instrumented
     program, already in the code span above *)
  let instrumentation_bytes =
    stats.Instrument.svc_sites * Config.svc_site_bytes
  in
  let syncset_bytes =
    syncset_flash_bytes ~direct:layout.Layout.direct syncsets
  in
  let flash_used =
    !cursor + metadata_bytes + instrumentation_bytes + syncset_bytes
    - code_base
  in
  let global_addr name =
    match Hashtbl.find_opt const_addrs name with
    | Some a -> a
    | None -> (
      match Layout.master_of layout name with
      | Some a -> a
      | None ->
        invalid_arg ("Image.global_addr: " ^ name ^ " has no home"))
  in
  let map =
    { Opec_exec.Address_map.global_addr;
      func_addr;
      func_of_addr;
      stack_top = layout.Layout.stack_top;
      stack_base = layout.Layout.stack_base }
  in
  let entries =
    List.filter_map
      (fun (op : Operation.t) ->
        if String.equal op.Operation.entry instrumented.Program.main then None
        else Some op.Operation.entry)
      ops
  in
  { program = instrumented;
    source;
    board;
    backend;
    input;
    ops;
    layout;
    metas;
    map;
    entries;
    code_base;
    code_bytes = monitor_end - code_base;
    flash_used;
    sram_used = Layout.sram_bytes layout;
    stats;
    callgraph;
    resources;
    points_to;
    syncsets;
    syncset_bytes }

let meta_of t op_name = List.assoc_opt op_name t.metas

let op_of_entry t entry =
  List.find_opt (fun (op : Operation.t) -> String.equal op.Operation.entry entry) t.ops

let default_op t =
  match List.find_opt (fun (op : Operation.t) -> op.Operation.index = 0) t.ops with
  | Some op -> op
  | None -> invalid_arg "Image.default_op"

(* Write initial values into the machine: masters and internal variables
   at their homes, read-only data in flash.  Shadow sections are filled by
   the monitor's initialization (Section 5.1). *)
let load t (bus : Opec_machine.Bus.t) =
  let write_global (g : Global.t) addr =
    let size = Global.size g in
    let rec zero off =
      if off < size then begin
        let w = if size - off >= 4 then 4 else 1 in
        Opec_machine.Bus.write_raw bus (addr + off) w 0L;
        zero (off + w)
      end
    in
    zero 0;
    List.iteri
      (fun i v -> Opec_machine.Bus.write_raw bus (addr + (i * 4)) 4 v)
      g.init
  in
  List.iter
    (fun (g : Global.t) ->
      write_global g (t.map.Opec_exec.Address_map.global_addr g.name))
    t.program.Program.globals;
  (* relocation slots initially point at the master copies *)
  List.iter
    (fun (var, slot) ->
      match Layout.master_of t.layout var with
      | Some master -> Opec_machine.Bus.write_raw bus slot 4 (Int64.of_int master)
      | None -> ())
    t.layout.Layout.reloc_slots

(* --- size accounting (Section 6.3) ------------------------------------- *)

let baseline_flash t =
  Program.code_size t.source
  + List.fold_left
      (fun acc (g : Global.t) -> if g.const then acc + Global.size g else acc)
      0 t.source.Program.globals

let baseline_sram t =
  List.fold_left
    (fun acc (g : Global.t) -> if g.const then acc else acc + Global.size g)
    0 t.source.Program.globals

(* Overheads are expressed as a percentage of the board's flash/SRAM
   capacity, the way the paper computes Figure 9. *)
let flash_used_delta t = t.flash_used - baseline_flash t

let flash_overhead_pct t =
  float_of_int (flash_used_delta t)
  /. float_of_int t.board.Opec_machine.Memmap.flash_size
  *. 100.0

let sram_overhead_pct t =
  float_of_int (t.sram_used - baseline_sram t)
  /. float_of_int t.board.Opec_machine.Memmap.sram_size
  *. 100.0

(* Privileged code bytes: only the monitor text runs privileged; the
   embedded sync schedule is monitor-owned data like the metadata. *)
let privileged_code_bytes t =
  Config.monitor_code_size + Metadata.total_bytes t.metas + t.syncset_bytes

let total_code_bytes t = t.flash_used
