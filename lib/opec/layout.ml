(* SRAM layout with global-data shadowing (paper, Section 4.4).

   Each operation gets an exclusive data section holding its internal
   globals plus shadow copies of the external (shared) globals it needs;
   each section is confined by a single MPU region, so its base must be
   aligned to the power-of-two region size.  Master copies of external
   variables live in the public data section, which is only writable at
   the privileged level.  Sections are placed in descending size order to
   limit external fragmentation. *)

open Opec_ir
module SS = Set.Make (String)

type slot = { var : string; addr : int; size : int }

type section = {
  owner : string;         (** operation name, or "public" *)
  base : int;
  used : int;             (** bytes occupied by variables *)
  span : int;             (** bytes the section reserves under the
                              target backend's window encoding: a power
                              of two for MPU and PMP, tighter for
                              capability/key backends *)
  slots : slot list;
}

type t = {
  op_sections : (string * section) list;  (** operation name -> section *)
  public : section;
  heap_section : section option;          (** heap arenas (Section 5.2) *)
  externals : string list;
  direct : string list;  (** shared variables granted in place: no shadow, no slot *)
  reloc_base : int;
  reloc_slots : (string * int) list;      (** external var -> table slot addr *)
  slot_index : (string, int) Hashtbl.t;    (** [reloc_slots] as a table *)
  stack_base : int;
  stack_top : int;
  data_base : int;
  data_limit : int;                        (** end of all OPEC data in SRAM *)
  var_home : (string, int) Hashtbl.t;      (** internal var / master -> addr *)
  shadow_addr : (string, (string * int) list) Hashtbl.t;
      (** external var -> (operation, shadow addr) list *)
}

let align a n = (n + a - 1) / a * a

(* Pack variables into a section at [base]; big and strictly aligned
   variables first to limit internal padding. *)
let pack_section ~owner ~base vars =
  let vars =
    List.sort
      (fun (_, sa) (_, sb) -> compare (sb : int) sa)
      vars
  in
  let cursor = ref base in
  let slots =
    List.map
      (fun (name, size) ->
        let addr = align 4 !cursor in
        cursor := addr + size;
        { var = name; addr; size })
      vars
  in
  let used = !cursor - base in
  let span, _ = Opec_machine.Mpu.region_size_for (max used 32) in
  { owner; base; used; span; slots }

let slot_addr section var =
  match List.find_opt (fun s -> String.equal s.var var) section.slots with
  | Some s -> Some s.addr
  | None -> None

let log2_ceil n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n <= 1 then 0 else go 0

(* The public data section: masters of the shared globals, shadowed or
   granted in place, in declaration order, then the unused writable
   globals.  Which shared globals are granted in place does not move a
   master. *)
let public_section (p : Program.t) (cls : Partition.classification) =
  let shared =
    SS.union
      (SS.of_list cls.Partition.external_)
      (SS.of_list (List.map fst cls.Partition.direct))
  in
  let among set =
    List.filter_map
      (fun (g : Global.t) ->
        if SS.mem g.name set then Some (g.name, Global.size g) else None)
      p.globals
  in
  let public_vars = among shared @ among (SS.of_list cls.Partition.unused) in
  pack_section ~owner:"public" ~base:Opec_machine.Memmap.sram_base public_vars

let build ?(sort_sections = true) ?(backend = Opec_machine.Backend.Mpu)
    (p : Program.t) (ops : Operation.t list)
    (cls : Partition.classification) =
  let desc = Opec_machine.Backend.descriptor backend in
  (* (base alignment, reserved span) of a window under the backend's
     encoding; for the MPU this reproduces [pack_section]'s power-of-two
     rounding bit for bit *)
  let fit bytes = Opec_machine.Backend.region_fit desc bytes in
  let sizes = Hashtbl.create 64 in
  List.iter
    (fun (g : Global.t) -> Hashtbl.replace sizes g.name (Global.size g))
    p.globals;
  let size_of v = Hashtbl.find sizes v in
  let external_set = SS.of_list cls.Partition.external_ in
  let var_home = Hashtbl.create 64 in
  let shadow_addr = Hashtbl.create 64 in
  (* 1. public data section *)
  let public = public_section p cls in
  List.iter (fun s -> Hashtbl.replace var_home s.var s.addr) public.slots;
  let cursor = ref (public.base + public.used) in
  (* 2. variables relocation table: one word per shadowed variable *)
  let reloc_base = align 4 !cursor in
  let reloc_slots =
    List.mapi (fun i v -> (v, reloc_base + (i * 4))) cls.Partition.external_
  in
  let slot_index = Hashtbl.create 64 in
  List.iter (fun (v, a) -> Hashtbl.replace slot_index v a) reloc_slots;
  cursor := reloc_base + (4 * List.length cls.Partition.external_);
  (* 3. application stack: one MPU region with 8 sub-regions *)
  let stack_base = align Config.stack_size !cursor in
  let stack_top = stack_base + Config.stack_size in
  cursor := stack_top;
  (* 3b. heap section: arenas live outside the operation data sections and
     are never copied at switches (Section 5.2) *)
  let heap_section =
    match cls.Partition.heap with
    | [] -> None
    | arenas ->
      let vars = List.map (fun v -> (v, size_of v)) arenas in
      let bytes = List.fold_left (fun a (_, sz) -> a + align 4 sz) 0 vars in
      let alignment, _ = fit bytes in
      let base = align alignment !cursor in
      let sec = pack_section ~owner:"heap" ~base vars in
      (* the window must still cover the packed size *)
      let _, span = fit (max bytes sec.used) in
      let sec = { sec with span } in
      cursor := base + span;
      List.iter (fun sl -> Hashtbl.replace var_home sl.var sl.addr) sec.slots;
      Some sec
  in
  (* 4. operation data sections, sorted by size in descending order *)
  let contents op =
    let internal =
      List.filter_map
        (fun (v, owner) ->
          if String.equal owner.Operation.name op.Operation.name then
            Some (v, size_of v)
          else None)
        cls.Partition.internal
    in
    let shadows =
      SS.fold
        (fun v acc ->
          if SS.mem v external_set then (v, size_of v) :: acc else acc)
        (Operation.accessible_globals op)
        []
    in
    internal @ shadows
  in
  let measured =
    List.map
      (fun op ->
        let vars = contents op in
        let bytes = List.fold_left (fun a (_, s) -> a + align 4 s) 0 vars in
        (op, vars, bytes))
      ops
  in
  let measured =
    (* descending size order limits external fragmentation (Section 4.4);
       declaration order is kept as an ablation knob *)
    if sort_sections then
      List.sort (fun (_, _, a) (_, _, b) -> compare b a) measured
    else measured
  in
  let op_sections =
    List.map
      (fun (op, vars, bytes) ->
        let alignment, _ = fit bytes in
        let base = align alignment !cursor in
        let section = pack_section ~owner:op.Operation.name ~base vars in
        (* the window must still cover the packed size *)
        let _, span = fit (max bytes section.used) in
        let section = { section with span } in
        cursor := base + span;
        List.iter
          (fun s ->
            if SS.mem s.var external_set then
              Hashtbl.replace shadow_addr s.var
                ((op.Operation.name, s.addr)
                :: Option.value
                     (Hashtbl.find_opt shadow_addr s.var)
                     ~default:[])
            else Hashtbl.replace var_home s.var s.addr)
          section.slots;
        (op.Operation.name, section))
      measured
  in
  { op_sections;
    public;
    heap_section;
    externals = cls.Partition.external_;
    direct = List.map fst cls.Partition.direct;
    reloc_base;
    reloc_slots;
    slot_index;
    stack_base;
    stack_top;
    data_base = Opec_machine.Memmap.sram_base;
    data_limit = !cursor;
    var_home;
    shadow_addr }

let section_of t op_name = List.assoc_opt op_name t.op_sections

let reloc_slot t var = Hashtbl.find_opt t.slot_index var

let shadow_of t ~op ~var =
  match Hashtbl.find_opt t.shadow_addr var with
  | None -> None
  | Some l -> List.assoc_opt op l

let master_of t var = Hashtbl.find_opt t.var_home var

let is_external t var = Hashtbl.mem t.slot_index var

(* SRAM bytes consumed by OPEC's data plan, including the MPU-alignment
   fragments inside and between operation data sections. *)
let sram_bytes t = t.data_limit - t.data_base
