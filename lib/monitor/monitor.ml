(* OPEC-Monitor: the privileged reference monitor (paper, Section 5).

   Linked against the image, it performs:
   - initialization: fill shadow sections, arm the MPU, drop privilege
     (Section 5.1);
   - operation switch: sanitize + synchronize shared globals through the
     public section, fix up shadow pointer fields, relocate pointer-type
     entry arguments onto the new operation's stack sub-regions, and
     reconfigure the MPU (Sections 5.2, 5.3);
   - MPU virtualization: rotate the four reserved peripheral regions
     round-robin from the memory-management fault handler;
   - core-peripheral emulation: perform permitted PPB loads/stores from
     the bus-fault handler so application code never runs privileged.

   The compiler emits per-operation metadata so that the monitor only has
   to look things up at a switch (Section 5.2).  [create] carries that
   through: operations and shared variables are interned to dense
   indices, and every per-switch structure — the copy plans of the static
   sync schedule, the relocation-table writes, the sanitization checks,
   the pointer-translation ranges — becomes an array indexed by
   operation.  A switch only indexes them, and a protection install
   stores the state the first real install of the same (operation,
   sub-region mask) built. *)

open Opec_ir
module M = Opec_machine
module C = Opec_core
module Obs = Opec_obs
module Ss = Opec_analysis.Syncset

type frame = {
  op : C.Operation.t;
  oi : int;                         (** [op]'s index, see {!t} *)
  meta : C.Metadata.op_meta;
  srd : int;                        (** sub-region disable mask while active *)
  saved_sp : int;                   (** caller sp to restore bookkeeping *)
  relocated : (int * int * int) list; (** (orig, copy, bytes) to copy back *)
  mutable virt_next : int;          (** round-robin cursor for regions 4..7 *)
}

(* One scheduled copy: the variable's index, its shadow address in the
   operation's data section, its master address, its size, and the
   offsets of its pointer fields.  [sl_forced] marks a variable whose
   address escaped into a peripheral window: a device can rewrite its
   master at any time, so the incremental-copy bookkeeping below never
   applies to it; the sync ablations force every slot.  [sl_sram] marks
   a slot whose shadow and master both lie in SRAM: its words move
   through the bus's unboxed primitives. *)
type sync_slot = {
  sl_var : int;
  sl_shadow : int;
  sl_master : int;
  sl_size : int;
  sl_forced : bool;
  sl_sram : bool;
  sl_ptrs : int list;
}

(* The monitor's span recorder, allocated once at [create].  Whether a
   span is recorded is decided at its start, from the sink, and passed
   to each bracket as a flag, so the disabled path costs one test of a
   local per bracket; the legs go into fixed [int] arrays and become the
   event's [sp_phases] list only at emit.  Spans never nest: each is one
   monitor call, and the guest runs between them.  Phase byte counts
   are [synced_bytes] deltas, so summing them over every emitted leg
   reconciles exactly with the aggregate counter. *)
type recorder = {
  mutable span_start : int;
  mutable legs : int;                 (* legs recorded so far *)
  mutable bytes0 : int;               (* [synced_bytes] at the open leg's start *)
  leg_phase : Obs.Sink.phase array;
  leg_start : int array;
  leg_end : int array;
  leg_bytes : int array;
}

(* An exit span has the most legs: sanitize, sync, relocate, then the
   resumed operation's sync and MPU configuration. *)
let max_legs = 5

let recorder () =
  { span_start = 0; legs = 0; bytes0 = 0;
    leg_phase = Array.make max_legs Obs.Sink.Sync;
    leg_start = Array.make max_legs 0; leg_end = Array.make max_legs 0;
    leg_bytes = Array.make max_legs 0 }

type sync = Scheduled | Every_slot | Whole_section

(* The relocation-table writes, by slot address and target.  An
   operation's live slots are the slots a table site of one of its
   functions reads ([Instrument.table_loads]); a table site in a
   function of no operation reads its slot under every operation.  A
   slot whose every live operation wants one target never changes:
   [init] writes it once, or never when that target is the master
   [Image.load] put there.  Each other live slot is written whenever an
   operation where it is live becomes current.  A slot live nowhere is
   never written, and a dead slot keeps a stale address: the protection
   plan, not the table, denies the access. *)
type reloc_plan = {
  once : (int * int64) array;
  on_switch : (int * int64) array array;
  live : (int * int64) array array;
}

(* An operation is indexed by its position in the image's operation
   list, a shared variable by the order [create] first met it.  Tables
   over (operation, variable) pairs are flat, at [op * nvars + var]. *)
type t = {
  image : C.Image.t;
  bus : M.Bus.t;
  stats : Stats.t;
  ops : C.Operation.t array;
  metas : C.Metadata.op_meta array;
  nvars : int;
  (* the per-switch copy plans: the image's static sync schedule, or
     under either ablation every shadow slot, forced *)
  all_plan : sync_slot array array;     (* op -> every shadow slot *)
  out_plan : sync_slot array array;
  enter_plan : sync_slot array array;
  resume_plan : sync_slot array array;  (* src * nops + dst *)
  stage_plan : (int * int * bool) array array;
      (* whole-section ablation only: op -> (addr, size, in SRAM) of each
         section slot that is not a shadow; it copies in place, costing
         the same bus traffic *)
  sanitize_plan : (int * C.Dev_input.sanitize_rule) array array;
      (* op -> (shadow address, rule), in check order *)
  reloc : reloc_plan;
  ro : bool array;
      (* read-only master mappings: the (op, var) slots the schedule
         proved write-free.  Their relocation entries point straight at
         the master (the MPU background region grants unprivileged reads
         of the public section), so their shadows are never filled or
         synced.  None under the ablations. *)
  shadow_ranges : (int * int * int * int) array;
      (* (owner op or -1, var, base, size) of every shadow *)
  master_ranges : (int * int * int) array;
      (* (var, base, size) of the public-section masters: a pointer field
         can hold a master address after a sync through an operation
         without access to the target, and must localize again on the
         next switch *)
  local_base : int array;
      (* (op, var) -> where the operation reaches the variable: the
         master for a read-only mapping, else its shadow if it has one,
         else the master *)
  epoch : int array;
  pulled : int array;
      (* incremental synchronization: [epoch] counts, per variable, the
         sync-outs that actually changed its master; [pulled] records, per
         (op, var), the epoch at which that shadow last matched the
         master.  A sync-in copy is skipped when the two agree — the
         master cannot have changed since the shadow was filled (or
         published), so the copy would move identical bytes. *)
  states : M.Backend.state option array;
      (* protection states at [op * 256 + srd], each built by the first
         install of its pair on the image's backend *)
  mutable frames : frame list;      (** head = current operation *)
  sink : Obs.Sink.t;
      (** telemetry sink; {!Obs.Sink.null} unless a collector is attached *)
  recorder : recorder;  (** the open span's legs *)
}

exception Violation of string

let stats t = t.stats
let reloc_plan t = t.reloc
let sink t = t.sink

let now t = t.bus.M.Bus.cpu.M.Cpu.cycles

let current_op_name t =
  match t.frames with
  | f :: _ -> f.op.C.Operation.name
  | [] -> ""

(* Count a denial and leave its telemetry event; returns the message so
   fault handlers can do [Abort (deny t ~info msg)]. *)
let deny t ?info msg =
  t.stats.Stats.denied <- t.stats.Stats.denied + 1;
  if t.sink.Obs.Sink.active then
    t.sink.Obs.Sink.emit
      (Obs.Sink.Denial
         { dn_op = current_op_name t; dn_reason = msg; dn_info = info;
           dn_at = now t });
  msg

let abort t ?info msg = raise (Violation (deny t ?info msg))

let current t =
  match t.frames with
  | f :: _ -> f
  | [] -> invalid_arg "Monitor: no active operation"

(* --- phase bracketing ---------------------------------------------------- *)

let span_begin t =
  let on = t.sink.Obs.Sink.active in
  if on then begin
    let r = t.recorder in
    r.span_start <- now t;
    r.legs <- 0
  end;
  on

let ph_begin t on ph =
  if on then begin
    let r = t.recorder in
    r.leg_phase.(r.legs) <- ph;
    r.leg_start.(r.legs) <- now t;
    r.bytes0 <- t.stats.Stats.synced_bytes
  end

let ph_end t on =
  if on then begin
    let r = t.recorder in
    r.leg_end.(r.legs) <- now t;
    r.leg_bytes.(r.legs) <- t.stats.Stats.synced_bytes - r.bytes0;
    r.legs <- r.legs + 1
  end

(* Legs [0..i] as samples, in protocol order, consed from the last. *)
let rec samples r i acc =
  if i < 0 then acc
  else
    samples r (i - 1)
      ({ Obs.Sink.ph = r.leg_phase.(i); ph_start = r.leg_start.(i);
         ph_end = r.leg_end.(i); ph_bytes = r.leg_bytes.(i) }
      :: acc)

let emit_span t on kind ~src ~dst =
  if on then begin
    let r = t.recorder in
    t.sink.Obs.Sink.emit
      (Obs.Sink.Switch
         { sp_kind = kind; sp_src = src; sp_dst = dst;
           sp_start = r.span_start; sp_end = now t;
           sp_phases = samples r (r.legs - 1) [] })
  end

(* --- construction ------------------------------------------------------- *)

(* Every relocation the compiler resolved to a constant must be the
   value the table would hold at that site in every monitor mode:
   recomputed from the image's operations, metadata and schedule. *)
let check_resolved (image : C.Image.t) =
  match image.C.Image.stats.C.Instrument.resolved with
  | [] -> ()
  | sites ->
    let resolve =
      C.Instrument.resolver ~layout:image.C.Image.layout ~ops:image.C.Image.ops
        ~metas:image.C.Image.metas ~syncsets:image.C.Image.syncsets
    in
    List.iter
      (fun (s : C.Instrument.site) ->
        let refuse why =
          raise
            (Violation
               (Fmt.str "relocation of %s in %s resolved to 0x%08X, but %s"
                  s.C.Instrument.var s.C.Instrument.fn s.C.Instrument.addr why))
        in
        match resolve s.C.Instrument.fn s.C.Instrument.var with
        | C.Instrument.Resolved addr when addr = s.C.Instrument.addr -> ()
        | C.Instrument.Resolved addr ->
          refuse (Fmt.str "the operation's target is 0x%08X" addr)
        | C.Instrument.Not_external -> refuse "it has no relocation slot"
        | C.Instrument.Owners n ->
          refuse
            (Fmt.str "the function belongs to %d operations, not one" n)
        | C.Instrument.Read_only op ->
          refuse
            (Fmt.str
               "it is mapped read-only in %s, where the slot's target \
                depends on the monitor mode"
               op))
      sites

(* The slot targets: the shadow; under the static schedule the master
   for a read-only mapping (reads are unprivileged-legal through the MPU
   background region and a write faults, which is exactly the proof
   obligation); or NULL when the operation has no access. *)
let reloc_plan_of ?(sync = Scheduled) (image : C.Image.t) =
  let layout = image.C.Image.layout and ss = image.C.Image.syncsets in
  let ops = Array.of_list image.C.Image.ops in
  let nops = Array.length ops in
  let slots = Array.of_list layout.C.Layout.reloc_slots in
  let nslots = Array.length slots in
  let slot_index = Hashtbl.create (max 1 nslots) in
  Array.iteri (fun s (_, addr) -> Hashtbl.replace slot_index addr s) slots;
  let live = Array.make_matrix nops nslots false in
  List.iter
    (fun (f : Func.t) ->
      match C.Instrument.table_loads f with
      | [] -> ()
      | loads ->
        let owners =
          List.filter
            (fun oi -> C.Operation.SS.mem f.Func.name ops.(oi).C.Operation.funcs)
            (List.init nops Fun.id)
        in
        let owners = if owners = [] then List.init nops Fun.id else owners in
        List.iter
          (fun (_, addr) ->
            match Hashtbl.find_opt slot_index addr with
            | Some s -> List.iter (fun oi -> live.(oi).(s) <- true) owners
            | None -> ())
          loads)
    image.C.Image.program.Program.funcs;
  let master s =
    let var, _ = slots.(s) in
    match C.Layout.master_of layout var with
    | Some a -> Int64.of_int a
    | None -> invalid_arg ("Monitor: no master for " ^ var)
  in
  let ro =
    Array.map
      (fun (op : C.Operation.t) ->
        if sync = Scheduled then Ss.ro_set ss op.C.Operation.name
        else Ss.SS.empty)
      ops
  in
  let target oi s =
    let var, _ = slots.(s) and name = ops.(oi).C.Operation.name in
    if Ss.SS.mem var ro.(oi) then master s
    else
      match C.Image.meta_of image name with
      | Some meta -> Int64.of_int (C.Metadata.reloc_target meta var)
      | None -> invalid_arg ("Monitor: no metadata for operation " ^ name)
  in
  let once = ref [] and on_switch = Array.make nops [] in
  for s = nslots - 1 downto 0 do
    let slot = snd slots.(s) in
    match List.filter (fun oi -> live.(oi).(s)) (List.init nops Fun.id) with
    | [] -> ()
    | oi0 :: rest as readers ->
      let t0 = target oi0 s in
      if List.for_all (fun oi -> Int64.equal (target oi s) t0) rest then begin
        (* [Image.load] already points every slot at its master *)
        if not (Int64.equal t0 (master s)) then once := (slot, t0) :: !once
      end
      else
        List.iter
          (fun oi -> on_switch.(oi) <- (slot, target oi s) :: on_switch.(oi))
          readers
  done;
  { once = Array.of_list !once;
    on_switch = Array.map Array.of_list on_switch;
    live =
      Array.init nops (fun oi ->
          Array.of_list
            (List.filter_map
               (fun s ->
                 if live.(oi).(s) then Some (snd slots.(s), target oi s)
                 else None)
               (List.init nslots Fun.id))) }

let create ?(sync = Scheduled) ?(sink = Obs.Sink.null) (image : C.Image.t)
    (bus : M.Bus.t) =
  check_resolved image;
  let layout = image.C.Image.layout in
  let ss = image.C.Image.syncsets in
  let full = sync <> Scheduled in
  let ops = Array.of_list image.C.Image.ops in
  let nops = Array.length ops in
  let op_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (op : C.Operation.t) ->
      if not (Hashtbl.mem op_index op.C.Operation.name) then
        Hashtbl.add op_index op.C.Operation.name i)
    ops;
  let metas =
    Array.map
      (fun (op : C.Operation.t) ->
        match C.Image.meta_of image op.C.Operation.name with
        | Some m -> m
        | None ->
          invalid_arg
            ("Monitor: no metadata for operation " ^ op.C.Operation.name))
      ops
  in
  let var_size = Hashtbl.create 64 in
  let ptr_offsets = Hashtbl.create 64 in
  List.iter
    (fun (g : Global.t) ->
      Hashtbl.replace var_size g.name (Global.size g);
      match Global.pointer_field_offsets g with
      | [] -> ()
      | offs -> Hashtbl.replace ptr_offsets g.name offs)
    image.C.Image.source.Program.globals;
  let master_addr var =
    match C.Layout.master_of layout var with
    | Some a -> a
    | None -> invalid_arg ("Monitor: no master for " ^ var)
  in
  let var_index = Hashtbl.create 64 in
  let intern var =
    match Hashtbl.find_opt var_index var with
    | Some v -> v
    | None ->
      let v = Hashtbl.length var_index in
      Hashtbl.add var_index var v;
      v
  in
  let shadow_ranges =
    Hashtbl.fold
      (fun var homes acc ->
        List.fold_left
          (fun acc (op, base) ->
            ( Option.value (Hashtbl.find_opt op_index op) ~default:(-1),
              intern var, base, Hashtbl.find var_size var )
            :: acc)
          acc homes)
      layout.C.Layout.shadow_addr []
    |> Array.of_list
  in
  let master_ranges =
    List.map
      (fun (s : C.Layout.slot) ->
        (intern s.C.Layout.var, s.C.Layout.addr, s.C.Layout.size))
      layout.C.Layout.public.C.Layout.slots
    |> Array.of_list
  in
  let escaped = Ss.escaped ss in
  let plan_of (meta : C.Metadata.op_meta) keep =
    List.filter_map
      (fun (var, shadow) ->
        if keep var then begin
          let master = master_addr var and size = Hashtbl.find var_size var in
          Some
            { sl_var = intern var; sl_shadow = shadow; sl_master = master;
              sl_size = size; sl_forced = Ss.SS.mem var escaped;
              sl_sram =
                M.Bus.in_sram bus shadow size && M.Bus.in_sram bus master size;
              sl_ptrs =
                Option.value (Hashtbl.find_opt ptr_offsets var) ~default:[] }
        end
        else None)
      meta.C.Metadata.shadow_slots
    |> Array.of_list
  in
  (* an operation's schedule set is only read when it has shadow slots *)
  let scheduled set_of i meta =
    let set = lazy (set_of ss ops.(i).C.Operation.name) in
    plan_of meta (fun var -> Ss.SS.mem var (Lazy.force set))
  in
  let all_plan = Array.map (fun meta -> plan_of meta (fun _ -> true)) metas in
  (* the ablations bypass the schedule: every switch copies every slot *)
  let forced =
    Array.map (Array.map (fun sl -> { sl with sl_forced = true })) all_plan
  in
  let out_plan =
    if full then forced else Array.mapi (scheduled Ss.out_set) metas
  in
  let enter_plan =
    if full then forced else Array.mapi (scheduled Ss.enter_set) metas
  in
  (* a (src, dst) pair without a resume set of its own resumes like an
     enter *)
  let resume_plan =
    Array.init (nops * nops) (fun k -> enter_plan.(k mod nops))
  in
  if not full then
    List.iter
      (fun (src, dst) ->
        match (Hashtbl.find_opt op_index src, Hashtbl.find_opt op_index dst) with
        | Some s, Some d ->
          let set = Ss.resume_set ss ~src ~dst in
          resume_plan.((s * nops) + d) <-
            plan_of metas.(d) (fun var -> Ss.SS.mem var set)
        | _ -> ())
      (Ss.pairs ss);
  let ro_sets =
    Array.map
      (fun (op : C.Operation.t) ->
        if full then Ss.SS.empty else Ss.ro_set ss op.C.Operation.name)
      ops
  in
  let nvars = Hashtbl.length var_index in
  let ro = Array.make (nops * nvars) false in
  let local_base = Array.make (nops * nvars) 0 in
  Hashtbl.iter
    (fun var v ->
      Array.iteri
        (fun i (op : C.Operation.t) ->
          let k = (i * nvars) + v in
          ro.(k) <- Ss.SS.mem var ro_sets.(i);
          local_base.(k) <-
            (if ro.(k) then master_addr var
             else
               match
                 C.Layout.shadow_of layout ~op:op.C.Operation.name ~var
               with
               | Some shadow -> shadow
               | None -> master_addr var))
        ops)
    var_index;
  let sanitize_plan =
    Array.map
      (fun (meta : C.Metadata.op_meta) ->
        List.concat_map
          (fun (var, shadow) ->
            List.filter_map
              (fun (r : C.Dev_input.sanitize_rule) ->
                if String.equal r.C.Dev_input.sz_global var then
                  Some (shadow, r)
                else None)
              meta.C.Metadata.sanitize)
          meta.C.Metadata.shadow_slots
        |> Array.of_list)
      metas
  in
  let stage_plan =
    Array.map
      (fun (meta : C.Metadata.op_meta) ->
        match meta.C.Metadata.section with
        | Some sec when sync = Whole_section ->
          List.filter_map
            (fun (s : C.Layout.slot) ->
              if List.mem_assoc s.C.Layout.var meta.C.Metadata.shadow_slots
              then None
              else
                Some
                  ( s.C.Layout.addr, s.C.Layout.size,
                    M.Bus.in_sram bus s.C.Layout.addr s.C.Layout.size ))
            sec.C.Layout.slots
          |> Array.of_list
        | Some _ | None -> [||])
      metas
  in
  { image; bus; stats = Stats.create (); ops; metas; nvars; all_plan; out_plan; enter_plan; resume_plan; stage_plan;
    sanitize_plan; reloc = reloc_plan_of ~sync image; ro; shadow_ranges;
    master_ranges; local_base;
    epoch = Array.make nvars 0;
    pulled = Array.make (nops * nvars) 0;
    states = Array.make (nops * 256) None;
    frames = [];
    sink;
    recorder = recorder () }

(* --- privileged memory helpers ----------------------------------------- *)

(* A bus access at the privileged level: the CPU is raised for the access
   and lowered again after it, faulting or not. *)
let priv_read t addr width =
  let cpu = t.bus.M.Bus.cpu in
  let saved = cpu.M.Cpu.privileged in
  cpu.M.Cpu.privileged <- true;
  match M.Bus.read t.bus addr width with
  | v ->
    cpu.M.Cpu.privileged <- saved;
    v
  | exception e ->
    cpu.M.Cpu.privileged <- saved;
    raise e

let priv_write t addr width v =
  let cpu = t.bus.M.Bus.cpu in
  let saved = cpu.M.Cpu.privileged in
  cpu.M.Cpu.privileged <- true;
  match M.Bus.write t.bus addr width v with
  | () -> cpu.M.Cpu.privileged <- saved
  | exception e ->
    cpu.M.Cpu.privileged <- saved;
    raise e

(* Copy [bytes] bytes a word at a time (a byte at a time for a sub-word
   tail).  [sram] is the create-time proof that both ranges lie in SRAM,
   which lets the words move through the bus's unboxed primitives; any
   other copy goes through privileged [Bus.read]/[Bus.write]. *)
let rec copy_from t ~sram ~src ~dst bytes off =
  if off < bytes then begin
    let w = if bytes - off >= 4 then 4 else 1 in
    if sram then M.Bus.copy_sram_word t.bus ~src:(src + off) ~dst:(dst + off) w
    else priv_write t (dst + off) w (priv_read t (src + off) w);
    copy_from t ~sram ~src ~dst bytes (off + w)
  end

let copy_words t ~sram ~src ~dst bytes =
  copy_from t ~sram ~src ~dst bytes 0;
  t.stats.Stats.synced_bytes <- t.stats.Stats.synced_bytes + bytes

let rec words_equal t ~sram ~a ~b bytes off =
  off >= bytes
  ||
  let w = if bytes - off >= 4 then 4 else 1 in
  (if sram then M.Bus.equal_sram_word t.bus ~a:(a + off) ~b:(b + off) w
   else
     let va = priv_read t (a + off) w in
     Int64.equal va (priv_read t (b + off) w))
  && words_equal t ~sram ~a ~b bytes (off + w)

(* --- sanitization ------------------------------------------------------- *)

(* Check the developer-provided valid range of each checked variable's
   first word before the operation's shadow values propagate out of it
   (Section 5.3).  Runs before [sync_out], so the telemetry can bracket
   sanitization as its own phase — and so a failing check aborts before
   any shadow value has reached the public section. *)
let sanitize_all t oi =
  let plan = t.sanitize_plan.(oi) in
  for i = 0 to Array.length plan - 1 do
    let shadow, (r : C.Dev_input.sanitize_rule) = plan.(i) in
    let v = priv_read t shadow 4 in
    if Int64.compare v r.C.Dev_input.sz_min < 0
       || Int64.compare v r.C.Dev_input.sz_max > 0
    then
      abort t
        (Fmt.str "sanitization failed for %s: %Ld not in [%Ld, %Ld]"
           r.C.Dev_input.sz_global v r.C.Dev_input.sz_min r.C.Dev_input.sz_max)
  done

(* --- global synchronization (Figure 7) ---------------------------------- *)

let stage_whole_section t oi =
  let plan = t.stage_plan.(oi) in
  for i = 0 to Array.length plan - 1 do
    let addr, size, sram = plan.(i) in
    copy_words t ~sram ~src:addr ~dst:addr size
  done

(* write back operation [oi]'s shadows to the public section, restricted
   by the static schedule to the slots the operation may have written
   (the masters of the rest are already equal by the sync-out
   invariant); the caller runs [sanitize_all] first *)
let sync_out t oi =
  stage_whole_section t oi;
  let plan = t.out_plan.(oi) and row = oi * t.nvars in
  for i = 0 to Array.length plan - 1 do
    let sl = plan.(i) in
    if (not sl.sl_forced)
       && words_equal t ~sram:sl.sl_sram ~a:sl.sl_shadow ~b:sl.sl_master
            sl.sl_size 0
    then
      (* the operation left the value it saw: the master is already
         current, and this shadow is a faithful copy of it *)
      t.pulled.(row + sl.sl_var) <- t.epoch.(sl.sl_var)
    else begin
      copy_words t ~sram:sl.sl_sram ~src:sl.sl_shadow ~dst:sl.sl_master
        sl.sl_size;
      let e = t.epoch.(sl.sl_var) + 1 in
      t.epoch.(sl.sl_var) <- e;
      t.pulled.(row + sl.sl_var) <- e
    end
  done

let rec find_shadow_range t oi addr i =
  if i >= Array.length t.shadow_ranges then -1
  else
    let owner, _, base, size = t.shadow_ranges.(i) in
    if owner <> oi && addr >= base && addr < base + size then i
    else find_shadow_range t oi addr (i + 1)

let rec find_master_range t addr i =
  if i >= Array.length t.master_ranges then -1
  else
    let _, base, size = t.master_ranges.(i) in
    if addr >= base && addr < base + size then i
    else find_master_range t addr (i + 1)

(* The location visible to operation [oi] that a pointer to another
   operation's shadow section stands for (Section 5.3); [v] itself when
   it targets nothing shared.  A master address is the canonical form a
   pointer takes after passing through an operation without access to
   the target; it localizes into [oi]'s shadow when one exists. *)
let localized t oi v =
  let addr = Int64.to_int v in
  let var, base =
    match find_shadow_range t oi addr 0 with
    | i when i >= 0 ->
      let _, var, base, _ = t.shadow_ranges.(i) in
      (var, base)
    | _ -> (
      match find_master_range t addr 0 with
      | i when i >= 0 ->
        let var, base, _ = t.master_ranges.(i) in
        (var, base)
      | _ -> (-1, 0))
  in
  if var < 0 then v
  else
    let target = t.local_base.((oi * t.nvars) + var) + (addr - base) in
    if target = addr then v else Int64.of_int target

(* Translate a pointer for operation [oi], counting each rewrite. *)
let translate_pointer t oi v =
  let v' = localized t oi v in
  if not (Int64.equal v' v) then
    t.stats.Stats.pointer_fixups <- t.stats.Stats.pointer_fixups + 1;
  v'

(* localize the pointer fields of operation [oi]'s shadow at [base] *)
let rec fix_pointers t oi base = function
  | [] -> ()
  | off :: rest ->
    let v = priv_read t (base + off) 4 in
    let v' = translate_pointer t oi v in
    if not (Int64.equal v v') then priv_write t (base + off) 4 v';
    fix_pointers t oi base rest

(* copy masters into operation [oi]'s shadows and fix up pointer fields
   that still reference another operation's section.  The static
   schedule restricts the copy to the slots some other operation may
   have synced out since this shadow was filled: an enter ([from] < 0)
   uses the all-writers enter set, a resume after operation [from]
   exits the tighter set for writers reachable from [from].  Uncopied
   shadows keep the operation's own (already local) values, so pointer
   translation is only needed on the copied slots. *)
let sync_in t ~from oi =
  stage_whole_section t oi;
  let plan =
    if from < 0 then t.enter_plan.(oi)
    else t.resume_plan.((from * Array.length t.ops) + oi)
  in
  let row = oi * t.nvars in
  for i = 0 to Array.length plan - 1 do
    let sl = plan.(i) in
    let e = t.epoch.(sl.sl_var) in
    (* skip the copy when the master has not changed since this shadow
       last matched it: every suspension publishes the operation's
       writes first (sync-out invariant), so an unchanged epoch means
       the shadow still holds the master's bytes — including already
       localized pointer fields.  The ablations force every slot. *)
    if sl.sl_forced || t.pulled.(row + sl.sl_var) <> e then begin
      copy_words t ~sram:sl.sl_sram ~src:sl.sl_master ~dst:sl.sl_shadow
        sl.sl_size;
      t.pulled.(row + sl.sl_var) <- e;
      fix_pointers t oi sl.sl_shadow sl.sl_ptrs
    end
  done

let write_relocs t plan =
  for i = 0 to Array.length plan - 1 do
    let slot, target = plan.(i) in
    priv_write t slot 4 target
  done

(* point the relocation slots operation [oi] reads, and whose target
   depends on the current operation, at [oi]'s targets *)
let update_reloc_table t oi = write_relocs t t.reloc.on_switch.(oi)

(* --- stack protection (Figure 8) ---------------------------------------- *)

let subregion_of t addr =
  let layout = t.image.C.Image.layout in
  (addr - layout.C.Layout.stack_base) / C.Config.stack_subregion_size

(* Disable every sub-region strictly above the one containing [sp]. *)
let srd_for t sp =
  let top_sub = subregion_of t (min sp (t.image.C.Image.layout.C.Layout.stack_top - 1)) in
  let rec mask i acc = if i > 7 then acc else mask (i + 1) (acc lor (1 lsl i)) in
  if top_sub >= 7 then 0 else mask (top_sub + 1) 0

(* Relocate the buffers pointed to by pointer-type entry arguments onto
   the incoming operation's stack and redirect the arguments in [args];
   returns the (orig, copy, bytes) relocations, latest first. *)
let rec relocate_arguments t args relocated = function
  | [] -> relocated
  | (pa : C.Dev_input.ptr_arg) :: rest ->
    let idx = pa.C.Dev_input.param_index in
    if idx >= Array.length args then relocate_arguments t args relocated rest
    else begin
      let cpu = t.bus.M.Bus.cpu in
      let orig = Int64.to_int args.(idx) in
      let bytes = pa.C.Dev_input.buffer_bytes in
      let copy = (cpu.M.Cpu.sp - bytes) land lnot 7 in
      if copy < cpu.M.Cpu.stack_base then
        abort t "stack exhausted during argument relocation";
      copy_words t ~sram:false ~src:orig ~dst:copy bytes;
      t.stats.Stats.relocated_bytes <- t.stats.Stats.relocated_bytes + bytes;
      cpu.M.Cpu.sp <- copy;
      args.(idx) <- Int64.of_int copy;
      relocate_arguments t args ((orig, copy, bytes) :: relocated) rest
    end

let rec copy_back t = function
  | [] -> ()
  | (orig, copy, bytes) :: rest ->
    copy_words t ~sram:false ~src:copy ~dst:orig bytes;
    copy_back t rest

(* [copy_back] lands a relocated range in the caller's view of each
   shared variable it overlaps: the caller's shadow, or the master
   itself under a read-only mapping or a direct grant.  Publish those
   words as if the exiting operation had written them: copy a shadow's
   words to the master and bump the epoch, keeping the caller's shadow
   current when it was.  Finding the overlaps charges no cycles. *)
let publish_copied_back t caller relocated =
  let row = caller * t.nvars in
  List.iter
    (fun (orig, _, bytes) ->
      Array.iter
        (fun (var, master, size) ->
          let view = t.local_base.(row + var) in
          let lo = max orig view and hi = min (orig + bytes) (view + size) in
          if lo < hi then begin
            if view <> master then
              copy_words t ~sram:false ~src:lo ~dst:(master + lo - view) (hi - lo);
            let e = t.epoch.(var) + 1 in
            t.epoch.(var) <- e;
            if t.pulled.(row + var) = e - 1 then t.pulled.(row + var) <- e
          end)
        t.master_ranges)
    relocated

(* --- protection installation --------------------------------------------- *)

(* Install operation [oi]'s plan under sub-region mask [srd]: the state
   the pair's first install built, with the memo its runs have filled. *)
let install t oi ~srd =
  let k = (oi * 256) + srd in
  let st =
    match t.states.(k) with
    | Some st -> st
    | None ->
      let st, _ =
        C.Backend_plan.install t.image.C.Image.backend ~image:t.image
          ~meta:t.metas.(oi) ~srd
      in
      t.states.(k) <- Some st;
      st
  in
  M.Bus.set_protection t.bus st

(* --- switch protocol ----------------------------------------------------- *)

let rec entry_index ops name i =
  if i >= Array.length ops then -1
  else if String.equal ops.(i).C.Operation.entry name then i
  else entry_index ops name (i + 1)

(* The context every thread starts in: the default operation. *)
let default_frame t =
  let dop = C.Image.default_op t.image in
  let rec index i =
    if i >= Array.length t.ops then
      invalid_arg ("Monitor: unknown operation " ^ dop.C.Operation.name)
    else if String.equal t.ops.(i).C.Operation.name dop.C.Operation.name then i
    else index (i + 1)
  in
  let oi = index 0 in
  { op = dop; oi; meta = t.metas.(oi); srd = 0;
    saved_sp = t.image.C.Image.map.Opec_exec.Address_map.stack_top;
    relocated = []; virt_next = 0 }

let enter_operation t ~(entry : Func.t) ~(args : int64 array) =
  let oi = entry_index t.ops entry.Func.name 0 in
  if oi < 0 then
    invalid_arg ("Monitor: not an operation entry: " ^ entry.Func.name);
  let op = t.ops.(oi) and meta = t.metas.(oi) in
  let on = span_begin t in
  let src = current_op_name t in
  (* 1. sanitize, then write back the previous operation's shadows *)
  (match t.frames with
  | prev :: _ ->
    ph_begin t on Obs.Sink.Sanitize;
    sanitize_all t prev.oi;
    ph_end t on;
    ph_begin t on Obs.Sink.Sync;
    sync_out t prev.oi
  | [] -> ph_begin t on Obs.Sink.Sync);
  (* 2. fill the new operation's shadows and fix pointers *)
  sync_in t ~from:(-1) oi;
  update_reloc_table t oi;
  ph_end t on;
  (* 3. relocate stack arguments *)
  ph_begin t on Obs.Sink.Relocate;
  let cpu = t.bus.M.Bus.cpu in
  let saved_sp = cpu.M.Cpu.sp in
  let args, relocated =
    match meta.C.Metadata.stack_info with
    | None -> (args, [])
    | Some si ->
      let args = Array.copy args in
      (args, relocate_arguments t args [] si.C.Dev_input.ptr_args)
  in
  ph_end t on;
  (* 4. disable the sub-regions of previous stack frames *)
  ph_begin t on Obs.Sink.Mpu_config;
  let srd = srd_for t cpu.M.Cpu.sp in
  t.frames <- { op; oi; meta; srd; saved_sp; relocated; virt_next = 0 } :: t.frames;
  install t oi ~srd;
  ph_end t on;
  t.stats.Stats.switches <- t.stats.Stats.switches + 1;
  emit_span t on Obs.Sink.Enter ~src ~dst:op.C.Operation.name;
  args

let exit_operation t ~(entry : Func.t) =
  match t.frames with
  | [] -> invalid_arg "Monitor: exit with no active operation"
  | frame :: rest ->
    if not (String.equal frame.op.C.Operation.entry entry.Func.name) then
      invalid_arg "Monitor: mismatched operation exit";
    let on = span_begin t in
    let src = frame.op.C.Operation.name in
    let dst =
      match rest with f :: _ -> f.op.C.Operation.name | [] -> ""
    in
    (* 1. sanitize + write back the exiting operation's shadows.  (The
       paper also clears the general-purpose registers here; the
       interpreter gives every activation a fresh register file, so no
       register value can survive an operation exit by construction.) *)
    ph_begin t on Obs.Sink.Sanitize;
    sanitize_all t frame.oi;
    ph_end t on;
    ph_begin t on Obs.Sink.Sync;
    sync_out t frame.oi;
    ph_end t on;
    (* 2. restore stack data and pointer arguments *)
    ph_begin t on Obs.Sink.Relocate;
    copy_back t frame.relocated;
    (match rest with
    | caller :: _ when frame.relocated <> [] ->
      publish_copied_back t caller.oi frame.relocated
    | _ -> ());
    ph_end t on;
    t.frames <- rest;
    (* 3. refill the resumed operation's shadows and MPU: only writers
       reachable from the exiting operation can have run meanwhile, so
       the (src, dst) resume schedule applies *)
    (match rest with
    | prev :: _ ->
      ph_begin t on Obs.Sink.Sync;
      sync_in t ~from:frame.oi prev.oi;
      update_reloc_table t prev.oi;
      ph_end t on;
      ph_begin t on Obs.Sink.Mpu_config;
      install t prev.oi ~srd:prev.srd;
      ph_end t on
    | [] -> ());
    t.stats.Stats.switches <- t.stats.Stats.switches + 1;
    emit_span t on Obs.Sink.Exit ~src ~dst

(* --- thread context switching (Section 7) -------------------------------- *)

(* An inactive thread's operation-context stack. *)
type thread_snapshot = frame list

let initial_snapshot t = [ default_frame t ]

(* The single-core context switch of Section 7: write back the previous
   thread's operation shadows, adopt the next thread's context, refill
   its shadows, and reconfigure the MPU. *)
let thread_switch t ~(next : thread_snapshot) : thread_snapshot =
  let on = span_begin t in
  let src = current_op_name t in
  (match t.frames with
  | f :: _ ->
    ph_begin t on Obs.Sink.Sanitize;
    sanitize_all t f.oi;
    ph_end t on;
    ph_begin t on Obs.Sink.Sync;
    sync_out t f.oi;
    ph_end t on
  | [] -> ());
  let prev = t.frames in
  t.frames <- next;
  (match next with
  | f :: _ ->
    ph_begin t on Obs.Sink.Sync;
    sync_in t ~from:(-1) f.oi;
    update_reloc_table t f.oi;
    ph_end t on;
    ph_begin t on Obs.Sink.Mpu_config;
    install t f.oi ~srd:f.srd;
    ph_end t on
  | [] -> ());
  t.stats.Stats.switches <- t.stats.Stats.switches + 1;
  emit_span t on Obs.Sink.Thread ~src ~dst:(current_op_name t);
  prev

(* --- fault handlers ------------------------------------------------------ *)

(* Memory-management fault: peripheral MPU virtualization (Section 5.2). *)
let handle_mem_fault t (_desc : Opec_exec.Interp.access_desc)
    (info : M.Fault.info) =
  let frame = current t in
  let addr = info.M.Fault.addr in
  let permitted =
    List.exists
      (fun (base, limit) -> addr >= base && addr < limit)
      frame.op.C.Operation.periph_ranges
  in
  if not permitted then
    Opec_exec.Interp.Abort
      (deny t ~info
         (Fmt.str "isolation violation in %s: %a" frame.op.C.Operation.name
            M.Fault.pp_info info))
  else begin
    (* the access is in the allow list: rotate protection onto it
       (round-robin over the backend's reserved slots / keys) *)
    match
      Enforce.virtualize (M.Bus.protection t.bus) ~meta:frame.meta
        ~virt_next:frame.virt_next ~addr
    with
    | None ->
      Opec_exec.Interp.Abort
        (deny t ~info
           (Fmt.str "no planned region in %s covers permitted access: %a"
              frame.op.C.Operation.name M.Fault.pp_info info))
    | Some (st, sw) ->
      M.Bus.set_protection t.bus st;
      frame.virt_next <- frame.virt_next + 1;
      t.stats.Stats.virt_swaps <- t.stats.Stats.virt_swaps + 1;
      if t.sink.Obs.Sink.active then
        t.sink.Obs.Sink.emit
          (Obs.Sink.Region_swap
             { rs_op = frame.op.C.Operation.name; rs_slot = sw.Enforce.sw_slot;
               rs_evicted = sw.Enforce.sw_evicted;
               rs_installed = sw.Enforce.sw_installed; rs_at = now t });
      Opec_exec.Interp.Retry
  end

(* Bus fault: emulate permitted core-peripheral loads/stores
   (Section 5.2). *)
let handle_bus_fault t (desc : Opec_exec.Interp.access_desc)
    (info : M.Fault.info) =
  let frame = current t in
  let addr = info.M.Fault.addr in
  let in_ppb =
    addr >= M.Memmap.ppb_base && addr < M.Memmap.ppb_limit
  in
  let periph =
    Peripheral.find t.image.C.Image.source.Program.peripherals addr
  in
  let permitted =
    (not info.M.Fault.privileged) && in_ppb
    &&
    match periph with
    | Some p -> C.Operation.uses_core_peripheral frame.op p.Peripheral.name
    | None -> false
  in
  if not permitted then
    Opec_exec.Interp.Bus_abort
      (deny t ~info
         (Fmt.str "bus fault in %s: %a" frame.op.C.Operation.name
            M.Fault.pp_info info))
  else begin
    t.stats.Stats.emulations <- t.stats.Stats.emulations + 1;
    if t.sink.Obs.Sink.active then
      t.sink.Obs.Sink.emit
        (Obs.Sink.Emulation
           { em_op = frame.op.C.Operation.name;
             em_write =
               (match desc with
               | Opec_exec.Interp.Access_store _ -> true
               | Opec_exec.Interp.Access_load _ -> false);
             em_info = info; em_at = now t });
    match desc with
    | Opec_exec.Interp.Access_load { addr; width } ->
      Opec_exec.Interp.Emulated (priv_read t addr width)
    | Opec_exec.Interp.Access_store { addr; width; value } ->
      priv_write t addr width value;
      Opec_exec.Interp.Emulated 0L
  end

(* --- initialization (Section 5.1) ---------------------------------------- *)

let init t =
  let on = span_begin t in
  ph_begin t on Obs.Sink.Sync;
  (* copy the initial value of every shared global into its shadows and
     localize pointer fields right away: the incremental sync-in may
     skip an operation's first fill (unchanged master), so the initial
     shadow must already be what that fill would have produced.  A
     read-only mapping's shadow is dead: its relocation entry targets
     the master. *)
  Array.iteri
    (fun oi plan ->
      Array.iter
        (fun sl ->
          if not t.ro.((oi * t.nvars) + sl.sl_var) then begin
            copy_words t ~sram:sl.sl_sram ~src:sl.sl_master ~dst:sl.sl_shadow
              sl.sl_size;
            fix_pointers t oi sl.sl_shadow sl.sl_ptrs
          end)
        plan)
    t.all_plan;
  (* start in the default operation *)
  let frame = default_frame t in
  t.frames <- [ frame ];
  sync_in t ~from:(-1) frame.oi;
  write_relocs t t.reloc.once;
  update_reloc_table t frame.oi;
  ph_end t on;
  ph_begin t on Obs.Sink.Mpu_config;
  install t frame.oi ~srd:0;
  ph_end t on;
  (* drop privilege: the application code runs unprivileged *)
  M.Cpu.drop_privilege t.bus.M.Bus.cpu;
  (* one-time cost, recorded as its own kind so it never counts as a
     switch in the [Stats.switches] reconciliation *)
  emit_span t on Obs.Sink.Init ~src:"" ~dst:frame.op.C.Operation.name

(* --- the oracle of the compiled protocol --------------------------------- *)

(* The shadow invariant behind the incremental sync-in: a shadow whose
   [pulled] equals its variable's [epoch] holds its master's bytes, with
   pointer fields localized for its operation — the run-time twin of
   lints L009-L011.  Exempt: read-only mappings (their shadow is dead),
   forced slots (a device or an ablation rewrites them), and variables
   the operation may write but never publishes (its shadow is then
   legitimately ahead of the master).  The first violation, if any. *)
let shadow_violation t =
  let ss = t.image.C.Image.syncsets in
  let word sl off =
    let w = if sl.sl_size - off >= 4 then 4 else 1 in
    (w, M.Bus.read_raw t.bus (sl.sl_shadow + off) w,
     M.Bus.read_raw t.bus (sl.sl_master + off) w)
  in
  let rec stale oi sl off =
    if off >= sl.sl_size then None
    else
      let w, shadow, master = word sl off in
      let expect =
        if List.mem off sl.sl_ptrs then localized t oi master else master
      in
      if Int64.equal shadow expect then stale oi sl (off + w)
      else Some (off, shadow, expect)
  in
  let unpublished oi =
    let name = t.ops.(oi).C.Operation.name in
    let writes = try Ss.may_write ss name with Invalid_argument _ -> Ss.SS.empty in
    fun var sl_var ->
      Ss.SS.mem var writes
      && not (Array.exists (fun sl -> sl.sl_var = sl_var) t.out_plan.(oi))
  in
  (* a shadow slot names its variable by its master's address *)
  let var_name = Hashtbl.create 16 in
  List.iter
    (fun (s : C.Layout.slot) ->
      Hashtbl.replace var_name s.C.Layout.addr s.C.Layout.var)
    t.image.C.Image.layout.C.Layout.public.C.Layout.slots;
  let rec scan oi =
    if oi >= Array.length t.ops then None
    else
      let row = oi * t.nvars and unpublished = unpublished oi in
      match
        Array.find_map
          (fun sl ->
            let var = Hashtbl.find var_name sl.sl_master in
            if sl.sl_forced || t.ro.(row + sl.sl_var)
               || t.pulled.(row + sl.sl_var) <> t.epoch.(sl.sl_var)
               || unpublished var sl.sl_var
            then None
            else
              Option.map
                (fun (off, shadow, expect) ->
                  Fmt.str
                    "%s: shadow of %s at 0x%08X+%d holds 0x%08Lx, but its \
                     epoch (%d) is current and the master gives 0x%08Lx"
                    t.ops.(oi).C.Operation.name var sl.sl_shadow off shadow
                    t.epoch.(sl.sl_var) expect)
                (stale oi sl 0))
          t.all_plan.(oi)
      with
      | Some e -> Some e
      | None -> scan (oi + 1)
  in
  scan 0

(* The live protection state must equal a fresh install of the active
   operation's plan on the image's backend, the operation's
   live relocation slots must hold its targets, and every shadow must
   satisfy the sync-in invariant.  Charges no cycles. *)
let verify t =
  match t.frames with
  | [] -> Error "no active operation"
  | f :: _ ->
    let name = f.op.C.Operation.name in
    let live = M.Bus.protection t.bus in
    let fresh, _ =
      C.Backend_plan.install t.image.C.Image.backend ~image:t.image
        ~meta:f.meta ~srd:f.srd
    in
    if not (M.Backend.equal fresh live) then
      Error
        (Fmt.str
           "%s (srd 0x%02X): installed protection differs from a fresh \
            install:@ %a@ expected@ %a"
           name f.srd M.Backend.pp live M.Backend.pp fresh)
    else
      let holds slot = M.Bus.read_raw t.bus slot 4 in
      match
        Array.find_opt
          (fun (slot, target) -> not (Int64.equal (holds slot) target))
          t.reloc.live.(f.oi)
      with
      | Some (slot, target) ->
        Error
          (Fmt.str "%s: relocation slot 0x%08X holds 0x%08Lx, expected 0x%08Lx"
             name slot (holds slot) target)
      | None -> (
        match shadow_violation t with None -> Ok () | Some e -> Error e)

(* [h] with [verify] run after every operation enter and exit.  The
   monitor comes from a thunk because [Runner.prepare] wraps the handler
   before it returns the monitor. *)
let verifying ~monitor ~report (h : Opec_exec.Interp.handler) =
  let check at = Option.iter (fun t -> report at (verify t)) (monitor ()) in
  { h with
    Opec_exec.Interp.on_operation_enter =
      (fun ~entry ~args ->
        let args = h.Opec_exec.Interp.on_operation_enter ~entry ~args in
        check ("enter " ^ entry.Func.name);
        args);
    on_operation_exit =
      (fun ~entry ->
        h.Opec_exec.Interp.on_operation_exit ~entry;
        check ("exit " ^ entry.Func.name)) }

(* --- the interpreter-facing handler -------------------------------------- *)

let handler t : Opec_exec.Interp.handler =
  { Opec_exec.Interp.on_operation_enter =
      (fun ~entry ~args ->
        try enter_operation t ~entry ~args
        with Violation msg -> raise (Opec_exec.Interp.Aborted msg));
    on_operation_exit =
      (fun ~entry ->
        try exit_operation t ~entry
        with Violation msg -> raise (Opec_exec.Interp.Aborted msg));
    on_mem_fault =
      (fun desc info ->
        M.Cpu.with_privilege t.bus.M.Bus.cpu (fun () ->
            try handle_mem_fault t desc info
            with Violation msg -> Opec_exec.Interp.Abort msg));
    on_bus_fault =
      (fun desc info ->
        M.Cpu.with_privilege t.bus.M.Bus.cpu (fun () ->
            try handle_bus_fault t desc info
            with Violation msg -> Opec_exec.Interp.Bus_abort msg));
    (* Operation switches arrive through [on_operation_enter]/[_exit] and
       the cooperative-thread scheduler intercepts its yield SVC before
       delegating here, so any SVC that reaches the monitor carries a
       forged operation id: reject it (Section 5.3's dispatcher only
       accepts ids minted by the instrumentation). *)
    on_svc =
      (fun n ->
        try
          abort t
            (Fmt.str "SVC with forged operation id #0x%02X in %s" n
               (current t).op.C.Operation.name)
        with Violation msg -> raise (Opec_exec.Interp.Aborted msg)) }
