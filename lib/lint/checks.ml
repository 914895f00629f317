(* Static policy checkers over a compiled image.

   Every checker re-derives the invariant it guards from first
   principles (re-validating region records, re-merging resource sets,
   re-counting instrumentation sites) rather than trusting the
   compiler's own intermediate results — the linter is only worth
   running if it computes the answer a second way. *)

open Opec_ir
module C = Opec_core
module A = Opec_analysis
module M = Opec_machine
module R = A.Resource
module SS = R.SS

type check = C.Image.t -> Diag.t list

(* --- L001: unresolved indirect calls ----------------------------------- *)

let unresolved_icall (image : C.Image.t) =
  let index_in = Hashtbl.create 8 in
  List.concat_map
    (fun (ic : A.Callgraph.icall_info) ->
      let index =
        let i = Option.value (Hashtbl.find_opt index_in ic.site_func) ~default:0 in
        Hashtbl.replace index_in ic.site_func (i + 1);
        i
      in
      let loc = Diag.Icall { func = ic.site_func; index } in
      match ic.resolved_by with
      | `Points_to -> []
      | `Types ->
        [ Diag.vf ~code:"L001" Diag.Warning loc
            "indirect call resolved only by type matching (%d candidate%s); \
             points-to analysis found no targets"
            (List.length ic.targets)
            (if List.length ic.targets = 1 then "" else "s") ]
      | `Unresolved ->
        [ Diag.vf ~code:"L001" Diag.Error loc
            "indirect call has no resolved targets: the call graph is \
             incomplete and the operation's function set may be unsound" ])
    image.callgraph.icalls

(* --- L002: functions outside every operation ---------------------------- *)

let unreachable_function (image : C.Image.t) =
  let covered =
    List.fold_left
      (fun acc (op : C.Operation.t) -> SS.union acc op.funcs)
      SS.empty image.ops
  in
  List.filter_map
    (fun (f : Func.t) ->
      if SS.mem f.name covered then None
      else if f.irq then
        Some
          (Diag.vf ~code:"L002" Diag.Info (Diag.Function f.name)
             "interrupt handler is outside every operation (runs under the \
              default operation's policy)")
      else
        (* info, not warning: applications linking a library (as all the
           bundled workloads do with the shared HAL) legitimately leave
           most of it unreached *)
        Some
          (Diag.vf ~code:"L002" Diag.Info (Diag.Function f.name)
             "function is reachable from no operation entry: dead code the \
              policy does not cover"))
    image.source.funcs

(* --- L003: protection plan validity ------------------------------------- *)

(* Re-validate a region record directly (it may have been built without
   going through the checked constructor). *)
let validate_region ~opn ~slot (r : M.Mpu.region) =
  let loc = Diag.Region { op = opn; slot } in
  let size = 1 lsl r.size_log2 in
  let bad =
    if r.size_log2 < M.Mpu.min_size_log2 || r.size_log2 > 32 then
      Some (Printf.sprintf "illegal region size 2^%d" r.size_log2)
    else if r.base land (size - 1) <> 0 then
      Some
        (Printf.sprintf "base 0x%08X not aligned to region size 0x%X" r.base
           size)
    else if r.srd < 0 || r.srd > 0xFF then
      Some (Printf.sprintf "sub-region disable mask 0x%X out of range" r.srd)
    else if r.srd <> 0 && r.size_log2 < M.Mpu.subregion_min_log2 then
      Some
        (Printf.sprintf
           "sub-regions used on a %d-byte region (hardware requires >= 256)"
           size)
    else None
  in
  match bad with
  | Some msg -> [ Diag.v ~code:"L003" Diag.Error loc msg ]
  | None ->
    if r.srd = 0xFF then
      [ Diag.v ~code:"L003" Diag.Warning loc
          "all eight sub-regions disabled: the region never matches" ]
    else []

let region_span (r : M.Mpu.region) = (r.base, r.base + (1 lsl r.size_log2))

(* Is every address of [lo, hi) matched by some region?  Permissions are
   constant over 32-byte chunks (the smallest region and sub-region
   granularity), so probing one address per chunk is exact. *)
let covered regions (lo, hi) =
  let rec go chunk missing =
    if chunk >= hi then missing
    else
      let addr = max lo chunk in
      let hit = List.exists (fun r -> M.Mpu.region_matches r addr) regions in
      go (chunk + 32) (if hit then missing else addr :: missing)
  in
  List.rev (go (lo land lnot 31) [])

(* The plan the backend installs, re-checked: the data section's fit;
   under the backend's own encoding, on the MPU the fixed regions (code,
   stack, data section) and every peripheral region, on the others the
   data section's alignment; everywhere peripheral coverage and the
   rotation budget the backend reports. *)
let plan_validity (image : C.Image.t) =
  let kind = image.backend in
  let kname = M.Backend.kind_name kind in
  let virtualized = "the overflow is virtualized by the monitor at runtime" in
  let recycled = "the monitor recycles keys onto keyless windows at runtime" in
  (* MPU diagnostics speak of regions, the others of windows *)
  let noun, reserves, pool, remedy =
    match kind with
    | M.Backend.Mpu ->
      ("region", "region covers", "available slots", virtualized)
    | M.Backend.Pmp ->
      ( "window", kname ^ " window reserves", "available PMP entries",
        virtualized )
    | M.Backend.Poe | M.Backend.Cheri ->
      ("window", kname ^ " window reserves", "free POE keys", recycled)
  in
  let aligned ~base ~len =
    match (M.Backend.descriptor kind).M.Backend.d_alignment with
    | M.Backend.Pow2 { min_log2 } -> base land ((1 lsl min_log2) - 1) = 0
    | M.Backend.Granule { bytes } -> base mod bytes = 0
    | M.Backend.Precision _ -> M.Cheri.representable ~base ~len
  in
  let fixed_region opn slot build =
    match build () with
    | r -> validate_region ~opn ~slot r
    | exception M.Mpu.Invalid_region msg ->
      [ Diag.vf ~code:"L003" Diag.Error
          (Diag.Region { op = opn; slot })
          "region not constructible: %s" msg ]
  in
  (* the code region must span the whole code *)
  let code_coverage opn build =
    match build () with
    | r ->
      let lo, hi = region_span r in
      if lo > image.code_base || hi < image.code_base + image.code_bytes then
        [ Diag.vf ~code:"L003" Diag.Error
            (Diag.Region { op = opn; slot = "code" })
            "code region [0x%08X,0x%08X) does not cover the code span \
             [0x%08X,0x%08X)"
            lo hi image.code_base
            (image.code_base + image.code_bytes) ]
      else []
    | exception M.Mpu.Invalid_region _ -> []
  in
  (* the MPU's region validation covers the data section's alignment *)
  let encoding opn (meta : C.Metadata.op_meta) =
    match (kind, meta.section) with
    | M.Backend.Mpu, _ ->
      List.concat_map
        (fun (_, slot, build) ->
          fixed_region opn slot build
          @ if slot = "code" then code_coverage opn build else [])
        (C.Backend_plan.mpu_fixed_regions ~image ~meta ~srd:0)
      @ List.concat
          (List.mapi
             (fun i r -> validate_region ~opn ~slot:(Printf.sprintf "P%d" i) r)
             meta.periph_regions)
    | _, Some s when not (aligned ~base:s.base ~len:s.span) ->
      [ Diag.vf ~code:"L003" Diag.Error
          (Diag.Region { op = opn; slot = "opdata" })
          "data section base 0x%08X violates the %s alignment rule" s.base
          kname ]
    | _, _ -> []
  in
  List.concat_map
    (fun (op : C.Operation.t) ->
      let opn = op.name in
      match C.Image.meta_of image opn with
      | None ->
        [ Diag.v ~code:"L003" Diag.Error (Diag.Operation opn)
            "no metadata entry: the monitor cannot switch to this operation" ]
      | Some meta ->
        let fit =
          match meta.section with
          | Some s when s.used > s.span ->
            [ Diag.vf ~code:"L003" Diag.Error
                (Diag.Region { op = opn; slot = "opdata" })
                "data section uses %d bytes but its %s only %d" s.used
                reserves s.span ]
          | _ -> []
        in
        let coverage =
          List.concat_map
            (fun (lo, hi) ->
              match covered meta.periph_regions (lo, hi) with
              | [] -> []
              | addr :: _ ->
                [ Diag.vf ~code:"L003" Diag.Error (Diag.Operation opn)
                    "peripheral range [0x%08X,0x%08X) not covered by the \
                     %s plan (first hole at 0x%08X): accesses would fault"
                    lo hi noun addr ])
            op.periph_ranges
        in
        let budget =
          match C.Backend_plan.rotation kind meta with
          | Some { needed; slots; _ } when needed > slots ->
            [ Diag.vf ~code:"L003" Diag.Info (Diag.Operation opn)
                "%d peripheral %ss exceed the %d %s; %s" needed noun slots
                pool remedy ]
          | Some _ | None -> []
        in
        fit @ encoding opn meta @ coverage @ budget)
    image.ops

(* --- L004: resource-coverage soundness ---------------------------------- *)

let missing_from ~granted needed = SS.diff needed granted

let names s = String.concat ", " (SS.elements s)

let resource_coverage (image : C.Image.t) =
  List.concat_map
    (fun (op : C.Operation.t) ->
      let granted = op.resources in
      SS.fold
        (fun f acc ->
          let r = R.of_func image.resources f in
          let check what needed granted_set =
            let miss = missing_from ~granted:granted_set needed in
            if SS.is_empty miss then []
            else
              [ Diag.vf ~code:"L004" Diag.Error (Diag.Operation op.name)
                  "member function %s needs %s {%s} missing from the \
                   operation's resource set: accesses would fault at runtime"
                  f what (names miss) ]
          in
          check "global(s)" (R.globals r) (R.globals granted)
          @ check "peripheral(s)" r.peripherals granted.peripherals
          @ check "core peripheral(s)" r.core_peripherals
              granted.core_peripherals
          @ acc)
        op.funcs [])
    image.ops

(* --- L005: over-privilege ------------------------------------------------ *)

let over_privilege (image : C.Image.t) =
  let static =
    List.concat_map
      (fun (op : C.Operation.t) ->
        let needed = R.of_funcs image.resources op.funcs in
        let check what granted_set needed_set =
          let extra = SS.diff granted_set needed_set in
          if SS.is_empty extra then []
          else
            [ Diag.vf ~code:"L005" Diag.Error (Diag.Operation op.name)
                "operation is granted %s {%s} that no member function needs"
                what (names extra) ]
        in
        check "global(s)" (R.globals op.resources) (R.globals needed)
        @ check "peripheral(s)" op.resources.peripherals needed.peripherals
        @ check "core peripheral(s)" op.resources.core_peripherals
            needed.core_peripherals)
      image.ops
  in
  let pt =
    List.filter_map
      (fun (s : Opec_metrics.Overprivilege.pt_sample) ->
        if s.pt > 0.0 then
          Some
            (Diag.vf ~code:"L005" Diag.Error (Diag.Operation s.domain)
               "partition-time over-privilege is %.3f (OPEC must be 0 by \
                construction: the data section holds unneeded writable bytes)"
               s.pt)
        else None)
      (Opec_metrics.Overprivilege.opec_pt image)
  in
  static @ pt

(* --- L006: SVC instrumentation ------------------------------------------- *)

let svc_instrumentation (image : C.Image.t) =
  let entry_set = SS.of_list image.entries in
  let ops_not_listed =
    List.filter_map
      (fun (op : C.Operation.t) ->
        if op.index = 0 || SS.mem op.entry entry_set then None
        else
          Some
            (Diag.vf ~code:"L006" Diag.Error (Diag.Operation op.name)
               "entry %s is not in the image's entry list: calls to it will \
                not go through the SVC switch protocol"
               op.entry))
      image.ops
  in
  let entries_valid =
    List.concat_map
      (fun e ->
        let loc = Diag.Function e in
        let op_known =
          match C.Image.op_of_entry image e with
          | Some _ -> []
          | None ->
            [ Diag.v ~code:"L006" Diag.Error loc
                "listed as an operation entry but no operation has this \
                 entry: the monitor would switch to nothing" ]
        in
        let shape =
          match Program.find_func image.program e with
          | None ->
            [ Diag.v ~code:"L006" Diag.Error loc
                "listed as an operation entry but not defined in the image" ]
          | Some f ->
            (if f.irq then
               [ Diag.v ~code:"L006" Diag.Error loc
                   "interrupt handler listed as an operation entry" ]
             else [])
            @
            if f.varargs then
              [ Diag.v ~code:"L006" Diag.Error loc
                  "variadic function listed as an operation entry (argument \
                   relocation is undefined)" ]
            else []
        in
        op_known @ shape)
      image.entries
  in
  let stray_svc =
    List.concat_map
      (fun (f : Func.t) ->
        Instr.fold_block
          (fun acc i ->
            match i with
            | Instr.Svc n when n <> Opec_monitor.Threads.yield_svc ->
              Diag.vf ~code:"L006" Diag.Error (Diag.Function f.name)
                "raw SVC #%d in instrumented code bypasses the monitor's \
                 switch protocol"
                n
              :: acc
            | _ -> acc)
          [] f.body)
      image.program.funcs
  in
  let recount =
    let counted = C.Instrument.count_svc_sites image.source image.entries in
    if counted <> image.stats.svc_sites then
      [ Diag.vf ~code:"L006" Diag.Warning Diag.Program
          "image records %d SVC sites but a recount finds %d"
          image.stats.svc_sites counted ]
    else []
  in
  ops_not_listed @ entries_valid @ stray_svc @ recount

(* --- L009: sync-schedule soundness --------------------------------------- *)

(* Recompute the sync schedule from the image's analysis artifacts and
   demand the embedded one is at least as strong: every slot the fresh
   computation would copy must be scheduled, and nothing scheduled may
   fall outside the operation's slot domain.  A weaker embedded schedule
   means a switch could skip a needed copy (stale shadow or lost master
   update); an out-of-domain entry would have the monitor copy a slot
   the operation has no region for. *)
let sync_schedule_soundness (image : C.Image.t) =
  let module Ss = A.Syncset in
  let emb = image.syncsets in
  let fresh =
    C.Compiler.syncsets_of ~points_to:image.points_to
      ~callgraph:image.callgraph ~ops:image.ops ~input:image.input
      image.source
  in
  let conservative =
    if A.Dataflow.has_svc image.source && not (Ss.conservative_resume emb)
    then
      [ Diag.v ~code:"L009" Diag.Error Diag.Program
          "program contains raw SVC yields but the embedded schedule \
           carries per-pair resume sets: a thread switch could resume \
           with stale shadows" ]
    else []
  in
  let per_op (op : C.Operation.t) =
    let opn = op.name in
    let loc = Diag.Operation opn in
    match Ss.slots_of emb opn with
    | exception Invalid_argument _ ->
      [ Diag.v ~code:"L009" Diag.Error loc
          "operation has no embedded sync schedule: the monitor cannot \
           switch to it incrementally" ]
    | _emb_slots ->
      let domain = Ss.slots_of fresh opn in
      let check_cover what needed scheduled =
        let miss = SS.diff needed scheduled in
        if SS.is_empty miss then []
        else
          [ Diag.vf ~code:"L009" Diag.Error loc
              "%s set misses slot(s) {%s} the dataflow analysis requires: \
               a switch would skip a needed copy"
              what (names miss) ]
      in
      let check_domain what scheduled =
        let extra = SS.diff scheduled domain in
        if SS.is_empty extra then []
        else
          [ Diag.vf ~code:"L009" Diag.Error loc
              "%s set schedules {%s} outside the operation's shadow-slot \
               domain: the monitor would copy through a slot that does \
               not exist"
              what (names extra) ]
      in
      let check_ro () =
        (* the read-only master mapping is an exemption, not a copy: the
           embedded set must stay within what the fresh analysis can
           prove write-free, or a mapped slot could hide a write *)
        let extra = SS.diff (Ss.ro_set emb opn) (Ss.ro_set fresh opn) in
        if SS.is_empty extra then []
        else
          [ Diag.vf ~code:"L009" Diag.Error loc
              "read-only master mapping covers slot(s) {%s} the dataflow \
               analysis cannot prove write-free: a write through the \
               mapping would bypass synchronization"
              (names extra) ]
      in
      check_cover "sync-out" (Ss.out_set fresh opn) (Ss.out_set emb opn)
      @ check_cover "enter sync-in" (Ss.enter_set fresh opn)
          (Ss.enter_set emb opn)
      @ check_domain "sync-out" (Ss.out_set emb opn)
      @ check_domain "enter sync-in" (Ss.enter_set emb opn)
      @ check_ro ()
      @ check_domain "read-only mapping" (Ss.ro_set emb opn)
      @
      (* resume_set falls back to the (larger) enter set for unknown
         pairs and under conservative scheduling, which is always
         sound; only explicit pairs can under-copy. *)
      List.concat_map
        (fun (src, dst) ->
          if not (String.equal dst opn) then []
          else
            check_cover
              (Printf.sprintf "resume (%s -> %s)" src dst)
              (Ss.resume_set fresh ~src ~dst)
              (Ss.resume_set emb ~src ~dst)
            @ check_domain
                (Printf.sprintf "resume (%s -> %s)" src dst)
                (Ss.resume_set emb ~src ~dst))
        (Ss.pairs fresh)
  in
  conservative @ List.concat_map per_op image.ops

(* --- L010: unsyncable escape --------------------------------------------- *)

(* A global whose address was stored into a peripheral window can be
   written by the device at any time: no static may-write bound exists.
   The schedule must treat it conservatively — copied at every switch
   where a slot exists — and the developer should know the variable
   defeats incremental synchronization. *)
let unsyncable_escape (image : C.Image.t) =
  let module Ss = A.Syncset in
  let emb = image.syncsets in
  let slots opn =
    try Ss.slots_of emb opn with Invalid_argument _ -> SS.empty
  in
  let escaped = A.Dataflow.escaped_globals image.source image.points_to in
  SS.fold
    (fun g acc ->
      let warn =
        Diag.vf ~code:"L010" Diag.Warning Diag.Program
          "address of global %s escapes into a peripheral window: its \
           writers cannot be statically bounded, so every operation \
           holding a slot falls back to synchronizing it at each switch"
          g
      in
      let holes =
        List.concat_map
          (fun (op : C.Operation.t) ->
            let opn = op.name in
            if not (SS.mem g (slots opn)) then []
            else
              let missing what set =
                if SS.mem g set then []
                else
                  [ Diag.vf ~code:"L010" Diag.Error (Diag.Operation opn)
                      "escaped global %s missing from the %s set: a \
                       device-initiated write could be lost or observed \
                       stale"
                      g what ]
              in
              missing "sync-out" (Ss.out_set emb opn)
              @ missing "enter sync-in" (Ss.enter_set emb opn)
              @ List.concat_map
                  (fun (src, dst) ->
                    if String.equal dst opn then
                      missing
                        (Printf.sprintf "resume (%s -> %s)" src dst)
                        (Ss.resume_set emb ~src ~dst)
                    else [])
                  (Ss.pairs emb))
          image.ops
      in
      (warn :: holes) @ acc)
    escaped []

(* --- L012: resolved relocations ------------------------------------------ *)

(* A shared-global use the compiler bound to a constant is transparent
   only when the constant is what the relocation table would hold at
   that site in every monitor mode: the function belongs to exactly one
   operation, the variable has a slot and is not mapped read-only there
   (a read-only slot targets the master or the shadow depending on the
   mode), and the constant is the operation's target. *)
let resolved_relocation (image : C.Image.t) =
  List.concat_map
    (fun (s : C.Instrument.site) ->
      let err fmt = Diag.vf ~code:"L012" Diag.Error (Diag.Function s.fn) fmt in
      match
        List.filter (fun (op : C.Operation.t) -> SS.mem s.fn op.funcs) image.ops
      with
      | [ op ] ->
        let ro =
          try A.Syncset.ro_set image.syncsets op.name
          with Invalid_argument _ -> SS.empty
        in
        let target =
          match C.Image.meta_of image op.name with
          | Some meta -> C.Metadata.reloc_target meta s.var
          | None -> 0
        in
        if C.Layout.reloc_slot image.layout s.var = None then
          [ err "%s is resolved to 0x%08X but has no relocation slot" s.var
              s.addr ]
        else if SS.mem s.var ro then
          [ err
              "%s is resolved to 0x%08X but mapped read-only in %s, where                its slot target depends on the monitor mode"
              s.var s.addr op.name ]
        else if target <> s.addr then
          [ err
              "%s is resolved to 0x%08X but operation %s's relocation                target is 0x%08X"
              s.var s.addr op.name target ]
        else []
      | owners ->
        [ err
            "%s is resolved to 0x%08X but the function belongs to %d              operations: only a function of exactly one may skip the              relocation table"
            s.var s.addr (List.length owners) ])
    image.stats.resolved

(* --- L013: live relocation slots ----------------------------------------- *)

(* The monitor writes an operation's relocation slots only where a
   table site reads them, and a slot every reader agrees on at most
   once.  Recomputed here from any word load of a constant slot address
   in the instrumented program (not only [Instrument]'s prologues), the
   operations' member functions, the read-only mappings and the
   metadata: every slot an operation reads must hold its target
   whenever it is current, and [Monitor.verify] must check exactly the
   slots the operation reads. *)
let relocation_writes (plan : Opec_monitor.Monitor.reloc_plan)
    (image : C.Image.t) =
  let layout = image.layout in
  let var_of_slot = Hashtbl.create 16 in
  List.iter (fun (v, a) -> Hashtbl.replace var_of_slot a v) layout.reloc_slots;
  (* slot -> the operations that read it *)
  let readers = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      let ops =
        match
          List.filter (fun (op : C.Operation.t) -> SS.mem f.name op.funcs)
            image.ops
        with
        | [] -> image.ops
        | ops -> ops
      in
      Instr.iter_block
        (function
          | Instr.Load (_, Instr.W32, a) -> (
            match Expr.const_fold a with
            | Some addr when Hashtbl.mem var_of_slot (Int64.to_int addr) ->
              let slot = Int64.to_int addr in
              let known =
                Option.value (Hashtbl.find_opt readers slot) ~default:[]
              in
              Hashtbl.replace readers slot
                (List.filter (fun op -> not (List.memq op known)) ops @ known)
            | _ -> ())
          | _ -> ())
        f.body)
    image.program.funcs;
  let target (op : C.Operation.t) var =
    let ro =
      try A.Syncset.ro_set image.syncsets op.name
      with Invalid_argument _ -> SS.empty
    in
    if SS.mem var ro then Option.value (C.Layout.master_of layout var) ~default:0
    else
      match C.Image.meta_of image op.name with
      | Some meta -> C.Metadata.reloc_target meta var
      | None -> 0
  in
  let index (op : C.Operation.t) =
    let rec go i = function
      | [] -> -1
      | o :: rest -> if o == op then i else go (i + 1) rest
    in
    go 0 image.ops
  in
  let row a i = if i >= 0 && i < Array.length a then a.(i) else [||] in
  let has entries slot t =
    Array.exists
      (fun (s, v) -> s = slot && Int64.equal v (Int64.of_int t))
      entries
  in
  let err (op : C.Operation.t) fmt =
    Diag.vf ~code:"L013" Diag.Error (Diag.Operation op.name) fmt
  in
  let kept =
    Hashtbl.fold
      (fun slot ops acc ->
        let var = Hashtbl.find var_of_slot slot in
        let targets = List.map (fun op -> target op var) ops in
        let single = List.for_all (( = ) (List.hd targets)) targets in
        List.concat_map
          (fun (op : C.Operation.t) ->
            let t = target op var and i = index op in
            let untouched w = Array.for_all (fun (s, _) -> s <> slot) w in
            let written =
              has (row plan.on_switch i) slot t
              || single
                 && Array.for_all untouched plan.on_switch
                 && (has plan.once slot t
                    || (* [Image.load] points every slot at its master *)
                    (C.Layout.master_of layout var = Some t
                    && untouched plan.once))
            in
            (if written then []
             else
               [ err op
                   "reads the relocation slot of %s (0x%08X), but no write \
                    points it at the operation's target 0x%08X while the \
                    operation is current"
                   var slot t ])
            @
            if has (row plan.live i) slot t then []
            else
              [ err op
                  "reads the relocation slot of %s (0x%08X), but \
                   Monitor.verify does not check it"
                  var slot ])
          ops
        @ acc)
      readers []
  in
  let reads (op : C.Operation.t) slot =
    List.memq op (Option.value (Hashtbl.find_opt readers slot) ~default:[])
  in
  let extra =
    List.concat
      (List.mapi
         (fun i (op : C.Operation.t) ->
           List.filter_map
             (fun (slot, _) ->
               if reads op slot then None
               else
                 Some
                   (Diag.vf ~code:"L013" Diag.Warning (Diag.Operation op.name)
                      "checks or writes relocation slot 0x%08X, which no \
                       function of the operation reads"
                      slot))
             (Array.to_list (row plan.on_switch i)
             @ Array.to_list (row plan.live i)))
         image.ops)
  in
  List.sort_uniq compare (kept @ extra)

let live_relocation image =
  relocation_writes (Opec_monitor.Monitor.reloc_plan_of image) image

(* --- L014: direct grants ---------------------------------------------- *)

(* A shared global granted in place has no shadow to confine a bad write
   and no sync to sanitize it, so eligibility is recomputed here from the
   program, the operations, the developer input and the backend
   descriptor: users from the resource sets, writers from a fresh
   may-write analysis, the exact-grant test from the descriptor, and
   each operation's write permission from a fresh install of its plan. *)
let direct_grant (image : C.Image.t) =
  let l = image.layout and direct = image.layout.direct in
  if direct = []
     && List.for_all (fun (_, m) -> m.C.Metadata.grants = []) image.metas
  then []
  else
    let kind = image.backend in
    let desc = M.Backend.descriptor kind in
    let globals = Program.global_map image.source in
    let rw = A.Dataflow.analyze image.source image.points_to in
    let sanitized =
      List.map (fun (r : C.Dev_input.sanitize_rule) -> r.sz_global)
        image.input.sanitize
    in
    let err loc fmt = Diag.vf ~code:"L014" Diag.Error loc fmt in
    let size v = Global.size (Program.String_map.find v globals) in
    let span v = (v + 3) / 4 * 4 in
    (* every other object a grant must not reach *)
    let objects =
      let homes =
        Hashtbl.fold
          (fun v addr acc -> (v, addr, addr + size v) :: acc)
          l.var_home []
      and shadows =
        Hashtbl.fold
          (fun v homes acc ->
            List.map
              (fun (op, addr) -> (v ^ " (shadow in " ^ op ^ ")", addr, addr + size v))
              homes
            @ acc)
          l.shadow_addr []
      and sections =
        List.map
          (fun (n, (s : C.Layout.section)) ->
            ("data section of " ^ n, s.base, s.base + s.span))
          l.op_sections
        @ Option.to_list
            (Option.map
               (fun (h : C.Layout.section) -> ("heap section", h.base, h.base + h.span))
               l.heap_section)
      in
      (("relocation table", l.reloc_base,
        l.reloc_base + (4 * List.length l.reloc_slots))
      :: ("stack", l.stack_base, l.stack_top)
      :: homes)
      @ shadows @ sections
    in
    let installed =
      List.map
        (fun (op : C.Operation.t) ->
          let meta = C.Image.meta_of image op.name in
          let planned =
            match meta with
            | None -> Error "no metadata"
            | Some meta -> (
              try Ok (fst (C.Backend_plan.install kind ~image ~meta ~srd:0))
              with
              | Invalid_argument m | M.Mpu.Invalid_region m
              | M.Pmp.Invalid_entry m | M.Cheri.Invalid_cap m
              | M.Poe.Invalid_overlay m ->
                Error m)
          in
          (op, meta, planned))
        image.ops
    in
    let can_write st a =
      Result.is_ok
        (M.Backend.check st ~privileged:false ~addr:a ~access:M.Fault.Write)
    in
    let per_var v =
      let loc = Diag.Program in
      let g = Program.String_map.find v globals in
      let users =
        List.filter
          (fun (op : C.Operation.t) -> SS.mem v (C.Operation.accessible_globals op))
          image.ops
      in
      let writes (op : C.Operation.t) =
        SS.mem v (A.Dataflow.of_funcs rw op.funcs).A.Dataflow.writes
      in
      let lo = Option.value (C.Layout.master_of l v) ~default:0 in
      let hi = lo + span (Global.size g) in
      let bytes = List.init (hi - lo) (( + ) lo) in
      (match kind with
       | M.Backend.Mpu | M.Backend.Poe ->
         [ err loc
             "%s is granted in place on %s, whose windows cannot grant one \
              variable"
             v (M.Backend.kind_name kind) ]
       | M.Backend.Pmp | M.Backend.Cheri -> [])
      @ (if Global.pointer_field_offsets g <> [] then
           [ err loc
               "%s is granted in place but has pointer fields: a shadow fill \
                would localize them"
               v ]
         else [])
      @ (if List.mem v sanitized then
           [ err loc
               "%s is granted in place but has a sanitize rule: its writes \
                reach the master unchecked"
               v ]
         else [])
      @ (if List.length users < 2 then
           [ err loc "%s is granted in place but is not shared" v ]
         else [])
      @ (if C.Layout.reloc_slot l v <> None || Hashtbl.mem l.shadow_addr v then
           [ err loc "%s is granted in place but keeps a shadow or a relocation slot" v ]
         else [])
      @ (if not (M.Backend.grants_exactly desc ~base:lo ~len:(hi - lo)) then
           [ err loc
               "%s's grant [0x%08X,0x%08X) is not exact under the %s descriptor"
               v lo hi (M.Backend.kind_name kind) ]
         else [])
      @ List.concat_map
          (fun ((op : C.Operation.t), _, planned) ->
            let oloc = Diag.Operation op.name in
            let user = List.memq op users in
            match planned with
            | Error m ->
              [ err oloc "the plan holding %s's grant cannot be installed: %s" v m ]
            | Ok st ->
              if user && writes op
                 && not (List.for_all (can_write st) bytes)
              then
                [ err oloc "may write %s but holds no write grant over its master" v ]
              else if (not user) && List.exists (can_write st) bytes then
                [ err oloc "holds a write grant over %s, which it does not use" v ]
              else [])
          installed
    in
    (* each grant an operation's metadata carries must be one direct
       global's master span and reach no other object *)
    let per_grant ((op : C.Operation.t), meta, _) =
      let grants =
        match meta with Some m -> m.C.Metadata.grants | None -> []
      in
      (* on the PMP a grant may only take an entry no window needs *)
      (match (kind, meta) with
       | M.Backend.Pmp, Some meta when grants <> [] -> (
         match C.Backend_plan.rotation kind meta with
         | Some rot when rot.C.Backend_plan.needed > rot.C.Backend_plan.slots ->
           [ err (Diag.Operation op.name)
               "holds direct grants while %d peripheral window(s) rotate: a \
                grant took a window's entry"
               (rot.C.Backend_plan.needed - rot.C.Backend_plan.slots) ]
         | _ -> [])
       | _ -> [])
      @ List.concat_map
        (fun (v, lo, len) ->
          let loc = Diag.Operation op.name in
          let hi = lo + len in
          (if List.mem v direct then []
           else [ err loc "holds a grant over %s, which is not granted in place" v ])
          @ List.filter_map
              (fun (name, a, b) ->
                if String.equal name v || b <= lo || a >= hi then None
                else
                  Some
                    (err loc
                       "grant of %s [0x%08X,0x%08X) covers a byte of %s \
                        [0x%08X,0x%08X)"
                       v lo hi name a b))
              objects)
        grants
    in
    List.sort_uniq compare
      (List.concat_map per_var direct @ List.concat_map per_grant installed)

(* --- L008: layout consistency ------------------------------------------- *)

let layout_consistency (image : C.Image.t) =
  let l = image.layout in
  (* operation and heap sections own the full span their backend window
     reserves; the public section is privileged-only and owns just its
     used bytes. *)
  let span ~aligned (s : C.Layout.section) =
    (s.base, s.base + if aligned then s.span else max s.used 4)
  in
  let sections =
    (("public", span ~aligned:false l.public)
    :: List.map (fun (n, s) -> (n, span ~aligned:true s)) l.op_sections)
    @ (match l.heap_section with
      | Some h -> [ ("heap", span ~aligned:true h) ]
      | None -> [])
    @ [ ("stack", (l.stack_base, l.stack_top)) ]
  in
  let bounds =
    List.concat_map
      (fun (n, (lo, hi)) ->
        if lo < l.data_base || hi > l.data_limit then
          [ Diag.vf ~code:"L008" Diag.Error (Diag.Operation n)
              "section [0x%08X,0x%08X) escapes the SRAM data window \
               [0x%08X,0x%08X)"
              lo hi l.data_base l.data_limit ]
        else [])
      sections
  in
  let rec overlaps = function
    | [] -> []
    | (n1, (lo1, hi1)) :: rest ->
      List.concat_map
        (fun (n2, (lo2, hi2)) ->
          if lo1 < hi2 && lo2 < hi1 then
            [ Diag.vf ~code:"L008" Diag.Error (Diag.Operation n1)
                "section [0x%08X,0x%08X) overlaps section %s \
                 [0x%08X,0x%08X): one operation could reach another's data"
                lo1 hi1 n2 lo2 hi2 ]
          else [])
        rest
      @ overlaps rest
  in
  let fit =
    List.concat_map
      (fun (n, (s : C.Layout.section)) ->
        if s.used > s.span then
          [ Diag.vf ~code:"L008" Diag.Error (Diag.Operation n)
              "section packs %d bytes into a %d-byte window" s.used s.span ]
        else [])
      l.op_sections
  in
  let globals = Program.global_map image.source in
  let addressing =
    List.concat_map
      (fun (op : C.Operation.t) ->
        SS.fold
          (fun g acc ->
            match Program.String_map.find_opt g globals with
            | None -> acc (* L004 territory: not a program global *)
            | Some gl when gl.const || gl.heap -> acc
            | Some _ ->
              let need what = function
                | Some _ -> []
                | None ->
                  [ Diag.vf ~code:"L008" Diag.Error (Diag.Operation op.name)
                      "accessible global %s has no %s: instrumentation \
                       cannot address it"
                      g what ]
              in
              (if C.Layout.is_external l g then
                 need "shadow slot" (C.Layout.shadow_of l ~op:op.name ~var:g)
                 @ need "relocation slot" (C.Layout.reloc_slot l g)
                 @ need "master address" (C.Layout.master_of l g)
               else need "home address" (C.Layout.master_of l g))
              @ acc)
          (C.Operation.accessible_globals op)
          [])
      image.ops
  in
  bounds @ overlaps sections @ fit @ addressing
