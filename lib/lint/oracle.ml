(* L007: dynamic trace oracle (see oracle.mli).

   The baseline interpreter records Call/Return events and — with the
   trace's [mem] flag set — every MPU-visible load and store.  Walking
   that stream with a stack of active operations reproduces exactly the
   attribution the monitor would make at runtime: an access belongs to
   the innermost entered operation, because that is the operation whose
   MPU plan would be live. *)

open Opec_ir
module C = Opec_core
module A = Opec_analysis
module M = Opec_machine
module E = Opec_exec
module SS = A.Resource.SS

(* Sorted interval table of the baseline's globals, searched per access. *)
type interval = {
  lo : int;
  hi : int;
  g_name : string;
  g_const : bool;
}

let interval_table (image : C.Image.t) (map : E.Address_map.t) =
  let arr =
    List.map
      (fun (g : Global.t) ->
        let lo = map.global_addr g.name in
        { lo; hi = lo + Global.size g; g_name = g.name; g_const = g.const })
      image.source.globals
    |> List.sort (fun a b -> Int.compare a.lo b.lo)
    |> Array.of_list
  in
  fun addr ->
    let rec bsearch l r =
      if l >= r then None
      else
        let m = (l + r) / 2 in
        let iv = arr.(m) in
        if addr < iv.lo then bsearch l m
        else if addr >= iv.hi then bsearch (m + 1) r
        else Some iv
    in
    bsearch 0 (Array.length arr)

(* Walk a recorded baseline trace (however it was produced — a private
   replay or the pipeline's memoized traced run) against the image's
   static policy.  [failure] is the exception that ended the replay, if
   any. *)
let check_trace ~(map : E.Address_map.t) ~(events : E.Trace.event list)
    ~(failure : exn option) (image : C.Image.t) =
  let run_failure =
    match failure with
    | None -> []
    | Some (E.Interp.Aborted msg) ->
      [ Diag.vf ~code:"L007" Diag.Error Diag.Program
          "baseline replay aborted (%s): no trace to check" msg ]
    | Some E.Interp.Fuel_exhausted ->
      [ Diag.v ~code:"L007" Diag.Error Diag.Program
          "baseline replay ran out of fuel: no complete trace to check" ]
    | Some e ->
      [ Diag.vf ~code:"L007" Diag.Error Diag.Program
          "baseline replay failed (%s): no trace to check"
          (Printexc.to_string e) ]
  in
  let find_global = interval_table image map in
  let op_of_entry = Hashtbl.create 8 in
  List.iter
    (fun (op : C.Operation.t) -> Hashtbl.replace op_of_entry op.entry op)
    image.ops;
  Hashtbl.replace op_of_entry image.source.main (C.Image.default_op image);
  let seen = Hashtbl.create 64 in
  let diags = ref (List.rev run_failure) in
  let report key d =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      diags := d :: !diags
    end
  in
  let stack = ref [] in
  let current () =
    match !stack with op :: _ -> op | [] -> C.Image.default_op image
  in
  let on_access addr write =
    let op = current () in
    let opn = op.C.Operation.name in
    let kind = if write then "write" else "read" in
    if addr >= map.stack_base && addr < map.stack_top then ()
    else
      match find_global addr with
      | Some iv when iv.g_const ->
        if write then
          report
            ("wconst:" ^ opn ^ ":" ^ iv.g_name)
            (Diag.vf ~code:"L007" Diag.Error (Diag.Operation opn)
               "trace writes read-only global %s (at 0x%08X)" iv.g_name addr)
      | Some iv ->
        if not (SS.mem iv.g_name (C.Operation.accessible_globals op)) then
          report
            ("g:" ^ opn ^ ":" ^ iv.g_name)
            (Diag.vf ~code:"L007" Diag.Error (Diag.Operation opn)
               "trace %ss global %s (at 0x%08X) absent from the operation's \
                static resource set: this access would fault under the MPU"
               kind iv.g_name addr)
      | None -> (
        match Peripheral.find image.source.peripherals addr with
        | Some p ->
          let allowed =
            if p.core then
              C.Operation.uses_core_peripheral op p.Peripheral.name
            else C.Operation.uses_peripheral op p.Peripheral.name
          in
          if not allowed then
            report
              ("p:" ^ opn ^ ":" ^ p.Peripheral.name)
              (Diag.vf ~code:"L007" Diag.Error (Diag.Operation opn)
                 "trace %ss peripheral %s (at 0x%08X) absent from the \
                  operation's static resource set"
                 kind p.Peripheral.name addr)
        | None -> (
          match M.Memmap.classify addr with
          | M.Memmap.Code ->
            if write then
              report
                (Printf.sprintf "wflash:%s:0x%X" opn addr)
                (Diag.vf ~code:"L007" Diag.Error (Diag.Operation opn)
                   "trace writes flash at 0x%08X" addr)
          | M.Memmap.Ppb ->
            report
              (Printf.sprintf "ppb:%s:0x%X" opn addr)
              (Diag.vf ~code:"L007" Diag.Warning (Diag.Address addr)
                 "access to the private peripheral bus outside the modeled \
                  datasheet (operation %s)"
                 opn)
          | _ ->
            report
              (Printf.sprintf "unk:%s:0x%X" opn addr)
              (Diag.vf ~code:"L007" Diag.Warning (Diag.Address addr)
                 "%s of an address in no global, stack, or datasheet window \
                  (operation %s)"
                 kind opn)))
  in
  let on_call f =
    match Hashtbl.find_opt op_of_entry f with
    | Some op -> stack := op :: !stack
    | None ->
      let op = current () in
      if not (SS.mem f op.C.Operation.funcs) then
        report
          ("f:" ^ op.C.Operation.name ^ ":" ^ f)
          (Diag.vf ~code:"L007" Diag.Error (Diag.Function f)
             "trace executes this function inside operation %s, which does \
              not contain it"
             op.C.Operation.name)
  in
  let on_return f =
    match !stack with
    | op :: rest when String.equal op.C.Operation.entry f -> stack := rest
    | _ -> ()
  in
  List.iter
    (fun (ev : E.Trace.event) ->
      match ev with
      | E.Trace.Call f | E.Trace.Op_enter f -> on_call f
      | E.Trace.Return f | E.Trace.Op_exit f -> on_return f
      | E.Trace.Access { addr; write } -> on_access addr write)
    events;
  List.rev !diags

(* Replay the mem-traced baseline, running [check] over the stream. *)
let replayed ~devices (image : C.Image.t) check =
  let module Mon = Opec_monitor in
  let r =
    Mon.Runner.prepare_baseline ~devices ~trace:true ~board:image.board
      image.source
  in
  let tr = E.Interp.trace r.b_interp in
  tr.E.Trace.mem <- true;
  let failure =
    match E.Interp.run r.b_interp with
    | () -> None
    | exception (E.Interp.Aborted _ as e) -> Some e
    | exception (E.Interp.Fuel_exhausted as e) -> Some e
  in
  check ~map:r.b_layout.E.Vanilla_layout.map ~events:(E.Trace.events tr)
    ~failure image

let check ?(devices = []) (image : C.Image.t) =
  replayed ~devices image check_trace

(* L011: the sync-schedule soundness oracle.

   Replays the mem-traced baseline and simulates the monitor's
   schedule-driven copies on top of it as value *generations*: every
   observed write bumps its global's generation into the writer's
   shadow; scheduled sync-outs publish the shadow's generation to the
   master; scheduled sync-ins refresh the reader's shadow from the
   master.  A read whose shadow generation differs from the baseline's
   latest is a stale-read hazard — the protected run would observe a
   value the unprotected one would not.  Writes are also checked against
   the static may-write sets, the other half of the schedule's soundness
   argument (a write outside may-write is one no sync-out publishes). *)
let check_sync_trace ~(map : E.Address_map.t) ~(events : E.Trace.event list)
    ~(failure : exn option) (image : C.Image.t) =
  match failure with
  | Some _ -> [] (* L007 already reports the failed replay *)
  | None ->
    let module Ss = A.Syncset in
    let ss = image.syncsets in
    let find_global = interval_table image map in
    let op_of_entry = Hashtbl.create 8 in
    List.iter
      (fun (op : C.Operation.t) -> Hashtbl.replace op_of_entry op.entry op)
      image.ops;
    Hashtbl.replace op_of_entry image.source.main (C.Image.default_op image);
    let seen = Hashtbl.create 64 in
    let diags = ref [] in
    let report key d =
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        diags := d :: !diags
      end
    in
    let stack = ref [] in
    let current () =
      match !stack with op :: _ -> op | [] -> C.Image.default_op image
    in
    (* accessors total over unknown operations, so a stale schedule
       (L009 territory) degrades to empty sets instead of raising *)
    let set f opn = try f ss opn with Invalid_argument _ -> SS.empty in
    let resume ~src ~dst =
      try Ss.resume_set ss ~src ~dst
      with Invalid_argument _ -> set Ss.enter_set dst
    in
    (* generation state: [gen] is the baseline's latest write; [master]
       and [shadow] are what the protected memories would hold *)
    let gen : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let master : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let shadow : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
    let g tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
    let sync_out opn =
      SS.iter
        (fun v -> Hashtbl.replace master v (g shadow (opn, v)))
        (set Ss.out_set opn)
    in
    let sync_in opn vars =
      SS.iter (fun v -> Hashtbl.replace shadow (opn, v) (g master v)) vars
    in
    let on_access addr write =
      let op = current () in
      let opn = op.C.Operation.name in
      if addr >= map.stack_base && addr < map.stack_top then ()
      else
        match find_global addr with
        | None -> ()
        | Some iv when iv.g_const -> () (* write-to-const is L007 territory *)
        | Some iv ->
          let v = iv.g_name in
          let external_ = C.Layout.is_external image.layout v in
          let slotted = SS.mem v (set Ss.slots_of opn) in
          if write then begin
            if not (SS.mem v (set Ss.may_write opn)) then
              report
                ("w:" ^ opn ^ ":" ^ v)
                (Diag.vf ~code:"L011" Diag.Error (Diag.Operation opn)
                   "observed write to global %s outside the operation's \
                    static may-write set: no sync-out would publish it"
                   v);
            let n = g gen v + 1 in
            Hashtbl.replace gen v n;
            if not external_ then Hashtbl.replace master v n
            else if slotted then Hashtbl.replace shadow (opn, v) n
            (* external but unslotted: the access faults (L007) *)
          end
          else if external_ && slotted then
            if SS.mem v (set Ss.ro_set opn) then begin
              (* read-only master mapping: the protected run reads the
                 master directly, so staleness means a writer's sync-out
                 never reached the public section *)
              if g master v <> g gen v then
                report
                  ("ro:" ^ opn ^ ":" ^ v)
                  (Diag.vf ~code:"L011" Diag.Error (Diag.Operation opn)
                     "stale read of global %s through its read-only master \
                      mapping: a write was never published to the master"
                     v)
            end
            else if g shadow (opn, v) <> g gen v then
              report
                ("r:" ^ opn ^ ":" ^ v)
                (Diag.vf ~code:"L011" Diag.Error (Diag.Operation opn)
                   "stale read of global %s: the shadow misses a write no \
                    scheduled copy delivered"
                   v)
    in
    let on_call f =
      match Hashtbl.find_opt op_of_entry f with
      | Some op ->
        (* the monitor's enter protocol: publish the interrupted
           operation's dirty slots, fill the entered one's enter set *)
        sync_out (current ()).C.Operation.name;
        sync_in op.C.Operation.name (set Ss.enter_set op.C.Operation.name);
        stack := op :: !stack
      | None -> ()
    in
    let on_return f =
      match !stack with
      | op :: rest when String.equal op.C.Operation.entry f ->
        (* the exit protocol: publish the exiting operation, refill the
           resumed one's pair-scheduled resume set *)
        sync_out op.C.Operation.name;
        stack := rest;
        let dst = (current ()).C.Operation.name in
        sync_in dst (resume ~src:op.C.Operation.name ~dst)
      | _ -> ()
    in
    List.iter
      (fun (ev : E.Trace.event) ->
        match ev with
        | E.Trace.Call f | E.Trace.Op_enter f -> on_call f
        | E.Trace.Return f | E.Trace.Op_exit f -> on_return f
        | E.Trace.Access { addr; write } -> on_access addr write)
      events;
    List.rev !diags

let check_sync ?(devices = []) (image : C.Image.t) =
  replayed ~devices image check_sync_trace
