(* The five differential oracles of the fuzzer.

   All of them consume the compile-once pipeline's memoized artifacts
   where possible; only the engine differential and transparency (its
   protected run checks [Monitor.verify] at every switch) pay for
   private runs. *)

module P = Opec_pipeline.Pipeline
module C = Opec_core
module M = Opec_machine
module Ex = Opec_exec
module Mon = Opec_monitor
module Apps = Opec_apps
module L = Opec_lint
module Atk = Opec_attack

type outcome = Pass | Fail of string

type property = {
  name : string;
  doc : string;
  check : ?image:C.Image.t -> P.ctx -> outcome;
}

let image_of ?image c = match image with Some i -> i | None -> P.image c

let failf fmt = Format.kasprintf (fun s -> Fail s) fmt

(* --- lint-static ------------------------------------------------------- *)

let lint_static ?image c =
  let diags = L.Lint.run ~dynamic:false (image_of ?image c) in
  match L.Lint.errors diags with
  | [] -> Pass
  | errs ->
    failf "%d lint error(s): %a" (List.length errs)
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ")
         L.Diag.pp)
      errs

(* --- trace-oracle ------------------------------------------------------ *)

(* every access of the traced baseline must be inside the static
   resource prediction of the operation active at that point (L007) *)
let trace_oracle ?image c =
  let img = image_of ?image c in
  let b = P.baseline_traced c in
  let map = b.P.b_run.Mon.Runner.b_layout.Ex.Vanilla_layout.map in
  let diags =
    L.Oracle.check_trace ~map ~events:b.P.b_events ~failure:b.P.b_err img
  in
  match L.Lint.errors diags with
  | [] -> Pass
  | errs ->
    failf "%d unpredicted access(es): %a" (List.length errs)
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ")
         L.Diag.pp)
      errs

(* --- transparency ------------------------------------------------------ *)

let snapshot_baseline (b : P.baseline) program =
  Atk.Snapshot.baseline b.P.b_run.Mon.Runner.b_bus
    ~map:b.P.b_run.Mon.Runner.b_layout.Ex.Vanilla_layout.map program

(* The program's own final view of each global: the run halts inside
   the default operation, whose trailing writes live in its shadows —
   the masters are only as fresh as the last operation switch.  So read
   the default op's shadow where the sync schedule keeps one fresh
   (slots in the default op's relevant set) and the master otherwise:
   a shadow outside the relevant set is never refilled under
   incremental synchronization, while its master was published by the
   writing operation's last sync-out. *)
let snapshot_final_view bus (img : C.Image.t) =
  let layout = img.C.Image.layout in
  let dop = (C.Image.default_op img).C.Operation.name in
  let module Ss = Opec_analysis.Syncset in
  let relevant =
    try Ss.relevant_set img.C.Image.syncsets dop
    with Invalid_argument _ -> Ss.SS.empty
  in
  let ro =
    try Ss.ro_set img.C.Image.syncsets dop
    with Invalid_argument _ -> Ss.SS.empty
  in
  let hex addr size =
    String.concat ""
      (List.init size (fun i ->
           Printf.sprintf "%02LX" (M.Bus.read_raw bus (addr + i) 1)))
  in
  List.filter_map
    (fun (g : Opec_ir.Global.t) ->
      let name = g.Opec_ir.Global.name in
      let home =
        (* a read-only master mapping leaves the shadow dead: the
           operation's view *is* the master *)
        if Ss.SS.mem name relevant && not (Ss.SS.mem name ro) then
          match C.Layout.shadow_of layout ~op:dop ~var:name with
          | Some s -> Some s
          | None -> C.Layout.master_of layout name
        else C.Layout.master_of layout name
      in
      match home with
      | Some addr -> Some (name, hex addr (Opec_ir.Global.size g))
      | None -> None)
    img.C.Image.source.Opec_ir.Program.globals

let compare_observable ?(exclude = Opec_analysis.Syncset.SS.empty) program
    ~baseline ~protected_ =
  let diffs =
    List.filter_map
      (fun g ->
        if Opec_analysis.Syncset.SS.mem g exclude then None
        else
          let b = List.assoc_opt g baseline
          and p = List.assoc_opt g protected_ in
          if b = p then None
          else
            Some
              (Printf.sprintf "%s: baseline=%s protected=%s" g
                 (Option.value b ~default:"<absent>")
                 (Option.value p ~default:"<absent>")))
      (Gen.observable program)
  in
  match diffs with
  | [] -> Pass
  | ds -> Fail ("final state diverged: " ^ String.concat "; " ds)

(* One protected run of [img] from reset with [Monitor.verify] after
   init and after every operation enter and exit: the final view, the
   exception [catch] accepted, and the first verify failure. *)
let verified_run ~catch app img =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let monitor = ref None and unverified = ref None in
  let report at = function
    | Ok () -> ()
    | Error e ->
      if Option.is_none !unverified then unverified := Some (at ^ ": " ^ e)
  in
  let run () =
    let r =
      Mon.Runner.prepare ~devices:world.Apps.App.devices
        ~wrap_handler:
          (Mon.Monitor.verifying ~monitor:(fun () -> !monitor) ~report)
        img
    in
    monitor := Some r.Mon.Runner.monitor;
    Mon.Monitor.init r.Mon.Runner.monitor;
    report "init" (Mon.Monitor.verify r.Mon.Runner.monitor);
    Ex.Interp.run ~reset_stack:false r.Mon.Runner.interp;
    snapshot_final_view r.Mon.Runner.bus img
  in
  let mem, err =
    match run () with
    | mem -> (mem, None)
    | exception e when catch e -> ([], Some e)
  in
  (mem, err, !unverified)

(* One backend's verdict: [img]'s verified protected run against the
   baseline [b]. *)
let transparent ~catch ~program (b : P.baseline) app (img : C.Image.t) =
  let p_mem, p_err, unverified = verified_run ~catch app img in
  match unverified with
  | Some e -> failf "Monitor.verify failed after %s" e
  | None ->
    match (b.P.b_err, p_err) with
    | Some _, Some _ ->
      (* both runs died: the protection did not change how the program
         terminates, which is all transparency asks of a crashing input
         (the trace oracle separately flags crashing baselines) *)
      Pass
    | Some e, None -> failf "baseline died, protected ran: %s" (Printexc.to_string e)
    | None, Some e -> failf "protected died, baseline ran: %s" (Printexc.to_string e)
    | None, None ->
      (* dead publishes: a write no other operation can observe is never
         synced out, so its master (the external view) is legitimately
         stale — the schedule's dead-publish filter names exactly these *)
      let exclude =
        try Opec_analysis.Syncset.unobserved img.C.Image.syncsets
        with Invalid_argument _ -> Opec_analysis.Syncset.SS.empty
      in
      compare_observable ~exclude program
        ~baseline:(snapshot_baseline b program) ~protected_:p_mem

(* The MPU image, then the PMP and CHERI images, whose data plans grant
   shared scalars in place, and the POE image, whose keyless windows
   recycle keys.  A substitute image ([?image], the defect
   gate) is MPU-built, so it gates only the MPU run. *)
let transparency ?image c =
  let program = P.validated c in
  let b = P.baseline c in
  let app = P.app c in
  (* a defect gate's substitute image may break the monitor in any way;
     the pipeline's own image dies only the way its stages do *)
  let catch =
    match image with
    | Some _ -> fun _ -> true
    | None -> (
      function
      | Ex.Interp.Aborted _ | Ex.Interp.Fuel_exhausted -> true | _ -> false)
  in
  let judge verdict backend =
    match verdict with
    | Fail _ -> verdict
    | Pass -> (
      let bc = P.ctx ~backend app in
      let v = transparent ~catch ~program b app (P.image bc) in
      P.evict bc;
      match v with
      | Pass -> Pass
      | Fail e -> failf "%s: %s" (M.Backend.kind_name backend) e)
  in
  List.fold_left judge
    (transparent ~catch ~program b app (image_of ?image c))
    (if Option.is_none image then
       [ M.Backend.Pmp; M.Backend.Cheri; M.Backend.Poe ]
     else [])

(* --- sync-soundness ----------------------------------------------------- *)

(* Write-set soundness plus stale-read freedom of the static sync
   schedule.  The write half is recomputed from raw trace attribution
   ({!Opec_exec.Trace.writes_by_context}) — a deliberately independent
   path from the lint walker — and the stale-read half replays the
   generation simulation of lint L011. *)
let sync_soundness ?image c =
  let img = image_of ?image c in
  let b = P.baseline_traced c in
  match b.P.b_err with
  | Some _ -> Pass (* crashing baselines are the trace oracle's concern *)
  | None ->
    let map = b.P.b_run.Mon.Runner.b_layout.Ex.Vanilla_layout.map in
    let module Ss = Opec_analysis.Syncset in
    let ss = img.C.Image.syncsets in
    let op_of_entry = Hashtbl.create 8 in
    List.iter
      (fun (op : C.Operation.t) ->
        Hashtbl.replace op_of_entry op.C.Operation.entry op.C.Operation.name)
      img.C.Image.ops;
    let dop = (C.Image.default_op img).C.Operation.name in
    Hashtbl.replace op_of_entry img.C.Image.source.Opec_ir.Program.main dop;
    let resolve =
      let ivs =
        List.filter_map
          (fun (g : Opec_ir.Global.t) ->
            if g.Opec_ir.Global.const then None
            else
              let lo = map.Ex.Address_map.global_addr g.Opec_ir.Global.name in
              Some (lo, lo + Opec_ir.Global.size g, g.Opec_ir.Global.name))
          img.C.Image.source.Opec_ir.Program.globals
      in
      fun addr ->
        List.find_map
          (fun (lo, hi, n) -> if addr >= lo && addr < hi then Some n else None)
          ivs
    in
    let observed =
      Ex.Trace.writes_by_context
        ~contexts:(Hashtbl.mem op_of_entry)
        ~default:img.C.Image.source.Opec_ir.Program.main ~resolve b.P.b_events
    in
    let unsound =
      List.filter_map
        (fun (ctx, v) ->
          let opn = Option.value (Hashtbl.find_opt op_of_entry ctx) ~default:dop in
          let mw = try Ss.may_write ss opn with Invalid_argument _ -> Ss.SS.empty in
          if Ss.SS.mem v mw then None
          else Some (Printf.sprintf "%s writes %s outside may-write" opn v))
        observed
    in
    let stale =
      L.Oracle.check_sync_trace ~map ~events:b.P.b_events ~failure:None img
      |> L.Lint.errors
      |> List.map (Format.asprintf "%a" L.Diag.pp)
    in
    (match unsound @ stale with
    | [] -> Pass
    | problems -> Fail (String.concat "; " problems))

(* --- engine-differential ----------------------------------------------- *)

type observation = {
  o_cycles : int64;
  o_events : Ex.Trace.event list;
  o_mem : Atk.Snapshot.t;
  o_check : (unit, string) result;
  o_err : string option;
}

let baseline_obs (app : Apps.App.t) engine =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  try
    let r =
      Mon.Runner.run_baseline ~devices:world.Apps.App.devices ~engine
        ~trace:true ~board:app.Apps.App.board app.Apps.App.program
    in
    { o_cycles = Ex.Interp.cycles r.Mon.Runner.b_interp;
      o_events = Ex.Trace.events (Ex.Interp.trace r.Mon.Runner.b_interp);
      o_mem =
        Atk.Snapshot.baseline r.Mon.Runner.b_bus
          ~map:r.Mon.Runner.b_layout.Ex.Vanilla_layout.map
          app.Apps.App.program;
      o_check = world.Apps.App.check ();
      o_err = None }
  with e ->
    { o_cycles = 0L; o_events = []; o_mem = []; o_check = Ok ();
      o_err = Some (Printexc.to_string e) }

let protected_observation (app : Apps.App.t) image engine =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  try
    let r =
      Mon.Runner.run_protected ~devices:world.Apps.App.devices ~engine
        ~trace:true image
    in
    { o_cycles = Ex.Interp.cycles r.Mon.Runner.interp;
      o_events = Ex.Trace.events (Ex.Interp.trace r.Mon.Runner.interp);
      o_mem = Atk.Snapshot.protected_ r.Mon.Runner.bus image;
      o_check = world.Apps.App.check ();
      o_err = None }
  with e ->
    { o_cycles = 0L; o_events = []; o_mem = []; o_check = Ok ();
      o_err = Some (Printexc.to_string e) }

let same_observation what a b =
  if a.o_err <> b.o_err then
    Some
      (Printf.sprintf "%s: termination differs (tree %s, compiled %s)" what
         (Option.value a.o_err ~default:"ok")
         (Option.value b.o_err ~default:"ok"))
  else if a.o_cycles <> b.o_cycles then
    Some
      (Printf.sprintf "%s: cycles differ (tree %Ld, compiled %Ld)" what
         a.o_cycles b.o_cycles)
  else if a.o_events <> b.o_events then
    Some (Printf.sprintf "%s: trace events differ" what)
  else if a.o_mem <> b.o_mem then
    Some (Printf.sprintf "%s: final memory differs" what)
  else if a.o_check <> b.o_check then
    Some (Printf.sprintf "%s: world checks differ" what)
  else None

let engine_differential ?image c =
  let app = P.app c in
  let img = image_of ?image c in
  (* the tree walker is the reference; the closure-compiled engine must
     match it bit for bit *)
  let problems =
    List.filter_map Fun.id
      [ same_observation "baseline" (baseline_obs app Ex.Interp.Tree)
          (baseline_obs app Ex.Interp.Compiled);
        same_observation "protected"
          (protected_observation app img Ex.Interp.Tree)
          (protected_observation app img Ex.Interp.Compiled) ]
  in
  match problems with [] -> Pass | ps -> Fail (String.concat "; " ps)

(* --- backend-containment ------------------------------------------------ *)

(* No attack primitive escapes under ANY enforcement backend, and every
   backend's clean protected run is denial-free with its telemetry
   stream agreeing with the monitor's own counter.  Only [Escaped] is a
   security failure: [Contained] and [Crashed] are the residual the
   paper's threat model concedes (a compromised operation may corrupt,
   or crash on, anything already inside its own policy; it must never
   reach across the boundary).  A substitute image ([?image], the
   defect gate) is MPU-built, so it is judged on the MPU column alone,
   and privately: it has no memoized run to reconcile. *)
let backend_containment ?image c =
  let app = P.app c in
  let backends =
    match image with Some _ -> [ M.Backend.Mpu ] | None -> M.Backend.all_kinds
  in
  let problems =
    List.concat_map
      (fun backend ->
        let bname = M.Backend.kind_name backend in
        let escaped =
          let cells = Atk.Campaign.run_opec_only ~backend ?image app in
          List.filter_map
            (fun (cl : Atk.Campaign.cell) ->
              if cl.Atk.Campaign.outcome = Atk.Campaign.Escaped then
                Some
                  (Printf.sprintf "%s: %s in %s escaped (%s)" bname
                     (Atk.Primitive.name cl.Atk.Campaign.injection.primitive)
                     cl.Atk.Campaign.injection.op.C.Operation.name
                     cl.Atk.Campaign.detail)
              else None)
            cells
        in
        let reconcile =
          match image with
          | Some _ -> []
          | None ->
            let p = P.protected_ (P.ctx ~backend app) in
            let denied = p.P.p_stats.Mon.Stats.denied in
            let denial_events =
              List.length
                (List.filter
                   (function Opec_obs.Sink.Denial _ -> true | _ -> false)
                   p.P.p_events)
            in
            (if denial_events <> denied then
               [ Printf.sprintf
                   "%s: %d denial events in telemetry but the monitor \
                    counted %d"
                   bname denial_events denied ]
             else [])
            @
            if denied <> 0 then
              [ Printf.sprintf
                  "%s: clean protected run denied %d accesses (protection \
                   must be transparent for benign runs)"
                  bname denied ]
            else []
        in
        (* generated programs flow through here by the thousands: drop
           the per-backend artifacts once judged (the default context is
           the caller's to evict) *)
        if backend <> M.Backend.Mpu then P.evict (P.ctx ~backend app);
        escaped @ reconcile)
      backends
  in
  match problems with [] -> Pass | ps -> Fail (String.concat "; " ps)

(* --- registry ---------------------------------------------------------- *)

let all =
  [ { name = "lint-static";
      doc = "static policy verification (L001-L010) reports no errors";
      check = lint_static };
    { name = "trace-oracle";
      doc = "every traced baseline access is statically predicted (L007)";
      check = trace_oracle };
    { name = "sync-soundness";
      doc =
        "observed writes inside the static may-write sets; no read sees a \
         shadow the sync schedule failed to refresh (L011)";
      check = sync_soundness };
    { name = "transparency";
      doc =
        "baseline and protected runs (MPU, PMP, CHERI) agree on all \
         observable globals, and Monitor.verify holds after init and every \
         switch";
      check = transparency };
    { name = "engine-differential";
      doc =
        "tree-walking and closure-compiled engines are bit-identical";
      check = engine_differential };
    { name = "backend-containment";
      doc =
        "no attack primitive escapes under any enforcement backend, and \
         denial telemetry reconciles with the monitor's counter";
      check = backend_containment } ]

let find name = List.find_opt (fun p -> p.name = name) all

let check_app ?image ?(properties = all) app =
  let c = P.ctx app in
  let fails =
    List.filter_map
      (fun pr ->
        let verdict =
          try pr.check ?image c
          with e -> failf "oracle raised: %s" (Printexc.to_string e)
        in
        match verdict with Pass -> None | Fail d -> Some (pr.name, d))
      properties
  in
  P.evict c;
  fails
