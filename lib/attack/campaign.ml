(* The campaign runner: execute every (primitive × defense) cell for an
   app and classify the outcomes.

   Defenses: the vanilla baseline (privileged, MPU off), the three ACES
   strategies (modeled by the {!Aces_policy} oracle on the vanilla
   machine), and OPEC (the real monitor on the protected image).  Every
   cell is a fresh machine; attacked end states are diffed against a
   clean run of the same defense, so the only difference is the
   injection itself.  All inputs are deterministic, so two campaigns
   over the same app are byte-identical. *)

module M = Opec_machine
module C = Opec_core
module E = Opec_exec
module Mon = Opec_monitor
module A = Opec_aces
module Apps = Opec_apps
module P = Opec_pipeline.Pipeline

type defense = Vanilla | Aces of A.Strategy.kind | Opec

let defenses =
  [ Vanilla;
    Aces A.Strategy.Filename;
    Aces A.Strategy.Filename_no_opt;
    Aces A.Strategy.By_peripheral;
    Opec ]

let defense_name = function
  | Vanilla -> "vanilla"
  | Aces k -> A.Strategy.name k
  | Opec -> "OPEC"

type outcome =
  | Blocked    (** the defense trapped the injection *)
  | Contained  (** performed, but corruption stayed inside the
                   attacking operation's policy *)
  | Escaped    (** out-of-policy state or a non-owned peripheral
                   changed *)
  | Crashed    (** the device died without the defense trapping the
                   attack *)

let outcome_name = function
  | Blocked -> "blocked"
  | Contained -> "contained"
  | Escaped -> "escaped"
  | Crashed -> "crashed"

type cell = {
  defense : defense;
  injection : Planner.injection;
  outcome : outcome;
  detail : string;
}

type matrix = {
  app : string;
  injections : Planner.injection list;
  cells : cell list;
      (** row-major: for each injection, one cell per defense *)
}

(* --- classification ------------------------------------------------------ *)

let classify ~defense (inj : Planner.injection) (evidence : Inject.evidence)
    ~err ~changed =
  let accessible = C.Operation.accessible_globals inj.Planner.op in
  let outside =
    List.filter
      (fun g -> not (C.Operation.SS.mem g accessible))
      changed
  in
  let diff_note =
    match outside with
    | [] -> ""
    | gs -> "; out-of-operation state changed: " ^ String.concat ", " gs
  in
  match evidence with
  | Inject.Not_fired ->
    ( Crashed,
      match err with
      | Some e -> "injection never fired; the run ended first: " ^ e
      | None -> "injection never fired: trigger entry not reached" )
  | Inject.Faulted { detail } -> (
    match defense with
    | Vanilla -> (Crashed, "hard fault, no recovery: " ^ detail)
    | Aces _ | Opec -> (Blocked, detail))
  | Inject.Svc_ignored -> (
    match defense with
    | Vanilla -> (Crashed, "stray SVC with no supervisor: hard fault")
    | Aces _ | Opec -> (Blocked, "the dispatcher ignored the forged id"))
  | Inject.Performed { detail; corroborate } -> (
    match err with
    | Some e -> (Crashed, detail ^ "; the run then died: " ^ e)
    | None ->
      if not corroborate then (Escaped, detail ^ diff_note)
      else if outside <> [] then (Escaped, detail ^ diff_note)
      else
        ( Contained,
          detail ^ "; end-state diff confined to the operation's policy" ))

(* --- per-cell execution -------------------------------------------------- *)

let run_to_end run =
  match run () with
  | () -> None
  | exception E.Interp.Aborted msg -> Some msg
  | exception E.Interp.Fuel_exhausted -> Some "fuel exhausted"
  | exception M.Fault.Usage msg -> Some ("usage fault: " ^ msg)
  | exception Invalid_argument msg -> Some ("monitor rejected: " ^ msg)

let opec_cell (app : Apps.App.t) (image : C.Image.t) ~clean inj =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let injector =
    Inject.create ~mode:Inject.Mpu_enforced
      ~global_addr:(fun v ->
        match C.Layout.master_of image.C.Image.layout v with
        | Some a -> a
        | None -> image.C.Image.map.E.Address_map.global_addr v)
      inj
  in
  let r =
    Mon.Runner.prepare ~devices:world.Apps.App.devices
      ~wrap_handler:(Inject.handler injector) image
  in
  Inject.attach injector ~bus:r.Mon.Runner.bus ~interp:r.Mon.Runner.interp;
  Mon.Monitor.init r.Mon.Runner.monitor;
  let err =
    run_to_end (fun () -> E.Interp.run ~reset_stack:false r.Mon.Runner.interp)
  in
  let attacked = Snapshot.protected_ r.Mon.Runner.bus image in
  let changed = Snapshot.changed ~clean ~attacked in
  let outcome, detail =
    classify ~defense:Opec inj (Inject.evidence injector) ~err ~changed
  in
  { defense = Opec; injection = inj; outcome; detail }

let baseline_cell (app : Apps.App.t) (image : C.Image.t) ~clean ~defense ~mode
    inj =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let r =
    Mon.Runner.prepare_baseline ~devices:world.Apps.App.devices
      ~entries:image.C.Image.entries
      ~board:app.Apps.App.board app.Apps.App.program
  in
  let map = r.Mon.Runner.b_layout.E.Vanilla_layout.map in
  let injector =
    Inject.create ~mode ~global_addr:map.E.Address_map.global_addr inj
  in
  E.Interp.set_handler r.Mon.Runner.b_interp
    (Inject.handler injector E.Interp.abort_handler);
  Inject.attach injector ~bus:r.Mon.Runner.b_bus
    ~interp:r.Mon.Runner.b_interp;
  let err = run_to_end (fun () -> E.Interp.run r.Mon.Runner.b_interp) in
  let attacked =
    Snapshot.baseline r.Mon.Runner.b_bus ~map app.Apps.App.program
  in
  let changed = Snapshot.changed ~clean ~attacked in
  let outcome, detail =
    classify ~defense inj (Inject.evidence injector) ~err ~changed
  in
  { defense; injection = inj; outcome; detail }

(* --- clean reference runs ------------------------------------------------ *)

(* A private protected run of a foreign image the artifact store did not
   produce (the fuzz defect gate substitutes them); the store's own
   image reads the pipeline's memoized run instead. *)
let clean_protected (app : Apps.App.t) (image : C.Image.t) =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let r =
    Mon.Runner.run_protected ~devices:world.Apps.App.devices image
  in
  Snapshot.protected_ r.Mon.Runner.bus image

(* --- the campaign -------------------------------------------------------- *)

(* The campaign's references for the store's image: a device-presence
   probe that restricts MMIO/PPB targets to addresses the campaign
   machine actually maps (so a vanilla escape is a real peripheral
   write, not an unmapped-bus crash), and the clean end states attacked
   runs are diffed against, from the pipeline's memoized marked-baseline
   and protected runs (the marked-baseline bus carries the campaign
   machine's device set). *)
let references c (app : Apps.App.t) =
  let bm = P.baseline_marked c in
  P.reraise bm.P.b_err;
  let p = P.protected_ c in
  P.reraise p.P.p_err;
  let bus = bm.P.b_run.Mon.Runner.b_bus in
  let map = bm.P.b_run.Mon.Runner.b_layout.E.Vanilla_layout.map in
  ( (fun addr -> Option.is_some (M.Bus.find_device bus addr)),
    lazy (Snapshot.baseline bus ~map app.Apps.App.program),
    Snapshot.protected_ p.P.p_run.Mon.Runner.bus (P.image c) )

let plan_injections ~mapped image = Planner.select (Planner.plan ~mapped image)

let run_app ?backend (app : Apps.App.t) : matrix =
  let c = P.ctx ?backend app in
  let image = P.image c in
  let mapped, clean_b, clean_p = references c app in
  let injections = plan_injections ~mapped image in
  let oracles =
    List.filter_map
      (function
        | Aces k -> Some (k, Aces_policy.build k app.Apps.App.program)
        | Vanilla | Opec -> None)
      defenses
  in
  let cells =
    List.concat_map
      (fun inj ->
        List.map
          (fun defense ->
            match defense with
            | Vanilla ->
              baseline_cell app image ~clean:(Lazy.force clean_b) ~defense
                ~mode:Inject.Unchecked inj
            | Aces k ->
              baseline_cell app image ~clean:(Lazy.force clean_b) ~defense
                ~mode:(Inject.Modeled (List.assoc k oracles)) inj
            | Opec -> opec_cell app image ~clean:clean_p inj)
          defenses)
      injections
  in
  { app = app.Apps.App.app_name; injections; cells }

(* OPEC-only column: every planned injection against the real monitor,
   skipping the vanilla and ACES baselines.  The fuzz harness runs this
   per generated program, where only the "all Blocked under OPEC"
   verdict matters and the 4 baseline columns would triple the cost.  A
   foreign [image] gets a private device probe and clean protected run. *)
let run_opec_only ?backend ?image (app : Apps.App.t) =
  let c = P.ctx ?backend app in
  let image, mapped, clean_p =
    match image with
    | Some image when image != P.image c ->
      let world = app.Apps.App.make_world () in
      let probe =
        Mon.Runner.prepare_baseline ~devices:world.Apps.App.devices
          ~board:app.Apps.App.board app.Apps.App.program
      in
      ( image,
        (fun addr ->
          Option.is_some (M.Bus.find_device probe.Mon.Runner.b_bus addr)),
        clean_protected app image )
    | Some _ | None ->
      let mapped, _, clean_p = references c app in
      (P.image c, mapped, clean_p)
  in
  List.map (opec_cell app image ~clean:clean_p) (plan_injections ~mapped image)

(* Per-app matrices are independent (every cell is a fresh machine), so
   they fan out across the domain pool; results come back in input
   order, so the report is byte-identical to a sequential run. *)
let run_all ?domains ?backend apps =
  P.parallel_map ?domains ?backend
    (fun c -> run_app ~backend:(P.backend c) (P.app c))
    apps

(* --- assertion helpers --------------------------------------------------- *)

let cells_of m ~defense = List.filter (fun c -> c.defense = defense) m.cells

let opec_escapes m =
  List.filter (fun c -> c.outcome = Escaped) (cells_of m ~defense:Opec)

let vanilla_escaped m =
  List.exists (fun c -> c.outcome = Escaped) (cells_of m ~defense:Vanilla)
