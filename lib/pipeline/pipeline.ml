(* The staged, memoized artifact store.

   Every expensive artifact of the evaluation — the validated program,
   the points-to solution, the call graph, the resource sets, the
   operation partition, the OPEC image, the ACES analyses, and the
   baseline / protected reference runs — is computed at most once per
   workload per process and shared by every consumer (bench, CLI, lint
   oracle, attack campaign, metrics, tests).

   Keys: a context is addressed by the workload's name plus a digest of
   its marshaled (program, developer input, board) triple, so two
   size-variants of the same app (PinLock at 4 vs 100 rounds) occupy
   distinct entries and a mutated [dev_input] misses the cache.  The
   scripted world is a closure and cannot be digested; bundled workload
   variants always differ in program or developer input, which is what
   the digest covers.

   Concurrency: the store is domain-safe and sharded.  The workload
   table is split across [shard_count] shards by key hash, one mutex
   per shard, so concurrent context lookups from a saturated domain
   pool never serialize on a single global lock.  Within a context,
   each stage is a typed cell that is empty, in flight or done: the
   first domain to ask for a stage claims it and computes outside the
   lock, and any other domain asking meanwhile waits on the context's
   condition variable for the result instead of duplicating the work —
   the compile-exactly-once guarantee holds even under full-fleet
   contention, and physical equality holds between repeated lookups. *)

module M = Opec_machine
module C = Opec_core
module E = Opec_exec
module An = Opec_analysis
module A = Opec_aces
module Mon = Opec_monitor
module Apps = Opec_apps
module Obs = Opec_obs
open Opec_ir

(* --- artifact types ----------------------------------------------------- *)

type baseline = {
  b_run : Mon.Runner.baseline_run;
  b_err : exn option;
      (** [Interp.Aborted] or [Interp.Fuel_exhausted], if the run died *)
  b_cycles : int64;
  b_events : E.Trace.event list;
      (** full trace, memory accesses included (the lint oracle's raw
          material); filter out [Access] events for the
          function-granularity view *)
  b_check : (unit, string) result;
  b_flash : int;
  b_sram : int;
}

type protected_result = {
  p_run : Mon.Runner.protected_run;
  p_err : exn option;
  p_cycles : int64;
  p_check : (unit, string) result;
  p_stats : Mon.Stats.t;
  p_switches : int;  (** the interpreter's independent SVC count *)
  p_events : Obs.Sink.event list;
}

(* One memoized stage of a context.  [state] and [computed] are guarded
   by the owning context's lock; [name] keys [timings] and
   [compute_counts]. *)
type 'a state =
  | Empty
  | In_flight
      (** claimed by a domain that is computing it; waiters park on the
          context's [cond] until the cell is filled (or abandoned on
          failure) *)
  | Done of 'a

type 'a cell = { name : string; mutable state : 'a state; mutable computed : int }

type cells = {
  validated : Program.t cell;
  points_to : An.Points_to.t cell;
  callgraph : An.Callgraph.t cell;
  resources : An.Resource.t cell;
  ops : C.Operation.t list cell;
  syncsets : An.Syncset.t cell;
  image : C.Image.t cell;
  baseline : baseline cell;
  baseline_traced : baseline cell;
  baseline_marked : baseline cell;
  protected_ : protected_result cell;
  aces1 : A.Aces.t cell;
  aces2 : A.Aces.t cell;
  aces3 : A.Aces.t cell;
}

let cell name = { name; state = Empty; computed = 0 }

let aces_name kind = "aces:" ^ A.Strategy.name kind

let fresh_cells () =
  { validated = cell "validate";
    points_to = cell "points-to";
    callgraph = cell "callgraph";
    resources = cell "resources";
    ops = cell "partition";
    syncsets = cell "syncsets";
    image = cell "image";
    baseline = cell "baseline";
    baseline_traced = cell "baseline-traced";
    baseline_marked = cell "baseline-marked";
    protected_ = cell "protected";
    aces1 = cell (aces_name A.Strategy.Filename);
    aces2 = cell (aces_name A.Strategy.Filename_no_opt);
    aces3 = cell (aces_name A.Strategy.By_peripheral) }

type any_cell = Any : 'a cell -> any_cell

let all_cells s =
  [ Any s.validated; Any s.points_to; Any s.callgraph; Any s.resources;
    Any s.ops; Any s.syncsets; Any s.image; Any s.baseline;
    Any s.baseline_traced; Any s.baseline_marked; Any s.protected_;
    Any s.aces1; Any s.aces2; Any s.aces3 ]

type ctx = {
  app : Apps.App.t;
  backend : M.Backend.kind;
  key : string;
  lock : Mutex.t;
  cond : Condition.t;
  cells : cells;
  mutable timings : (string * float) list;  (** (stage, seconds), oldest first *)
}

(* --- the global store, sharded by key hash ------------------------------ *)

type shard = { s_lock : Mutex.t; s_tbl : (string, ctx) Hashtbl.t }

let shard_count = 16  (* power of two, for the mask below *)

let shards : shard array =
  Array.init shard_count (fun _ ->
      { s_lock = Mutex.create (); s_tbl = Hashtbl.create 16 })

let shard_of key = shards.(Hashtbl.hash key land (shard_count - 1))

let fingerprint (app : Apps.App.t) =
  let bytes =
    Marshal.to_string
      ( app.Apps.App.program,
        app.Apps.App.dev_input,
        app.Apps.App.board.M.Memmap.board_name )
      []
  in
  Digest.to_hex (Digest.string bytes)

let ctx ?(backend = M.Backend.Mpu) (app : Apps.App.t) : ctx =
  let key =
    app.Apps.App.app_name ^ ":" ^ M.Backend.kind_name backend ^ ":"
    ^ fingerprint app
  in
  let sh = shard_of key in
  Mutex.protect sh.s_lock (fun () ->
      match Hashtbl.find_opt sh.s_tbl key with
      | Some c -> c
      | None ->
        let c =
          { app;
            backend;
            key;
            lock = Mutex.create ();
            cond = Condition.create ();
            cells = fresh_cells ();
            timings = [] }
        in
        Hashtbl.replace sh.s_tbl key c;
        c)

let app (c : ctx) = c.app
let backend (c : ctx) = c.backend
let key (c : ctx) = c.key

let reset () =
  Array.iter
    (fun sh -> Mutex.protect sh.s_lock (fun () -> Hashtbl.reset sh.s_tbl))
    shards

(* Drop one workload's artifacts.  Long generative sweeps (the fuzz
   harness, the fleet's seed images) pipe thousands of distinct
   programs through the store; each evicts its entry once judged, so
   memory stays bounded while the bundled workloads' artifacts
   survive. *)
let evict (c : ctx) =
  let sh = shard_of c.key in
  Mutex.protect sh.s_lock (fun () -> Hashtbl.remove sh.s_tbl c.key)

(* Get-or-compute one stage, exactly once.  The first domain to ask
   claims the cell ([In_flight]) and computes outside the lock (stages
   recurse into their prerequisites); every other domain asking while
   the computation runs parks on the context's condition variable and
   returns the computed artifact — never a duplicate computation, which
   is what the compile-exactly-once probe measures under fleet
   contention.  A failing compute abandons its claim and re-raises, so
   a waiter retries (and typically re-raises the same way) instead of
   wedging. *)
let get (c : ctx) (cell : 'a cell) (compute : unit -> 'a) : 'a =
  let claim () =
    Mutex.protect c.lock (fun () ->
        let rec go () =
          match cell.state with
          | Done a -> Some a
          | In_flight ->
            Condition.wait c.cond c.lock;
            go ()
          | Empty ->
            cell.state <- In_flight;
            None
        in
        go ())
  in
  match claim () with
  | Some a -> a
  | None -> (
    let t0 = Unix.gettimeofday () in
    match compute () with
    | a ->
      let dt = Unix.gettimeofday () -. t0 in
      Mutex.protect c.lock (fun () ->
          cell.state <- Done a;
          cell.computed <- cell.computed + 1;
          c.timings <- c.timings @ [ (cell.name, dt) ];
          Condition.broadcast c.cond);
      a
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.protect c.lock (fun () ->
          cell.state <- Empty;
          Condition.broadcast c.cond);
      Printexc.raise_with_backtrace e bt)

(* --- compile-time stages ------------------------------------------------ *)

let validated c =
  get c c.cells.validated (fun () -> C.Compiler.front c.app.Apps.App.program)

let points_to c =
  let p = validated c in
  get c c.cells.points_to (fun () -> An.Points_to.solve p)

let callgraph c =
  let p = validated c in
  let pts = points_to c in
  get c c.cells.callgraph (fun () -> An.Callgraph.build p pts)

let resources c =
  let p = validated c in
  let pts = points_to c in
  get c c.cells.resources (fun () -> An.Resource.analyze p pts)

let ops c =
  let p = validated c in
  let cg = callgraph c in
  let res = resources c in
  get c c.cells.ops (fun () ->
      C.Partition.partition ~backend:c.backend p cg res c.app.Apps.App.dev_input)

let syncsets c =
  let p = validated c in
  let pts = points_to c in
  let cg = callgraph c in
  let ops = ops c in
  get c c.cells.syncsets (fun () ->
      C.Compiler.syncsets_of ~points_to:pts ~callgraph:cg ~ops
        ~input:c.app.Apps.App.dev_input p)

let image c =
  let p = validated c in
  let pts = points_to c in
  let cg = callgraph c in
  let res = resources c in
  let ops = ops c in
  let ss = syncsets c in
  get c c.cells.image (fun () ->
      C.Compiler.back ~board:c.app.Apps.App.board ~backend:c.backend
        ~points_to:pts ~callgraph:cg ~resources:res ~ops ~syncsets:ss p
        c.app.Apps.App.dev_input)

let aces c kind =
  let cell =
    match kind with
    | A.Strategy.Filename -> c.cells.aces1
    | A.Strategy.Filename_no_opt -> c.cells.aces2
    | A.Strategy.By_peripheral -> c.cells.aces3
  in
  get c cell (fun () -> A.Aces.analyze kind c.app.Apps.App.program)

(* --- reference runs ----------------------------------------------------- *)

(* Catch only the interpreter's own terminations; anything else (usage
   faults, monitor rejections) propagates exactly as an uncached run
   would propagate it. *)
let run_to_end run =
  match run () with
  | () -> None
  | exception (E.Interp.Aborted _ as e) -> Some e
  | exception (E.Interp.Fuel_exhausted as e) -> Some e

(* Raise the same exception the uncached runner would have raised, so a
   memoized failing run is indistinguishable from a fresh one. *)
let reraise = function None -> () | Some e -> raise e

let run_baseline_with c cell ~entries ?(traced = true) ~mem () =
  let app = c.app in
  get c cell (fun () ->
      let world = app.Apps.App.make_world () in
      world.Apps.App.prepare ();
      let r =
        Mon.Runner.prepare_baseline ~devices:world.Apps.App.devices ~entries
          ~trace:traced ~board:app.Apps.App.board app.Apps.App.program
      in
      if mem then (E.Interp.trace r.Mon.Runner.b_interp).E.Trace.mem <- true;
      let err = run_to_end (fun () -> E.Interp.run r.Mon.Runner.b_interp) in
      let tr = E.Interp.trace r.Mon.Runner.b_interp in
      let events = E.Trace.events tr in
      (* artifacts live for the process; keep one copy of the (possibly
         huge) event stream, not the interpreter's internal one too *)
      E.Trace.clear tr;
      { b_run = r;
        b_err = err;
        b_cycles = E.Interp.cycles r.Mon.Runner.b_interp;
        b_events = events;
        b_check = world.Apps.App.check ();
        b_flash = r.Mon.Runner.b_layout.E.Vanilla_layout.flash_used;
        b_sram = r.Mon.Runner.b_layout.E.Vanilla_layout.sram_used })

(* The plain unprotected baseline (no operation entries marked). *)
let baseline c = run_baseline_with c c.cells.baseline ~entries:[] ~mem:false ()

(* The baseline traced at memory-access granularity — the lint oracle's
   raw material.  A separate stage from {!baseline}: access events are
   bulky (one per load/store), so the evaluation sweep never pays for
   them; mem-tracing charges no cycles, so both stages report identical
   cycle counts. *)
let baseline_traced c =
  run_baseline_with c c.cells.baseline_traced ~entries:[] ~mem:true ()

(* Baseline with the image's operation entries marked, so its cycle
   accounting matches runs that trap at switch points (the attack
   campaign's clean reference).  Untraced: its consumers read the end
   state of the machine, never the event stream. *)
let baseline_marked c =
  let entries = (image c).C.Image.entries in
  run_baseline_with c c.cells.baseline_marked ~entries ~traced:false
    ~mem:false ()

(* The protected reference run: a fresh world, the image loaded, the
   monitor initialized, the program run to its end with an in-memory
   telemetry collector attached.  Telemetry charges no cycles, so one
   run serves every reader: the evaluation's cycle counts, check result
   and monitor statistics, and the [opec trace] exporters' and
   overhead breakdown's event stream. *)
let protected_ c =
  let image = image c in
  get c c.cells.protected_ (fun () ->
      let world = c.app.Apps.App.make_world () in
      world.Apps.App.prepare ();
      let buf = Obs.Sink.Memory.create () in
      let r =
        Mon.Runner.prepare ~devices:world.Apps.App.devices
          ~sink:(Obs.Sink.Memory.sink buf) image
      in
      Mon.Monitor.init r.Mon.Runner.monitor;
      let err =
        run_to_end (fun () ->
            E.Interp.run ~reset_stack:false r.Mon.Runner.interp)
      in
      { p_run = r;
        p_err = err;
        p_cycles = E.Interp.cycles r.Mon.Runner.interp;
        p_check = world.Apps.App.check ();
        p_stats = Mon.Monitor.stats r.Mon.Runner.monitor;
        p_switches = E.Interp.switches r.Mon.Runner.interp;
        p_events = Obs.Sink.Memory.events buf })

(* --- instrumentation ---------------------------------------------------- *)

let stage_names =
  List.map (fun (Any cell) -> cell.name) (all_cells (fresh_cells ()))

let timings c = Mutex.protect c.lock (fun () -> c.timings)

let compute_counts c =
  Mutex.protect c.lock (fun () ->
      List.filter_map
        (fun (Any cell) ->
          if cell.computed > 0 then Some (cell.name, cell.computed) else None)
        (all_cells c.cells))
  |> List.sort compare

let compute_count c stage =
  Option.value ~default:0
    (List.assoc_opt stage (compute_counts c))

(* --- fan-out ------------------------------------------------------------ *)

(* Materialize the pipeline the evaluation sweep reads for one
   workload: compile-time stages, the plain reference runs, and the
   three ACES analyses.  The bulky traced baseline and the campaign's
   marked baseline stay on demand. *)
let warm (c : ctx) =
  ignore (image c);
  ignore (baseline c);
  ignore (protected_ c);
  List.iter
    (fun k -> ignore (aces c k))
    [ A.Strategy.Filename; A.Strategy.Filename_no_opt; A.Strategy.By_peripheral ]

(* Evaluate [f] over per-app pipelines on a domain pool; results come
   back in input order, so cross-domain evaluation is deterministic. *)
let parallel_map ?domains ?backend (f : ctx -> 'a) (apps : Apps.App.t list) :
    'a list =
  Pool.map ?domains (fun a -> f (ctx ?backend a)) apps

(* Pre-materialize every app's pipeline in parallel; subsequent
   sequential rendering then hits only the cache. *)
let warm_all ?domains (apps : Apps.App.t list) =
  ignore (parallel_map ?domains (fun c -> warm c) apps)
