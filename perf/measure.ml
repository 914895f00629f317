(* Running a workload: set-up batches, the unprotected baseline, the
   model run, the timed runs and the traced run, with every output
   check.  Host time comes from the monotonic clock in ns. *)

module M = Opec_machine
module C = Opec_core
module Ex = Opec_exec
module Mon = Opec_monitor
module Obs = Opec_obs
module An = Opec_analysis
module W = Workload

let ( let* ) = Result.bind

(* [Compiler.compile], stage by stage, so a traced set-up can time each
   stage from outside. *)
let compile ?led ~board ~backend program input =
  let t l f = Ledger.time led l f in
  let program = t Front (fun () -> C.Compiler.front program) in
  let points_to = t Points_to (fun () -> An.Points_to.solve program) in
  let callgraph = t Callgraph (fun () -> An.Callgraph.build program points_to) in
  let resources = t Resources (fun () -> An.Resource.analyze program points_to) in
  let ops =
    t Partition (fun () ->
        C.Partition.partition ~backend program callgraph resources input)
  in
  let syncsets =
    t Syncsets (fun () ->
        C.Compiler.syncsets_of ~points_to ~callgraph ~ops ~input program)
  in
  t Back (fun () ->
      C.Compiler.back ~board ~backend ~syncsets ~points_to ~callgraph
        ~resources ~ops program input)

(* [Runner.run_protected] up to the first guest instruction. *)
let start ?led ?sink ?wrap_handler (image : C.Image.t) devices =
  let r =
    Ledger.time led Prepare (fun () ->
        Mon.Runner.prepare ~devices ?sink ?wrap_handler image)
  in
  let cpu = r.Mon.Runner.bus.M.Bus.cpu in
  let map = image.C.Image.map in
  cpu.M.Cpu.sp <- map.Ex.Address_map.stack_top;
  cpu.M.Cpu.stack_base <- map.Ex.Address_map.stack_base;
  cpu.M.Cpu.stack_limit <- map.Ex.Address_map.stack_top;
  Ledger.time led Init (fun () -> Mon.Monitor.init r.Mon.Runner.monitor);
  r

let error_of_exn = function
  | Ex.Interp.Aborted m -> "aborted: " ^ m
  | Ex.Interp.Fuel_exhausted -> "fuel exhausted"
  | Mon.Monitor.Violation m -> "violation: " ^ m
  | e -> Printexc.to_string e

(* --- one guest run ------------------------------------------------------ *)

type outcome = {
  wall_ns : int;
  cycles : int64;
  stats : Mon.Stats.t;  (** a copy, taken after the run *)
  error : string option;
}

(* Run the guest once on a fresh world.  [agg] attaches a telemetry sink
   feeding it; [led] traces the run, wrapping the monitor's trap
   handler, every device closure and the telemetry callback. *)
let run_guest ?led ?agg (g : W.guest) image =
  let w = g.W.world () in
  let devices =
    match led with
    | None -> w.W.devices
    | Some l -> List.map (Ledger.wrap_device l) w.W.devices
  in
  let sink =
    Option.map
      (fun a ->
        let emit = Obs.Agg.add a in
        Obs.Sink.make
          (match led with None -> emit | Some l -> Ledger.wrap_emit l emit))
      agg
  in
  let wrap_handler = Option.map Ledger.wrap_handler led in
  let r = start ?sink ?wrap_handler image devices in
  let interp = r.Mon.Runner.interp in
  let t0 = Ledger.now () in
  let result =
    match Ledger.time led Exec (fun () -> Ex.Interp.run ~reset_stack:false interp) with
    | () -> Ok ()
    | exception e -> Error e
  in
  let wall_ns = Ledger.now () - t0 in
  let s = Mon.Monitor.stats r.Mon.Runner.monitor in
  let error =
    match result with
    | Error e -> Some (error_of_exn e)
    | Ok () -> (
      match w.W.check () with
      | Error e -> Some e
      | Ok () when s.Mon.Stats.denied > 0 ->
        Some (Printf.sprintf "%d accesses denied in a clean run" s.Mon.Stats.denied)
      | Ok () -> None)
  in
  { wall_ns;
    cycles = Ex.Interp.cycles interp;
    stats = { s with Mon.Stats.switches = s.Mon.Stats.switches };
    error }

let baseline_cycles (g : W.guest) =
  let w = g.W.world () in
  match Mon.Runner.run_baseline ~devices:w.W.devices ~board:g.W.board g.W.program with
  | r -> Result.map (fun () -> Ex.Interp.cycles r.Mon.Runner.b_interp) (w.W.check ())
  | exception e -> Error (error_of_exn e)

(* --- the result of one invocation -------------------------------------- *)

type plan = { seconds : float; smoke : bool }

type timing = {
  setup_s : float list;     (** per set-up, one entry per timed batch *)
  walls_s : float list;     (** untraced timed runs, in run order *)
  gc : Gc.stat * Gc.stat;   (** around the first timed run *)
  heap_words : int;         (** peak major heap after the timed runs *)
  setup_ledger : Ledger.t;  (** one traced batch of set-ups *)
  setups : int;             (** set-ups per batch *)
}

type result = {
  timing : timing;
  items : int;              (** stimuli per run *)
  cycles : int64;           (** protected model cycles per run *)
  base_cycles : int64;      (** the same program unprotected *)
  stats : Mon.Stats.t;
  agg : Obs.Agg.t;          (** the model run's telemetry *)
  run_ledger : Ledger.t;    (** the traced run *)
  attempted : int;
  failed : int;             (** stimuli spoiled by a failed check *)
  failures : string list;
}

let min_runs = 3

(* Set-ups per batch: one batch is timed as a whole and divided, so the
   time per set-up sits well above the clock's resolution. *)
let batch plan = if plan.smoke then 2 else 10

(* The timed loop: a batch of set-ups, then one timed run, until
   [plan.seconds] have passed and at least [min_runs] runs are in; then
   one traced batch of set-ups.  [setup led i] is the batch's [i]th
   set-up; [run ()] returns its wall time in ns.  Each timed block starts
   from a compacted heap, as a fresh process would, so garbage left by
   one block does not tax the next one's clock. *)
let timed_loop plan ~setup ~run =
  let setups = ref [] and walls = ref [] and gc = ref None in
  let t_start = Ledger.now () in
  let n = batch plan in
  let secs since = float_of_int (Ledger.now () - since) *. 1e-9 in
  while List.length !walls < min_runs || secs t_start < plan.seconds do
    Gc.compact ();
    let t0 = Ledger.now () in
    for i = 0 to n - 1 do setup None i done;
    setups := (secs t0 /. float_of_int n) :: !setups;
    Gc.compact ();
    let before = Gc.quick_stat () in
    let wall = run () in
    if !gc = None then gc := Some (before, Gc.quick_stat ());
    walls := (float_of_int wall *. 1e-9) :: !walls
  done;
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let setup_ledger = Ledger.create () in
  for i = 0 to n - 1 do setup (Some setup_ledger) i done;
  { setup_s = List.rev !setups; walls_s = List.rev !walls; gc = Option.get !gc;
    heap_words; setup_ledger; setups = n }

type checker = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

(* Record a failed check that spoils [items] stimuli. *)
let fail ck ~items fmt =
  Printf.ksprintf
    (fun m ->
      ck.failed <- ck.failed + items;
      ck.failures <- m :: ck.failures)
    fmt

let error_of = function Ok _ -> None | Error e -> Some e

(* One attempted run of [items] stimuli: it fails, once, when any of its
   checks does. *)
let attempt ck ~items what errors =
  ck.attempted <- ck.attempted + items;
  match List.filter_map Fun.id errors with
  | [] -> ()
  | es -> fail ck ~items "%s: %s" what (String.concat "; " es)

(* Every nanosecond of a traced run is charged to exactly one layer. *)
let ledger_error (l : Ledger.t) =
  if Ledger.total_ns l = l.Ledger.wall then None
  else
    Some
      (Printf.sprintf "layers sum to %d ns of a %d ns wall" (Ledger.total_ns l)
         l.Ledger.wall)

(* --- guests ------------------------------------------------------------- *)

let measure_guest plan (g : W.guest) =
  let items = g.W.items in
  let ck = { attempted = 0; failed = 0; failures = [] } in
  let setup_world = g.W.world () in
  let setup led =
    let image =
      compile ?led ~board:g.W.board ~backend:g.W.backend g.W.program g.W.input
    in
    ignore (start ?led image setup_world.W.devices);
    image
  in
  let image = setup None in
  let base = baseline_cycles g in
  attempt ck ~items "baseline run" [ error_of base ];
  (* the model run carries telemetry whatever the workload's setting,
     for the cycle split and the switch latencies; it also warms up *)
  let agg = Obs.Agg.create () in
  let model = run_guest ~agg g image in
  attempt ck ~items "model run" [ model.error ];
  (* telemetry and tracing charge no cycles: every run must match *)
  let mismatch (o : outcome) =
    if o.cycles = model.cycles && o.stats = model.stats then None
    else
      Some
        (Format.asprintf "%Ld cycles and %a; model run: %Ld cycles and %a"
           o.cycles Mon.Stats.pp o.stats model.cycles Mon.Stats.pp model.stats)
  in
  let run ?led () =
    let agg = if g.W.telemetry then Some (Obs.Agg.create ()) else None in
    let o = run_guest ?led ?agg g image in
    (match led with
    | None -> attempt ck ~items "timed run" [ o.error; mismatch o ]
    | Some l -> attempt ck ~items "traced run" [ o.error; mismatch o; ledger_error l ]);
    o.wall_ns
  in
  let timing =
    timed_loop plan ~setup:(fun led _ -> ignore (setup led)) ~run:(fun () -> run ())
  in
  let run_ledger = Ledger.create () in
  ignore (run ~led:run_ledger ());
  { timing; items; cycles = model.cycles;
    base_cycles = Result.value base ~default:0L; stats = model.stats; agg;
    run_ledger; attempted = ck.attempted; failed = ck.failed;
    failures = List.rev ck.failures }

(* --- compile-sweep ------------------------------------------------------ *)

(* What a compiled image must reproduce from run to run: its footprint,
   schedule size and operation count. *)
let signature (image : C.Image.t) =
  [ image.C.Image.flash_used; image.C.Image.sram_used;
    image.C.Image.syncset_bytes; image.C.Image.code_bytes;
    List.length image.C.Image.ops ]

let add_stats (a : Mon.Stats.t) (b : Mon.Stats.t) =
  a.switches <- a.switches + b.switches;
  a.synced_bytes <- a.synced_bytes + b.synced_bytes;
  a.relocated_bytes <- a.relocated_bytes + b.relocated_bytes;
  a.virt_swaps <- a.virt_swaps + b.virt_swaps;
  a.emulations <- a.emulations + b.emulations;
  a.pointer_fixups <- a.pointer_fixups + b.pointer_fixups;
  a.denied <- a.denied + b.denied

let board = M.Memmap.stm32f4_discovery

(* Every image must validate and have at least one operation entry
   besides the default operation. *)
let compile_case ?led (program, input) =
  match compile ?led ~board ~backend:M.Backend.Mpu program input with
  | image when image.C.Image.entries = [] -> Error "no operation entry"
  | image -> Ok image
  | exception e -> Error (Printexc.to_string e)

let measure_sweep plan cases =
  let ck = { attempted = 0; failed = 0; failures = [] } in
  let n = Array.length cases in
  let guest (program, input) = W.of_app (Opec_fuzz.Gen.app_of program input) in
  (* the model pass, which also warms up: compile and run every image,
     protected with telemetry and unprotected, so the model metrics
     describe the code the compiler produced *)
  let agg = Obs.Agg.create () in
  let stats = Mon.Stats.create () in
  let cycles = ref 0L and base = ref 0L in
  let model_image case =
    let* image = compile_case case in
    let g = guest case in
    let o = run_guest ~agg g image in
    add_stats stats o.stats;
    cycles := Int64.add !cycles o.cycles;
    let* () = Option.fold ~none:(Ok ()) ~some:Result.error o.error in
    let* c = Result.map_error (( ^ ) "baseline: ") (baseline_cycles g) in
    base := Int64.add !base c;
    Ok (signature image)
  in
  let sigs =
    Array.mapi
      (fun i case ->
        let r = model_image case in
        attempt ck ~items:1 (Printf.sprintf "image %d" i) [ error_of r ];
        Result.value r ~default:[])
      cases
  in
  (* a failing image already failed in the model pass; a sweep fails the
     images whose result differs from it *)
  let sweep ?led () =
    Array.map
      (fun case -> Result.fold ~ok:signature ~error:(fun _ -> []) (compile_case ?led case))
      cases
  in
  let check ?extra what s =
    ck.attempted <- ck.attempted + n;
    let differ = ref 0 in
    Array.iteri (fun i x -> if x <> sigs.(i) then incr differ) s;
    if !differ > 0 then
      fail ck ~items:!differ "%s sweep: %d images differ from the model pass" what !differ;
    Option.iter (fail ck ~items:(n - !differ) "%s sweep: %s" what) extra
  in
  (* a set-up batch covers the first images, one set-up each, so the
     set-up time depends less on any one generated program *)
  let worlds = Array.init (batch plan) (fun i -> (guest cases.(i)).W.world ()) in
  let setup led i =
    Result.iter
      (fun image -> ignore (start ?led image worlds.(i).W.devices))
      (compile_case ?led cases.(i))
  in
  let timing =
    timed_loop plan ~setup
      ~run:(fun () ->
        let t0 = Ledger.now () in
        let s = sweep () in
        let wall = Ledger.now () - t0 in
        check "timed" s;
        wall)
  in
  let run_ledger = Ledger.create () in
  let s = Ledger.span run_ledger Sweep (fun () -> sweep ~led:run_ledger ()) in
  check ?extra:(ledger_error run_ledger) "traced" s;
  { timing; items = n; cycles = !cycles; base_cycles = !base; stats; agg;
    run_ledger; attempted = ck.attempted; failed = ck.failed;
    failures = List.rev ck.failures }

let measure plan (w : W.t) =
  match w.W.kind with
  | W.Guest g -> measure_guest plan g
  | W.Sweep cases -> measure_sweep plan cases
