(* Differential testing: OPEC must be transparent.

   For randomly generated task-structured firmware, the final values of
   all globals after an OPEC-protected run must equal those after an
   unprotected baseline run of the same program — the shadowing,
   synchronization, relocation, and MPU machinery may cost cycles but
   must never change program semantics. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Ex = Opec_exec
module Mon = Opec_monitor

let n_globals = 6
let gname i = Printf.sprintf "g%d" i

(* a tiny random statement language over the shared globals *)
type stmt =
  | Inc of int * int          (* g_i <- g_i + k *)
  | Copy of int * int         (* g_i <- g_j *)
  | Mix of int * int * int    (* g_i <- g_j + g_k *)
  | Guard of int * stmt       (* if g_i odd then stmt *)

let rec stmt_gen depth =
  let open QCheck.Gen in
  let base =
    oneof
      [ map2 (fun i k -> Inc (i mod n_globals, (k mod 7) + 1)) nat nat;
        map2 (fun i j -> Copy (i mod n_globals, j mod n_globals)) nat nat;
        map3
          (fun i j k -> Mix (i mod n_globals, j mod n_globals, k mod n_globals))
          nat nat nat ]
  in
  if depth = 0 then base
  else
    frequency
      [ (3, base);
        (1, map2 (fun i s -> Guard (i mod n_globals, s)) nat (stmt_gen (depth - 1))) ]

type task = { t_index : int; stmts : stmt list }

let task_gen i =
  QCheck.Gen.(
    map (fun stmts -> { t_index = i; stmts }) (list_size (int_range 1 6) (stmt_gen 1)))

let program_gen =
  QCheck.Gen.(
    list_size (int_range 2 4) nat >>= fun seeds ->
    let tasks = List.mapi (fun i _ -> task_gen i) seeds in
    flatten_l tasks)

let rec compile_stmt n = function
  | Inc (i, k) ->
    let t = Printf.sprintf "t%d" n in
    [ Instr.Load (t, Instr.W32, gv (gname i));
      store (gv (gname i)) E.(l t + c k) ]
  | Copy (i, j) ->
    let t = Printf.sprintf "t%d" n in
    [ Instr.Load (t, Instr.W32, gv (gname j)); store (gv (gname i)) (l t) ]
  | Mix (i, j, k) ->
    let a = Printf.sprintf "a%d" n and b = Printf.sprintf "b%d" n in
    [ Instr.Load (a, Instr.W32, gv (gname j));
      Instr.Load (b, Instr.W32, gv (gname k));
      store (gv (gname i)) E.(l a + l b) ]
  | Guard (i, s) ->
    let t = Printf.sprintf "c%d" n in
    [ Instr.Load (t, Instr.W32, gv (gname i));
      if_ E.((l t && c 1) != c 0) (compile_stmt (n + 100) s) [] ]

let build_program tasks =
  let globals =
    List.init n_globals (fun i -> word (gname i) ~init:(Int64.of_int (i * 3)))
  in
  let funcs =
    List.map
      (fun t ->
        let body =
          List.concat (List.mapi compile_stmt t.stmts) @ [ ret0 ]
        in
        func (Printf.sprintf "task%d" t.t_index) [] body)
      tasks
  in
  let main_body =
    List.map (fun t -> call (Printf.sprintf "task%d" t.t_index) []) tasks
    @ List.map (fun t -> call (Printf.sprintf "task%d" t.t_index) []) tasks
    @ [ halt ]
  in
  Program.v ~name:"diff" ~globals ~peripherals:[]
    ~funcs:(funcs @ [ func "main" [] main_body ])
    ()

let final_globals_baseline p =
  let board = M.Memmap.stm32f4_discovery in
  let r = Mon.Runner.run_baseline ~board p in
  let map = r.Mon.Runner.b_layout.Ex.Vanilla_layout.map in
  List.init n_globals (fun i ->
      M.Bus.read_raw r.Mon.Runner.b_bus
        (map.Ex.Address_map.global_addr (gname i))
        4)

let final_globals_protected p entries =
  let image = C.Compiler.compile p (C.Dev_input.v entries) in
  let r = Mon.Runner.run_protected image in
  (* After the final exit back to the default operation, the masters
     hold the synchronized values — except for dead publishes: a write
     no operation (including the writer, across activations) can
     observe is never synced out, so its master is legitimately stale.
     The schedule names exactly those slots; everything else must be
     bit-identical. *)
  let unobserved =
    Opec_analysis.Syncset.unobserved image.C.Image.syncsets
  in
  List.init n_globals (fun i ->
      if Opec_analysis.Syncset.SS.mem (gname i) unobserved then None
      else
        Some
          (M.Bus.read_raw r.Mon.Runner.bus
             (image.C.Image.map.Ex.Address_map.global_addr (gname i))
             4))

let arb_tasks =
  QCheck.make
    ~print:(fun tasks ->
      Printf.sprintf "%d tasks x [%s]" (List.length tasks)
        (String.concat ";"
           (List.map (fun t -> string_of_int (List.length t.stmts)) tasks)))
    program_gen

let prop_transparent =
  QCheck.Test.make ~name:"OPEC preserves program semantics" ~count:60 arb_tasks
    (fun tasks ->
      let p = build_program tasks in
      let entries =
        List.map (fun t -> Printf.sprintf "task%d" t.t_index) tasks
      in
      let base = final_globals_baseline p in
      let prot = final_globals_protected p entries in
      List.for_all2
        (fun b p -> match p with None -> true | Some p -> Int64.equal b p)
        base prot)

(* protected runs must cost at least as many cycles as the baseline *)
let prop_overhead_nonnegative =
  QCheck.Test.make ~name:"protection never speeds execution up" ~count:20
    arb_tasks (fun tasks ->
      let p = build_program tasks in
      let entries =
        List.map (fun t -> Printf.sprintf "task%d" t.t_index) tasks
      in
      let board = M.Memmap.stm32f4_discovery in
      let b = Mon.Runner.run_baseline ~board p in
      let image = C.Compiler.compile p (C.Dev_input.v entries) in
      let r = Mon.Runner.run_protected image in
      Int64.compare
        (Ex.Interp.cycles r.Mon.Runner.interp)
        (Ex.Interp.cycles b.Mon.Runner.b_interp)
      >= 0)

(* --- engine differential -------------------------------------------------
   The closure-compiled interpreter must be observationally identical to
   the reference tree-walker: replaying a whole application under both
   engines must produce the same trace events, the same cycle count,
   and the same final memory — for the vanilla baseline and for the
   OPEC-protected run alike. *)

module Apps = Opec_apps
module Atk = Opec_attack

let baseline_observation (app : Apps.App.t) engine =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let r =
    Mon.Runner.run_baseline ~devices:world.Apps.App.devices ~engine
      ~trace:true ~board:app.Apps.App.board app.Apps.App.program
  in
  let mem =
    Atk.Snapshot.baseline r.Mon.Runner.b_bus
      ~map:r.Mon.Runner.b_layout.Ex.Vanilla_layout.map app.Apps.App.program
  in
  ( Ex.Interp.cycles r.Mon.Runner.b_interp,
    Ex.Trace.events (Ex.Interp.trace r.Mon.Runner.b_interp),
    mem,
    world.Apps.App.check () )

let protected_observation (app : Apps.App.t) image engine =
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let r =
    Mon.Runner.run_protected ~devices:world.Apps.App.devices ~engine
      ~trace:true image
  in
  ( Ex.Interp.cycles r.Mon.Runner.interp,
    Ex.Trace.events (Ex.Interp.trace r.Mon.Runner.interp),
    Atk.Snapshot.protected_ r.Mon.Runner.bus image,
    world.Apps.App.check () )

let check_same_observation what (c1, e1, m1, k1) (c2, e2, m2, k2) =
  Alcotest.(check int64) (what ^ ": cycle counts equal") c1 c2;
  Alcotest.(check int)
    (what ^ ": trace lengths equal")
    (List.length e1) (List.length e2);
  Alcotest.(check bool) (what ^ ": trace events identical") true (e1 = e2);
  Alcotest.(check bool) (what ^ ": final memory identical") true (m1 = m2);
  Alcotest.(check bool) (what ^ ": both runs pass the app check") true
    (k1 = Ok () && k2 = Ok ())

(* Replay [app] baseline and protected under both engines. *)
let check_engines_agree name (app : Apps.App.t) =
  let image =
    C.Compiler.compile ~board:app.Apps.App.board app.Apps.App.program
      app.Apps.App.dev_input
  in
  check_same_observation (name ^ " baseline (tree vs compiled)")
    (baseline_observation app Ex.Interp.Tree)
    (baseline_observation app Ex.Interp.Compiled);
  check_same_observation (name ^ " protected (tree vs compiled)")
    (protected_observation app image Ex.Interp.Tree)
    (protected_observation app image Ex.Interp.Compiled)

let test_engines_agree (app : Apps.App.t) () =
  check_engines_agree app.Apps.App.app_name app

(* --- engine-equivalence regression corpus --------------------------------
   Checked-in reproducer files (test/data/corpus/corpus-NNNNNN.sexp):
   past fuzz inputs that once exercised interesting engine behaviour.
   Each is replayed under both engines; the closure-compiled engine must
   reproduce the tree walker's observation bit for bit, forever. *)

module Fz = Opec_fuzz

let corpus_dir = "data/corpus"

let test_corpus_case path () =
  check_engines_agree path (Fz.Repro.to_app (Fz.Repro.load path))

let corpus_tests () =
  List.map
    (fun path ->
      Alcotest.test_case
        ("corpus replay " ^ Filename.basename path)
        `Slow (test_corpus_case path))
    (Fz.Corpus.files corpus_dir)

let suite () =
  [ ( "differential",
      QCheck_alcotest.to_alcotest prop_transparent
      :: QCheck_alcotest.to_alcotest prop_overhead_nonnegative
      :: (List.map
            (fun (app : Apps.App.t) ->
              Alcotest.test_case
                ("engines agree on " ^ app.Apps.App.app_name)
                `Slow (test_engines_agree app))
            (Apps.Registry.all ())
         @ corpus_tests ()) ) ]
