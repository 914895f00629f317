(* Security tests for OPEC-Monitor: shadow synchronization (Figure 7),
   sanitization, stack protection and argument relocation (Figure 8),
   MPU virtualization, core-peripheral emulation, and the isolation
   guarantees of Section 3.3. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor
module Ex = Opec_exec

let uart = Peripheral.v "UART" ~base:0x4000_4400 ~size:0x400
let gpio = Peripheral.v "GPIO" ~base:0x4002_0C00 ~size:0x400
let dwt = Peripheral.v ~core:true "DWT" ~base:0xE000_1000 ~size:0x400

let compile ?(sanitize = []) ?(stack_infos = []) ?(entries = []) p =
  C.Compiler.compile p (C.Dev_input.v ~sanitize ~stack_infos entries)

let run ?devices image = Mon.Runner.run_protected ?devices image

let read_global image bus name =
  M.Bus.read_raw bus
    (image.C.Image.map.Ex.Address_map.global_addr name) 4

(* --- shadow synchronization --------------------------------------------- *)

(* Figure 7 in miniature: a shared counter incremented by two tasks in
   turn must see each other's updates through the public section. *)
let test_sync_propagates () =
  let p =
    Program.v ~name:"sync"
      ~globals:[ word "counter"; word "a_sum"; word "b_sum" ]
      ~peripherals:[]
      ~funcs:
        [ func "bump_a" []
            [ load "v" (gv "counter");
              store (gv "counter") E.(l "v" + c 1);
              store (gv "a_sum") (l "v");
              ret0 ];
          func "bump_b" []
            [ load "v" (gv "counter");
              store (gv "counter") E.(l "v" + c 10);
              store (gv "b_sum") (l "v");
              ret0 ];
          func "main" []
            [ call "bump_a" []; call "bump_b" []; call "bump_a" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "bump_a"; "bump_b" ] p in
  let r = run image in
  (* 0 +1 -> 1 +10 -> 11 +1 -> 12, each task reading the previous value *)
  Alcotest.(check int64) "master counter" 12L (read_global image r.Mon.Runner.bus "counter");
  Alcotest.(check int64) "a saw b's +10" 11L (read_global image r.Mon.Runner.bus "a_sum");
  Alcotest.(check int64) "b saw a's +1" 1L (read_global image r.Mon.Runner.bus "b_sum")

(* variables not shared with the entered operation must not be synced *)
let test_sync_only_shared () =
  let p =
    Program.v ~name:"noshare"
      ~globals:[ word "a_private"; word "b_private"; word "common" ]
      ~peripherals:[]
      ~funcs:
        [ func "task_a" []
            [ store (gv "a_private") (c 7);
              store (gv "common") (c 1);
              ret0 ];
          func "task_b" []
            [ store (gv "b_private") (c 8);
              load "x" (gv "common");
              store (gv "common") E.(l "x" + c 1);
              ret0 ];
          func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "task_a"; "task_b" ] p in
  let r = run image in
  (* internals land at their single home; common synced through master *)
  Alcotest.(check int64) "a_private" 7L (read_global image r.Mon.Runner.bus "a_private");
  Alcotest.(check int64) "b_private" 8L (read_global image r.Mon.Runner.bus "b_private");
  Alcotest.(check int64) "common" 2L (read_global image r.Mon.Runner.bus "common")

(* a provably read-only slot maps straight onto the master: its shadow
   is dead (never filled at init, never refilled on entry), so the
   reader only computes the right answer if its loads really travel
   through the read-only master mapping *)
let test_readonly_master_mapping () =
  let p =
    Program.v ~name:"romap"
      ~globals:[ word "feed"; word "seen" ]
      ~peripherals:[]
      ~funcs:
        [ func "producer" []
            [ load "v" (gv "feed");
              store (gv "feed") E.(l "v" + c 5);
              ret0 ];
          func "watcher" []
            [ load "f" (gv "feed");
              load "s" (gv "seen");
              store (gv "seen") E.(l "s" + l "f");
              ret0 ];
          func "main" []
            [ call "producer" []; call "watcher" [];
              call "producer" []; call "watcher" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "producer"; "watcher" ] p in
  let ss = image.C.Image.syncsets in
  let watcher_op =
    (List.find
       (fun (o : C.Operation.t) -> String.equal o.C.Operation.entry "watcher")
       image.C.Image.ops)
      .C.Operation.name
  in
  Alcotest.(check (list string)) "feed is read-only for watcher" [ "feed" ]
    (Opec_analysis.Syncset.SS.elements
       (Opec_analysis.Syncset.ro_set ss watcher_op));
  let r = run image in
  (* 0 +5 -> 5 (watcher adds 5), +5 -> 10 (watcher adds 10): 15 *)
  Alcotest.(check int64) "feed" 10L (read_global image r.Mon.Runner.bus "feed");
  Alcotest.(check int64) "seen accumulates fresh master values" 15L
    (read_global image r.Mon.Runner.bus "seen")

(* --- isolation ------------------------------------------------------------ *)

(* a compromised task writing another operation's internal variable (at
   its linked address) dies with a MemManage fault *)
let test_cross_section_write_blocked () =
  let benign =
    Program.v ~name:"iso"
      ~globals:[ word "a_secret"; word "shared" ]
      ~peripherals:[]
      ~funcs:
        [ func "task_a" []
            [ store (gv "a_secret") (c 42);
              load "x" (gv "shared");
              ret0 ];
          func "task_b" [] [ store (gv "shared") (c 1); ret0 ];
          func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "task_a"; "task_b" ] benign in
  (* runtime compromise of task_b: overwrite task_a's internal variable *)
  let a_secret_addr = image.C.Image.map.Ex.Address_map.global_addr "a_secret" in
  let rogue =
    { benign with
      Program.funcs =
        List.map
          (fun (f : Func.t) ->
            if String.equal f.Func.name "task_b" then
              { f with
                Func.body = [ store (cl (Int64.of_int a_secret_addr)) (c 666); ret0 ] }
            else f)
          benign.Program.funcs }
  in
  let rogue_instr, _ =
    C.Instrument.instrument rogue image.C.Image.layout
      ~entries:image.C.Image.entries
  in
  let rogue_image = { image with C.Image.program = rogue_instr } in
  (match run rogue_image with
  | _ -> Alcotest.fail "cross-section write should abort"
  | exception Ex.Interp.Aborted msg ->
    Alcotest.(check bool) "isolation violation reported" true
      (String.length msg > 0 &&
       String.sub msg 0 (min 9 (String.length msg)) = "isolation"))

(* reading another operation's section is allowed by region 0 (integrity,
   not confidentiality — see DESIGN.md), but writing never is *)
let test_unlisted_peripheral_blocked () =
  let benign =
    Program.v ~name:"periph-iso" ~globals:[ word "g" ]
      ~peripherals:[ uart; gpio ]
      ~funcs:
        [ func "task_a" [] [ store (reg uart 4) (c 1); ret0 ];
          func "main" [] [ call "task_a" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "task_a" ] benign in
  let rogue =
    { benign with
      Program.funcs =
        List.map
          (fun (f : Func.t) ->
            if String.equal f.Func.name "task_a" then
              { f with Func.body = [ store (reg gpio 0x14) (c 1); ret0 ] }
            else f)
          benign.Program.funcs }
  in
  let rogue_instr, _ =
    C.Instrument.instrument rogue image.C.Image.layout
      ~entries:image.C.Image.entries
  in
  let rogue_image = { image with C.Image.program = rogue_instr } in
  let dev = M.Device.stub "GPIO" ~base:0x4002_0C00 ~size:0x400 in
  let dev2 = M.Device.stub "UART" ~base:0x4000_4400 ~size:0x400 in
  match run ~devices:[ dev; dev2 ] rogue_image with
  | _ -> Alcotest.fail "unlisted peripheral should abort"
  | exception Ex.Interp.Aborted _ -> ()

(* An image whose compile-time relocation constant points at another
   operation's shadow — the recorded site and the code both re-pointed —
   is refused before anything runs, naming the function and the
   variable. *)
let test_tampered_resolution_rejected () =
  let p =
    Program.v ~name:"resolved"
      ~globals:[ word "shared" ]
      ~peripherals:[]
      ~funcs:
        [ func "task_a" [] [ store (gv "shared") (c 1); ret0 ];
          func "task_b" [] [ store (gv "shared") (c 2); ret0 ];
          func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "task_a"; "task_b" ] p in
  ignore (run image);
  let shadow op =
    Option.get (C.Layout.shadow_of image.C.Image.layout ~op ~var:"shared")
  in
  let a = shadow "task_a" and b = shadow "task_b" in
  let stats = image.C.Image.stats in
  Alcotest.(check bool) "task_a resolved to its shadow" true
    (List.mem { C.Instrument.fn = "task_a"; var = "shared"; addr = a }
       stats.C.Instrument.resolved);
  let retarget (f : Func.t) =
    if not (String.equal f.Func.name "task_a") then f
    else
      { f with
        Func.body =
          Instr.map_block
            (fun i ->
              [ Instr.map_exprs
                  (fun e ->
                    if e = E.i a then E.i b else e)
                  i ])
            f.Func.body }
  in
  let tampered =
    { image with
      C.Image.program =
        { image.C.Image.program with
          Program.funcs = List.map retarget image.C.Image.program.Program.funcs };
      stats =
        { stats with
          C.Instrument.resolved =
            List.map
              (fun (s : C.Instrument.site) ->
                if String.equal s.C.Instrument.fn "task_a" then
                  { s with C.Instrument.addr = b }
                else s)
              stats.C.Instrument.resolved } }
  in
  let bus = M.Bus.create ~board:tampered.C.Image.board in
  match Mon.Monitor.create tampered bus with
  | _ -> Alcotest.fail "a mis-resolved relocation must be refused"
  | exception Mon.Monitor.Violation msg ->
    let mentions needle =
      let n = String.length msg and m = String.length needle in
      let rec go i = i + m <= n && (String.sub msg i m = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("names the function: " ^ msg) true (mentions "task_a");
    Alcotest.(check bool) ("names the variable: " ^ msg) true (mentions "shared")

(* the relocation table is read-only at the unprivileged level *)
let test_reloc_table_not_writable () =
  let benign =
    Program.v ~name:"reloc-iso"
      ~globals:[ word "shared" ]
      ~peripherals:[]
      ~funcs:
        [ func "task_a" [] [ store (gv "shared") (c 1); ret0 ];
          func "task_b" [] [ load "x" (gv "shared"); ret0 ];
          func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "task_a"; "task_b" ] benign in
  let slot = Option.get (C.Layout.reloc_slot image.C.Image.layout "shared") in
  let rogue =
    { benign with
      Program.funcs =
        List.map
          (fun (f : Func.t) ->
            if String.equal f.Func.name "task_a" then
              { f with
                Func.body =
                  [ (* re-point the relocation slot at attacker data *)
                    store (cl (Int64.of_int slot)) (c 0x2000_0000);
                    ret0 ] }
            else f)
          benign.Program.funcs }
  in
  let rogue_instr, _ =
    C.Instrument.instrument rogue image.C.Image.layout
      ~entries:image.C.Image.entries
  in
  let rogue_image = { image with C.Image.program = rogue_instr } in
  match run rogue_image with
  | _ -> Alcotest.fail "relocation table write should abort"
  | exception Ex.Interp.Aborted _ -> ()

(* --- sanitization --------------------------------------------------------- *)

let test_sanitization_aborts () =
  let p =
    Program.v ~name:"sanitize"
      ~globals:[ word "speed" ]
      ~peripherals:[]
      ~funcs:
        [ func "set_speed" [ pw "v" ] [ store (gv "speed") (l "v"); ret0 ];
          func "reader" [] [ load "x" (gv "speed"); ret0 ];
          func "main" []
            [ call "set_speed" [ c 500 ]; call "reader" []; halt ] ]
      ()
  in
  let sanitize =
    [ { C.Dev_input.sz_global = "speed"; sz_min = 0L; sz_max = 100L } ]
  in
  let image = compile ~sanitize ~entries:[ "set_speed"; "reader" ] p in
  (match run image with
  | _ -> Alcotest.fail "out-of-range value should abort at sync"
  | exception Ex.Interp.Aborted msg ->
    Alcotest.(check bool) "mentions sanitization" true
      (String.length msg >= 12 && String.sub msg 0 12 = "sanitization"));
  (* and an in-range value passes *)
  let ok =
    Program.v ~name:"sanitize-ok"
      ~globals:[ word "speed" ]
      ~peripherals:[]
      ~funcs:
        [ func "set_speed" [ pw "v" ] [ store (gv "speed") (l "v"); ret0 ];
          func "reader" [] [ load "x" (gv "speed"); ret0 ];
          func "main" [] [ call "set_speed" [ c 55 ]; call "reader" []; halt ] ]
      ()
  in
  let image = compile ~sanitize ~entries:[ "set_speed"; "reader" ] ok in
  ignore (run image)

(* --- stack protection (Figure 8) ------------------------------------------ *)

let test_argument_relocation () =
  let p =
    Program.v ~name:"stack"
      ~globals:[ word "sum" ]
      ~peripherals:[]
      ~funcs:
        [ (* fills the caller-stack buffer through the relocated pointer;
             the monitor copies the result back on exit *)
          func "fill" [ pp_ "buf" Ty.Byte; pw "len" ]
            (for_ "i" (l "len")
               [ store8 E.(l "buf" + l "i") E.(l "i" + c 1) ]
            @ [ ret0 ]);
          func "main" []
            [ alloca "buf" (Ty.Array (Ty.Byte, 8));
              memset (l "buf") (c 0) (c 8);
              call "fill" [ l "buf"; c 8 ];
              (* read back through the original stack buffer *)
              load8 "b0" (l "buf");
              load8 "b7" E.(l "buf" + c 7);
              store (gv "sum") E.(l "b0" + l "b7");
              halt ] ]
      ()
  in
  let stack_infos =
    [ { C.Dev_input.si_entry = "fill";
        ptr_args = [ { C.Dev_input.param_index = 0; buffer_bytes = 8 } ] } ]
  in
  let image = compile ~stack_infos ~entries:[ "fill" ] p in
  let r = run image in
  Alcotest.(check int64) "copy-back landed" 9L
    (read_global image r.Mon.Runner.bus "sum");
  Alcotest.(check bool) "bytes were relocated" true
    ((Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.relocated_bytes >= 8)

(* A relocated argument that names a shared global: [fill(&g)] stores
   42 through its stack copy, the copy lands back in the caller's view
   of [g] (its shadow, or the master under a read-only mapping), and
   the exit must publish it, so the next operation to read [g] sees 42
   on every backend, as the unprotected run does. *)
let test_copy_back_publishes () =
  let p =
    Program.v ~name:"copyback"
      ~globals:[ word "g"; word "out" ]
      ~peripherals:[]
      ~funcs:
        [ func "fill" [ pp_ "p" Ty.Word ] [ store (l "p") (c 42); ret0 ];
          func "use" [] [ load "v" (gv "g"); store (gv "out") (l "v"); ret0 ];
          func "main" [] [ call "fill" [ gv "g" ]; call "use" []; halt ] ]
      ()
  in
  let stack_infos =
    [ { C.Dev_input.si_entry = "fill";
        ptr_args = [ { C.Dev_input.param_index = 0; buffer_bytes = 4 } ] } ]
  in
  List.iter
    (fun backend ->
      let image =
        C.Compiler.compile ~backend p
          (C.Dev_input.v ~stack_infos [ "fill"; "use" ])
      in
      let r = run image in
      Alcotest.(check int64)
        (M.Backend.kind_name backend ^ ": use saw fill's write")
        42L (read_global image r.Mon.Runner.bus "out"))
    M.Backend.all_kinds

(* Without relocation info, WRITING to the caller's disabled stack
   sub-region faults — the protection Figure 8 illustrates.  (Reads fall
   through to the read-only background region: integrity, not
   confidentiality.) *)
let test_stack_subregions_disabled () =
  let p2 =
    Program.v ~name:"stackfault"
      ~globals:[ word "sink" ]
      ~peripherals:[]
      ~funcs:
        [ func "scribble" [ pp_ "buf" Ty.Byte ]
            [ store8 (l "buf") (c 1); ret0 ];
          func "main" []
            [ alloca "top_buf" (Ty.Array (Ty.Byte, 16));
              store8 (l "top_buf") (c 9);
              (* spacer pushes sp down at least one sub-region, so
                 top_buf lands in a sub-region the entry must not touch *)
              alloca "spacer" (Ty.Array (Ty.Byte, C.Config.stack_subregion_size));
              store8 (l "spacer") (c 1);
              call "scribble" [ l "top_buf" ];
              halt ] ]
      ()
  in
  (* no stack_info for scribble: the pointer still targets main's frame *)
  let image = compile ~entries:[ "scribble" ] p2 in
  match run image with
  | _ -> Alcotest.fail "write to the previous sub-region should fault"
  | exception Ex.Interp.Aborted _ -> ()

(* --- MPU virtualization ----------------------------------------------------- *)

let test_peripheral_virtualization () =
  let periphs =
    List.init 6 (fun i ->
        Peripheral.v (Printf.sprintf "P%d" i)
          ~base:(0x4001_0000 + (i * 0x10000)) ~size:0x400)
  in
  let p =
    Program.v ~name:"virt" ~globals:[ word "acc" ]
      ~peripherals:periphs
      ~funcs:
        [ func "t" []
            (List.concat_map
               (fun (pe : Peripheral.t) ->
                 [ store (reg pe 0) (c 1); load ("v" ^ pe.Peripheral.name) (reg pe 0) ])
               periphs
            @ [ ret0 ]);
          func "main" [] [ call "t" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "t" ] p in
  let devices =
    List.map
      (fun (pe : Peripheral.t) ->
        M.Device.stub pe.Peripheral.name ~base:pe.Peripheral.base ~size:0x400)
      periphs
  in
  let r = run ~devices image in
  Alcotest.(check bool) "rotations happened" true
    ((Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.virt_swaps >= 2)

(* --- core peripheral emulation ---------------------------------------------- *)

let test_core_peripheral_emulation () =
  let p =
    Program.v ~name:"ppb" ~globals:[ word "ticks" ]
      ~peripherals:[ dwt ]
      ~funcs:
        [ func "t" []
            [ load "v" (reg dwt 4);
              store (gv "ticks") (l "v");
              ret0 ];
          func "main" [] [ call "t" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "t" ] p in
  let r = run image in
  Alcotest.(check bool) "emulation used" true
    ((Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.emulations >= 1);
  Alcotest.(check bool) "got a cycle count" true
    (Int64.compare (read_global image r.Mon.Runner.bus "ticks") 0L > 0)

let test_core_peripheral_unlisted_blocked () =
  let benign =
    Program.v ~name:"ppb-iso" ~globals:[ word "g" ]
      ~peripherals:[ dwt ]
      ~funcs:
        [ func "t" [] [ store (gv "g") (c 1); ret0 ];
          func "main" [] [ call "t" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "t" ] benign in
  let rogue =
    { benign with
      Program.funcs =
        List.map
          (fun (f : Func.t) ->
            if String.equal f.Func.name "t" then
              { f with Func.body = [ load "v" (reg dwt 4); ret0 ] }
            else f)
          benign.Program.funcs }
  in
  let rogue_instr, _ =
    C.Instrument.instrument rogue image.C.Image.layout
      ~entries:image.C.Image.entries
  in
  let rogue_image = { image with C.Image.program = rogue_instr } in
  match run rogue_image with
  | _ -> Alcotest.fail "unlisted core peripheral should abort"
  | exception Ex.Interp.Aborted _ -> ()

(* --- pointer-field fixup ------------------------------------------------------ *)

let test_pointer_field_fixup () =
  (* a shared struct holds a pointer to another shared variable; after a
     switch, the pointer must target the new operation's shadow *)
  let p =
    Program.v ~name:"ptrfix"
      ~globals:
        [ struct_ "box" [ ("data_ptr", Ty.Pointer Ty.Word) ];
          words "payload" 2;
          word "seen" ]
      ~peripherals:[]
      ~funcs:
        [ func "producer" []
            [ store (gv "payload") (c 77);
              store (gv "box") (gv "payload");
              ret0 ];
          func "consumer" []
            [ load "p" (gv "box");
              load "v" (l "p");
              store (gv "seen") (l "v");
              ret0 ];
          func "main" [] [ call "producer" []; call "consumer" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "producer"; "consumer" ] p in
  let r = run image in
  Alcotest.(check int64) "consumer dereferenced its own shadow" 77L
    (read_global image r.Mon.Runner.bus "seen");
  Alcotest.(check bool) "a fixup happened" true
    ((Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.pointer_fixups >= 1)

(* --- incremental synchronization ---------------------------------------- *)

(* both tasks share x and y, but each writes only one: the static sync
   schedule must move strictly fewer bytes than full-slot syncing while
   producing bit-identical results *)
let test_incremental_sync_cuts_bytes () =
  let p =
    Program.v ~name:"incsync"
      ~globals:[ word "x"; word "y" ]
      ~peripherals:[]
      ~funcs:
        [ func "ta" []
            [ load "vx" (gv "x"); load "vy" (gv "y");
              store (gv "x") E.(l "vx" + l "vy" + c 1); ret0 ];
          func "tb" []
            [ load "vx" (gv "x"); load "vy" (gv "y");
              store (gv "y") E.(l "vx" + l "vy" + c 2); ret0 ];
          func "main" []
            [ call "ta" []; call "tb" []; call "ta" []; halt ] ]
      ()
  in
  let image = compile ~entries:[ "ta"; "tb" ] p in
  let r1 = run image in
  let r2 = Mon.Runner.run_protected ~sync:Mon.Monitor.Every_slot image in
  List.iter
    (fun gn ->
      Alcotest.(check int64) (gn ^ " identical under both modes")
        (read_global image r2.Mon.Runner.bus gn)
        (read_global image r1.Mon.Runner.bus gn))
    [ "x"; "y" ];
  let s1 = Mon.Monitor.stats r1.Mon.Runner.monitor in
  let s2 = Mon.Monitor.stats r2.Mon.Runner.monitor in
  Alcotest.(check int) "same switch count" s2.Mon.Stats.switches
    s1.Mon.Stats.switches;
  Alcotest.(check bool) "schedule moves strictly fewer bytes" true
    (s1.Mon.Stats.synced_bytes < s2.Mon.Stats.synced_bytes);
  Alcotest.(check bool) "per-switch average reflects it" true
    (Mon.Stats.synced_per_switch s1 < Mon.Stats.synced_per_switch s2)

(* bench ablation (2) in figures: PinLock at 20 rounds under the static
   schedule and both sync ablations, protected cycles and bytes moved *)
let test_sync_ablation_pins () =
  let module Apps = Opec_apps in
  let module P = Opec_pipeline.Pipeline in
  let app = Apps.Registry.pinlock ~rounds:20 () in
  let image = P.image (P.ctx app) in
  let run sync =
    let world = app.Apps.App.make_world () in
    world.Apps.App.prepare ();
    let r =
      Mon.Runner.run_protected ~sync ~devices:world.Apps.App.devices image
    in
    ( Ex.Interp.cycles r.Mon.Runner.interp,
      (Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.synced_bytes )
  in
  let check what (cycles, bytes) (c, b) =
    Alcotest.(check int64) (what ^ " cycles") cycles c;
    Alcotest.(check int) (what ^ " synced bytes") bytes b
  in
  check "shared-only" (2_013_375L, 1_612) (run Mon.Monitor.Scheduled);
  check "whole-section" (2_015_030L, 5_300) (run Mon.Monitor.Whole_section);
  check "every-slot" (2_014_174L, 3_588) (run Mon.Monitor.Every_slot)

(* --- relocation slots ------------------------------------------------------ *)

(* PinLock has no table site: no slot is live anywhere, so neither init
   nor any switch writes the table.  Slots seeded with sentinels after
   the image is loaded hold them through the whole run. *)
let test_pinlock_writes_no_slot () =
  let module Apps = Opec_apps in
  let module P = Opec_pipeline.Pipeline in
  let app = Apps.Registry.pinlock () in
  let image = P.image (P.ctx app) in
  Alcotest.(check int) "table sites" 0
    image.C.Image.stats.C.Instrument.reloc_sites;
  let slots = image.C.Image.layout.C.Layout.reloc_slots in
  Alcotest.(check bool) "PinLock has slots" true (slots <> []);
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let r = Mon.Runner.prepare ~devices:world.Apps.App.devices image in
  let sentinel i = Int64.of_int (0x5EED_0000 + i) in
  List.iteri
    (fun i (_, slot) -> M.Bus.write_raw r.Mon.Runner.bus slot 4 (sentinel i))
    slots;
  Mon.Monitor.init r.Mon.Runner.monitor;
  Ex.Interp.run ~reset_stack:false r.Mon.Runner.interp;
  Alcotest.(check (result unit string)) "output check" (Ok ())
    (world.Apps.App.check ());
  Alcotest.(check bool) "switched" true
    ((Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.switches > 0);
  List.iteri
    (fun i (var, slot) ->
      Alcotest.(check int64) ("slot of " ^ var ^ " never written") (sentinel i)
        (M.Bus.read_raw r.Mon.Runner.bus slot 4))
    slots

(* The ROADMAP probe that stopped every table write aborted FatFs-uSD
   with an isolation violation in Sd_Setup: its table sites really read
   the slots.  Dropping one live slot from an operation's switch writes
   must be caught both statically (L013) and at run time
   ([Monitor.verify] after a switch, or the run's own abort). *)
let test_dropped_live_slot_caught () =
  let module Apps = Opec_apps in
  let module P = Opec_pipeline.Pipeline in
  let module L = Opec_lint in
  let app = Apps.Registry.fatfs_usd () in
  let image = P.image (P.ctx app) in
  Alcotest.(check (list string)) "clean plan" []
    (List.map
       (fun (d : L.Diag.t) -> d.L.Diag.code)
       (List.filter L.Diag.is_error (L.Checks.live_relocation image)));
  let oi =
    let rec find i = function
      | [] -> Alcotest.fail "no Sd_Setup operation"
      | (op : C.Operation.t) :: rest ->
        if String.equal op.C.Operation.name "Sd_Setup" then i
        else find (i + 1) rest
    in
    find 0 image.C.Image.ops
  in
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let monitor = ref None and failures = ref [] in
  let report at = function
    | Ok () -> ()
    | Error e -> failures := (at ^ ": " ^ e) :: !failures
  in
  let r =
    Mon.Runner.prepare ~devices:world.Apps.App.devices
      ~wrap_handler:(Mon.Monitor.verifying ~monitor:(fun () -> !monitor) ~report)
      image
  in
  let plan = Mon.Monitor.reloc_plan r.Mon.Runner.monitor in
  let writes = plan.Mon.Monitor.on_switch.(oi) in
  Alcotest.(check bool) "Sd_Setup rewrites slots" true (Array.length writes > 0);
  plan.Mon.Monitor.on_switch.(oi) <- Array.sub writes 1 (Array.length writes - 1);
  Alcotest.(check bool) "L013 names the dropped slot" true
    (List.exists
       (fun (d : L.Diag.t) -> L.Diag.is_error d && String.equal d.L.Diag.code "L013")
       (L.Checks.relocation_writes plan image));
  monitor := Some r.Mon.Runner.monitor;
  Mon.Monitor.init r.Mon.Runner.monitor;
  let aborted =
    match Ex.Interp.run ~reset_stack:false r.Mon.Runner.interp with
    | () -> false
    | exception Ex.Interp.Aborted _ -> true
  in
  Alcotest.(check bool) "verify or the run fails" true
    (aborted || !failures <> [])

let suite () =
  [ ( "monitor",
      [ Alcotest.test_case "sync propagates" `Quick test_sync_propagates;
        Alcotest.test_case "incremental sync cuts bytes" `Quick
          test_incremental_sync_cuts_bytes;
        Alcotest.test_case "sync ablation pins" `Quick test_sync_ablation_pins;
        Alcotest.test_case "sync only shared" `Quick test_sync_only_shared;
        Alcotest.test_case "read-only master mapping" `Quick
          test_readonly_master_mapping;
        Alcotest.test_case "cross-section write blocked" `Quick test_cross_section_write_blocked;
        Alcotest.test_case "unlisted peripheral blocked" `Quick test_unlisted_peripheral_blocked;
        Alcotest.test_case "reloc table protected" `Quick test_reloc_table_not_writable;
        Alcotest.test_case "tampered resolution rejected" `Quick
          test_tampered_resolution_rejected;
        Alcotest.test_case "sanitization" `Quick test_sanitization_aborts;
        Alcotest.test_case "argument relocation" `Quick test_argument_relocation;
        Alcotest.test_case "copy-back publishes a global" `Quick
          test_copy_back_publishes;
        Alcotest.test_case "stack sub-regions" `Quick test_stack_subregions_disabled;
        Alcotest.test_case "MPU virtualization" `Quick test_peripheral_virtualization;
        Alcotest.test_case "core periph emulation" `Quick test_core_peripheral_emulation;
        Alcotest.test_case "unlisted core periph blocked" `Quick test_core_peripheral_unlisted_blocked;
        Alcotest.test_case "pointer field fixup" `Quick test_pointer_field_fixup;
        Alcotest.test_case "PinLock writes no relocation slot" `Quick
          test_pinlock_writes_no_slot;
        Alcotest.test_case "dropped live slot caught" `Quick
          test_dropped_live_slot_caught ] ) ]
