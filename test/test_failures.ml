(* Failure injection and determinism: error paths in the workloads, the
   machine model's determinism guarantee, and boundary conditions of the
   monitor's checks. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor
module Ex = Opec_exec
module Apps = Opec_apps
module P = Opec_pipeline.Pipeline

(* the machine model is deterministic: two identical protected runs give
   identical cycle counts and monitor statistics *)
let test_determinism () =
  let app = Apps.Registry.pinlock ~rounds:3 () in
  let image = P.image (P.ctx app) in
  let once () =
    let world = app.Apps.App.make_world () in
    world.Apps.App.prepare ();
    let r = Mon.Runner.run_protected ~devices:world.Apps.App.devices image in
    ( Ex.Interp.cycles r.Mon.Runner.interp,
      (Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.synced_bytes )
  in
  let c1, s1 = once () in
  let c2, s2 = once () in
  Alcotest.(check int64) "cycles equal" c1 c2;
  Alcotest.(check int) "synced bytes equal" s1 s2

(* pulling the SD card exercises the error-handling branch — the
   "untaken branch" code that normally contributes to ET *)
let test_sd_card_absent () =
  let p =
    Program.v ~name:"no-card"
      ~globals:Apps.Hal.all_globals
      ~peripherals:Apps.Soc.datasheet
      ~funcs:
        (Apps.Hal.all_funcs
        @ [ func "main" [] ~file:"main.c" [ call "BSP_SD_Init" []; halt ] ])
      ()
  in
  let sd_dev, sd = M.Sd_card.create "SDIO" ~base:Apps.Soc.sdio.Peripheral.base in
  M.Sd_card.set_present sd false;
  let r =
    Mon.Runner.run_baseline ~trace:true
      ~devices:(Apps.Soc.config_devices () @ [ sd_dev ])
      ~board:M.Memmap.stm32479i_eval p
  in
  let errs =
    M.Bus.read_raw r.Mon.Runner.b_bus
      (r.Mon.Runner.b_layout.Ex.Vanilla_layout.map.Ex.Address_map.global_addr
         "sd_error_count")
      4
  in
  Alcotest.(check int64) "error handler ran" 1L errs;
  (* and the error path shows up in the trace *)
  let executed =
    Ex.Trace.executed_functions (Ex.Interp.trace r.Mon.Runner.b_interp)
  in
  Alcotest.(check bool) "SD_ErrorHandler executed" true
    (List.mem "SD_ErrorHandler" executed);
  Alcotest.(check bool) "SD_InitCard skipped" false
    (List.mem "SD_InitCard" executed)

(* a device the image expects but the world does not provide bus-faults,
   and the baseline (no monitor) dies on it *)
let test_missing_device () =
  let uart = Peripheral.v "UART" ~base:0x4000_4400 ~size:0x400 in
  let p =
    Program.v ~name:"no-dev" ~globals:[]
      ~peripherals:[ uart ]
      ~funcs:
        [ func "main" [] ~file:"main.c"
            [ store (reg uart 4) (c 1); halt ] ]
      ()
  in
  match
    Mon.Runner.run_baseline ~devices:[] ~board:M.Memmap.stm32f4_discovery p
  with
  | _ -> Alcotest.fail "missing device should abort"
  | exception Ex.Interp.Aborted _ -> ()

(* sanitization bounds are inclusive on both ends *)
let test_sanitize_boundaries () =
  let mk v =
    Program.v ~name:"bounds"
      ~globals:[ word "speed" ]
      ~peripherals:[]
      ~funcs:
        [ func "setter" [] ~file:"app.c" [ store (gv "speed") (c v); ret0 ];
          func "reader" [] ~file:"app.c" [ load "x" (gv "speed"); ret0 ];
          func "main" [] ~file:"main.c"
            [ call "setter" []; call "reader" []; halt ] ]
      ()
  in
  let sanitize =
    [ { C.Dev_input.sz_global = "speed"; sz_min = 10L; sz_max = 20L } ]
  in
  let run v =
    let image =
      C.Compiler.compile (mk v) (C.Dev_input.v ~sanitize [ "setter"; "reader" ])
    in
    match Mon.Runner.run_protected image with
    | _ -> Ok ()
    | exception Ex.Interp.Aborted m -> Error m
  in
  Alcotest.(check bool) "min accepted" true (run 10 = Ok ());
  Alcotest.(check bool) "max accepted" true (run 20 = Ok ());
  Alcotest.(check bool) "below min rejected" true (Result.is_error (run 9));
  Alcotest.(check bool) "above max rejected" true (Result.is_error (run 21))

(* an operation whose entry aborts mid-flight must not corrupt the
   masters: the failed shadow write-back never happened *)
let test_abort_does_not_leak_shadow () =
  let uart = Peripheral.v "UART" ~base:0x4000_4400 ~size:0x400 in
  let benign =
    Program.v ~name:"leak"
      ~globals:[ word "shared" ]
      ~peripherals:[ uart ]
      ~funcs:
        [ func "writer" [] ~file:"app.c"
            [ store (gv "shared") (c 99); ret0 ];
          func "reader" [] ~file:"app.c" [ load "x" (gv "shared"); ret0 ];
          func "main" [] ~file:"main.c"
            [ call "writer" []; call "reader" []; halt ] ]
      ()
  in
  let image = C.Compiler.compile benign (C.Dev_input.v [ "writer"; "reader" ]) in
  (* compromise the writer: it updates its shadow, then trips the MPU *)
  let rogue =
    { benign with
      Program.funcs =
        List.map
          (fun (f : Func.t) ->
            if String.equal f.Func.name "writer" then
              { f with
                Func.body =
                  [ store (gv "shared") (c 99);
                    store (reg uart 4) (c 1) (* not in its policy *);
                    ret0 ] }
            else f)
          benign.Program.funcs }
  in
  let rogue_instr, _ =
    C.Instrument.instrument rogue image.C.Image.layout
      ~entries:image.C.Image.entries
  in
  let rogue_image = { image with C.Image.program = rogue_instr } in
  (match Mon.Runner.run_protected rogue_image with
  | _ -> Alcotest.fail "rogue peripheral access should abort"
  | exception Ex.Interp.Aborted _ -> ());
  (* nothing to assert on the aborted bus (the run died), but the benign
     build must still work and the shadow value must propagate *)
  let r = Mon.Runner.run_protected image in
  let v =
    M.Bus.read_raw r.Mon.Runner.bus
      (image.C.Image.map.Ex.Address_map.global_addr "shared") 4
  in
  Alcotest.(check int64) "benign run synchronizes" 99L v

(* TCP-Echo keeps working when every frame is garbage *)
let test_all_invalid_traffic () =
  let app = Apps.Registry.tcp_echo ~valid:0 ~invalid:6 () in
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let r =
    Mon.Runner.run_baseline ~devices:world.Apps.App.devices
      ~board:app.Apps.App.board app.Apps.App.program
  in
  ignore r;
  match world.Apps.App.check () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite () =
  [ ( "failure-injection",
      [ Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "SD card absent" `Quick test_sd_card_absent;
        Alcotest.test_case "missing device" `Quick test_missing_device;
        Alcotest.test_case "sanitize boundaries" `Quick test_sanitize_boundaries;
        Alcotest.test_case "abort does not leak" `Quick test_abort_does_not_leak_shadow;
        Alcotest.test_case "all-invalid traffic" `Quick test_all_invalid_traffic ] ) ]
