(* Tests for shared globals granted in place: on PMP and CHERI a shared
   global with no pointer field and no sanitize rule keeps its master,
   gets no shadow, no sync and no relocation slot, and each operation
   that may write it holds a write grant over it.  The MPU and POE keep
   the paper's shadow-and-sync plan. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor
module L = Opec_load
module Apps = Opec_apps
module Atk = Opec_attack

let compile backend program entries =
  C.Compiler.compile ~backend program (C.Dev_input.v entries)

let read_global (image : C.Image.t) bus name =
  M.Bus.read_raw bus (image.C.Image.map.Opec_exec.Address_map.global_addr name) 4

let synced (r : Mon.Runner.protected_run) =
  (Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.synced_bytes

(* --- the sensor-burst shape ------------------------------------------------ *)

(* [acc] is the scenario's only shared global: a scalar both operations
   write.  Granted in place, no switch copies a byte, and the flushed
   sums the device checks still come out right. *)
let test_sensor_burst_syncs_nothing () =
  List.iter
    (fun backend ->
      let r = L.Scenario.run ~backend ~target_events:5_000 L.Scenario.Sensor_burst in
      let name = M.Backend.kind_name backend in
      (match r.L.Scenario.r_check with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e);
      let bytes = r.L.Scenario.r_stats.Mon.Stats.synced_bytes in
      match backend with
      | M.Backend.Pmp | M.Backend.Cheri ->
        Alcotest.(check int) (name ^ " syncs nothing") 0 bytes
      | M.Backend.Mpu | M.Backend.Poe ->
        Alcotest.(check bool) (name ^ " still syncs acc") true (bytes > 0))
    M.Backend.all_kinds

(* --- the PMP entry budget ------------------------------------------------- *)

(* [busy] uses [n] separate peripheral windows and writes [acc], which
   [light] and main share.  With 11 windows the stack, data section,
   code, spare and background entries fill the PMP's 16. *)
let budget_program n =
  let periphs =
    List.init n (fun i ->
        Peripheral.v (Printf.sprintf "P%d" i)
          ~base:(0x4000_0000 + (i * 0x800)) ~size:0x400)
  in
  let devices () =
    List.map
      (fun (p : Peripheral.t) ->
        M.Device.v p.Peripheral.name ~base:p.Peripheral.base ~size:p.Peripheral.size
          ~read:(fun _ _ -> 0L) ~write:(fun _ _ _ -> ()))
      periphs
  in
  let program =
    Program.v ~name:"full-pmp"
      ~globals:[ word "acc"; word "out" ]
      ~peripherals:periphs
      ~funcs:
        [ func "busy" []
            (List.mapi (fun i p -> store (reg p 0) (c i)) periphs
            @ [ load "a" (gv "acc"); store (gv "acc") E.(l "a" + c 1); ret0 ]);
          func "light" []
            [ load "a" (gv "acc"); store (gv "acc") E.(l "a" + c 10); ret0 ];
          func "main" []
            [ call "busy" []; call "light" []; call "busy" []; call "light" [];
              load "a" (gv "acc"); store (gv "out") (l "a"); halt ] ]
      ()
  in
  (program, devices)

(* A writer with no free entry keeps [acc] shadowed on the PMP, at the
   cycles and bytes the shadow plan always cost there (203 and 36), with
   no peripheral window moved into rotation; one window fewer frees an
   entry and the grant returns.  CHERI has no budget. *)
let test_budget_fallback () =
  let run n backend =
    let program, devices = budget_program n in
    let image = compile backend program [ "busy"; "light" ] in
    let r = Mon.Runner.run_protected ~devices:(devices ()) image in
    Alcotest.(check int64)
      (Printf.sprintf "%d windows on %s: output" n (M.Backend.kind_name backend))
      22L (read_global image r.Mon.Runner.bus "out");
    (image, r)
  in
  let image, r = run 11 M.Backend.Pmp in
  Alcotest.(check (list string)) "full PMP grants nothing in place" []
    image.C.Image.layout.C.Layout.direct;
  Alcotest.(check bool) "acc keeps its shadows" true
    (C.Layout.shadow_of image.C.Image.layout ~op:"busy" ~var:"acc" <> None);
  Alcotest.(check int64) "the shadow plan's cycles" 203L
    (Opec_exec.Interp.cycles r.Mon.Runner.interp);
  Alcotest.(check int) "the shadow plan's bytes" 36 (synced r);
  Alcotest.(check int) "no window rotates" 0
    (Mon.Monitor.stats r.Mon.Runner.monitor).Mon.Stats.virt_swaps;
  let image, r = run 10 M.Backend.Pmp in
  Alcotest.(check (list string)) "one free entry grants acc" [ "acc" ]
    image.C.Image.layout.C.Layout.direct;
  Alcotest.(check int) "and syncs nothing" 0 (synced r);
  let image, r = run 11 M.Backend.Cheri in
  Alcotest.(check (list string)) "CHERI has no budget" [ "acc" ]
    image.C.Image.layout.C.Layout.direct;
  Alcotest.(check int) "CHERI syncs nothing" 0 (synced r)

(* --- a pointer-field global beside a scalar -------------------------------- *)

(* [box] holds a pointer to [payload]: a shadow fill localizes pointer
   fields, so [box] stays shadowed; [payload] has none and is granted in
   place.  The consumer still dereferences to the producer's value. *)
let test_pointer_field_and_scalar () =
  let program =
    Program.v ~name:"mixed"
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
          func "main" []
            [ call "producer" []; call "consumer" [];
              load "s" (gv "seen"); halt ] ]
      ()
  in
  List.iter
    (fun backend ->
      let name = M.Backend.kind_name backend in
      let image = compile backend program [ "producer"; "consumer" ] in
      let layout = image.C.Image.layout in
      let r = Mon.Runner.run_protected image in
      Alcotest.(check int64) (name ^ ": consumer saw the producer's value") 77L
        (read_global image r.Mon.Runner.bus "seen");
      Alcotest.(check bool) (name ^ ": box shadowed") true
        (C.Layout.shadow_of layout ~op:"consumer" ~var:"box" <> None);
      Alcotest.(check bool) (name ^ ": box synced") true (synced r > 0);
      let direct = List.mem "payload" layout.C.Layout.direct in
      match backend with
      | M.Backend.Pmp | M.Backend.Cheri ->
        Alcotest.(check bool) (name ^ ": payload granted in place") true direct;
        Alcotest.(check bool) (name ^ ": payload has no shadow") true
          (C.Layout.shadow_of layout ~op:"consumer" ~var:"payload" = None
          && C.Layout.reloc_slot layout "payload" = None);
        Alcotest.(check (list (pair string (pair int int))))
          (name ^ ": only the producer holds a grant over payload")
          [ ("producer", (Option.get (C.Layout.master_of layout "payload"), 8)) ]
          (List.concat_map
             (fun (op, (m : C.Metadata.op_meta)) ->
               List.filter_map
                 (fun (v, base, len) ->
                   if String.equal v "payload" then Some (op, (base, len)) else None)
                 m.C.Metadata.grants)
             image.C.Image.metas)
      | M.Backend.Mpu | M.Backend.Poe ->
        Alcotest.(check bool) (name ^ ": payload shadowed") false direct)
    M.Backend.all_kinds

(* --- the backend study's rotations and emulations ----------------------- *)

(* Granting in place moves no peripheral window and no core-peripheral
   access: every app on every backend keeps the rotations and
   emulations it had under the shadow plan. *)
let test_study_swaps_and_emulations () =
  let t = Atk.Backend_study.run (Apps.Registry.all ()) in
  let expected =
    [ ("PinLock", [ (0, 3); (0, 3); (0, 3); (0, 3) ]);
      ("Animation", [ (0, 3); (0, 3); (0, 3); (0, 3) ]);
      ("FatFs-uSD", [ (0, 4); (0, 4); (0, 4); (0, 4) ]);
      ("LCD-uSD", [ (0, 4); (0, 4); (0, 4); (0, 4) ]);
      ("TCP-Echo", [ (0, 3); (0, 3); (0, 3); (0, 3) ]);
      ("Camera", [ (1, 5); (0, 5); (0, 5); (1, 5) ]);
      ("CoreMark", [ (0, 2); (0, 2); (0, 2); (0, 2) ]) ]
  in
  Alcotest.(check (list (pair string (list (pair int int)))))
    "(swaps, emulations) per app on mpu, pmp, cheri, poe" expected
    (List.map
       (fun app ->
         ( app,
           List.map
             (fun (r : Atk.Backend_study.row) ->
               let bd = r.Atk.Backend_study.r_breakdown in
               (bd.Opec_metrics.Overhead.bd_swaps, bd.Opec_metrics.Overhead.bd_emulations))
             (Atk.Backend_study.rows_of t ~app) ))
       (Atk.Backend_study.apps_of t))

let suite () =
  [ ( "direct-grants",
      [ Alcotest.test_case "sensor burst syncs nothing on PMP and CHERI" `Quick
          test_sensor_burst_syncs_nothing;
        Alcotest.test_case "a full PMP keeps its shadows" `Quick
          test_budget_fallback;
        Alcotest.test_case "pointer-field global shadowed, scalar granted" `Quick
          test_pointer_field_and_scalar;
        Alcotest.test_case "study keeps swaps and emulations" `Slow
          test_study_swaps_and_emulations ] ) ]
