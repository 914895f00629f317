(* Tests for the RISC-V PMP model and the OPEC plan translation
   (paper, Section 7: porting to other hardware platforms). *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module Pmp = M.Pmp
module C = Opec_core

(* An enabled PMP state holding [pairs] (index, entry). *)
let pmp pairs = M.Backend.make ~on:true (M.Backend.Pmp_regs (Pmp.make pairs))

let allowed st ~privileged ~addr ~access =
  Result.is_ok (M.Backend.check st ~privileged ~addr ~access)

(* A fresh backend of [kind] with [entry]'s operation installed (full
   stack, no sub-regions disabled), and the plan's overflow. *)
let install_on kind image entry =
  let op = Option.get (C.Image.op_of_entry image entry) in
  let meta = Option.get (C.Image.meta_of image op.C.Operation.name) in
  C.Backend_plan.install kind ~image ~meta ~srd:0

let test_validation () =
  Alcotest.check_raises "misaligned napot"
    (Pmp.Invalid_entry "NAPOT base 0x20000004 not aligned to 2^5") (fun () ->
      ignore (Pmp.napot ~base:0x2000_0004 ~size_log2:5 ~r:true ~w:true ~x:false ()));
  Alcotest.check_raises "tor inverted" (Pmp.Invalid_entry "TOR limit below base")
    (fun () -> ignore (Pmp.tor ~base:10 ~limit:5 ~r:true ~w:true ~x:false ()))

(* TOR bounds sit on the 4-byte grain, as NAPOT bases sit on their
   size: the memo's grain never drops below a word. *)
let test_tor_grain () =
  Alcotest.check_raises "tor base off the grain"
    (Pmp.Invalid_entry "TOR bounds [0x20000102,0x20000110) not 4-byte aligned")
    (fun () ->
      ignore (Pmp.tor ~base:0x2000_0102 ~limit:0x2000_0110 ~r:true ~w:true ~x:false ()));
  Alcotest.check_raises "tor limit off the grain"
    (Pmp.Invalid_entry "TOR bounds [0x20000100,0x20000111) not 4-byte aligned")
    (fun () ->
      ignore (Pmp.tor ~base:0x2000_0100 ~limit:0x2000_0111 ~r:true ~w:true ~x:false ()));
  let e = Pmp.tor ~base:0x2000_0104 ~limit:0x2000_0108 ~r:true ~w:true ~x:false () in
  Alcotest.(check bool) "a one-word TOR entry" true (Pmp.matches e 0x2000_0107)

let test_lowest_entry_wins () =
  (* entry 0: small RW window; entry 1: big RO covering it *)
  let t =
    pmp
      [ (0, Pmp.napot ~base:0x2000_1000 ~size_log2:8 ~r:true ~w:true ~x:false ());
        (1, Pmp.napot ~base:0x2000_0000 ~size_log2:16 ~r:true ~w:false ~x:false ()) ]
  in
  Alcotest.(check bool) "window writable" true
    (allowed t ~privileged:false ~addr:0x2000_1010 ~access:M.Fault.Write);
  Alcotest.(check bool) "outside read-only" false
    (allowed t ~privileged:false ~addr:0x2000_2000 ~access:M.Fault.Write);
  Alcotest.(check bool) "outside readable" true
    (allowed t ~privileged:false ~addr:0x2000_2000 ~access:M.Fault.Read)

let test_machine_mode_and_lock () =
  let t =
    pmp
      [ (0, Pmp.napot ~locked:true ~base:0x0800_0000 ~size_log2:16 ~r:true ~w:false ~x:true ());
        (1, Pmp.napot ~base:0x2000_0000 ~size_log2:16 ~r:true ~w:false ~x:false ()) ]
  in
  (* machine mode passes unlocked entries but honours locked ones *)
  Alcotest.(check bool) "machine write to unlocked" true
    (allowed t ~privileged:true ~addr:0x2000_0010 ~access:M.Fault.Write);
  Alcotest.(check bool) "machine write to locked flash" false
    (allowed t ~privileged:true ~addr:0x0800_0010 ~access:M.Fault.Write);
  Alcotest.(check bool) "user faults with no match" false
    (allowed t ~privileged:false ~addr:0x4000_0000 ~access:M.Fault.Read)

let test_tor_range () =
  let t =
    pmp [ (0, Pmp.tor ~base:0x2000_0100 ~limit:0x2000_0180 ~r:true ~w:true ~x:false ()) ]
  in
  Alcotest.(check bool) "inside" true
    (allowed t ~privileged:false ~addr:0x2000_0100 ~access:M.Fault.Write);
  Alcotest.(check bool) "limit exclusive" false
    (allowed t ~privileged:false ~addr:0x2000_0180 ~access:M.Fault.Write)

(* The OPEC plan translated onto PMP must enforce the same policy the
   MPU enforces: own section writable, other sections not, listed
   peripherals reachable, unlisted ones not. *)
let test_plan_translation () =
  let uart = Peripheral.v "UART" ~base:0x4000_4400 ~size:0x400 in
  let gpio = Peripheral.v "GPIO" ~base:0x4002_0C00 ~size:0x400 in
  let p =
    Program.v ~name:"pmp-app"
      ~globals:[ word "mine"; word "theirs"; word "shared" ]
      ~peripherals:[ uart; gpio ]
      ~funcs:
        [ func "task_a" []
            [ store (gv "mine") (c 1);
              load "s" (gv "shared");
              store (reg uart 4) (c 1);
              ret0 ];
          func "task_b" [] [ store (gv "theirs") (c 1); store (gv "shared") (c 2); ret0 ];
          func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
      ()
  in
  let image = C.Compiler.compile p (C.Dev_input.v [ "task_a"; "task_b" ]) in
  let layout = image.C.Image.layout in
  let pmp, overflow = install_on M.Backend.Pmp image "task_a" in
  Alcotest.(check int) "no overflow for one peripheral" 0 (List.length overflow);
  let sec_a = Option.get (C.Layout.section_of layout "task_a") in
  let sec_b = Option.get (C.Layout.section_of layout "task_b") in
  Alcotest.(check bool) "own section writable" true
    (allowed pmp ~privileged:false ~addr:sec_a.C.Layout.base ~access:M.Fault.Write);
  Alcotest.(check bool) "other section not writable" false
    (allowed pmp ~privileged:false ~addr:sec_b.C.Layout.base ~access:M.Fault.Write);
  Alcotest.(check bool) "other section readable (background)" true
    (allowed pmp ~privileged:false ~addr:sec_b.C.Layout.base ~access:M.Fault.Read);
  Alcotest.(check bool) "listed peripheral writable" true
    (allowed pmp ~privileged:false ~addr:0x4000_4404 ~access:M.Fault.Write);
  Alcotest.(check bool) "unlisted peripheral blocked" false
    (allowed pmp ~privileged:false ~addr:0x4002_0C14 ~access:M.Fault.Write);
  Alcotest.(check bool) "stack writable" true
    (allowed pmp ~privileged:false
       ~addr:(layout.C.Layout.stack_top - 16)
       ~access:M.Fault.Write);
  Alcotest.(check bool) "code executable" true
    (allowed pmp ~privileged:false ~addr:image.C.Image.code_base
       ~access:M.Fault.Execute)

(* differential property: for random addresses and accesses, the PMP
   translation is at least as restrictive as the MPU plan for
   unprivileged data accesses outside the stack's sub-region games *)
let prop_pmp_no_more_permissive =
  let uart = Peripheral.v "UART" ~base:0x4000_4400 ~size:0x400 in
  let p =
    Program.v ~name:"pmp-prop" ~globals:[ word "v" ] ~peripherals:[ uart ]
      ~funcs:
        [ func "t" [] [ store (gv "v") (c 1); store (reg uart 0) (c 1); ret0 ];
          func "main" [] [ call "t" []; halt ] ]
      ()
  in
  let image = C.Compiler.compile p (C.Dev_input.v [ "t" ]) in
  let mpu, _ = install_on M.Backend.Mpu image "t" in
  let pmp, _ = install_on M.Backend.Pmp image "t" in
  QCheck.Test.make ~name:"PMP translation is no more permissive (writes)"
    ~count:300
    QCheck.(int_bound 0x2FFF)
    (fun off ->
      let addr = 0x2000_0000 + (off * 16) in
      let pmp_ok =
        allowed pmp ~privileged:false ~addr ~access:M.Fault.Write
      in
      let mpu_ok = allowed mpu ~privileged:false ~addr ~access:M.Fault.Write in
      (not pmp_ok) || mpu_ok)

let suite () =
  [ ( "pmp",
      [ Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "lowest entry wins" `Quick test_lowest_entry_wins;
        Alcotest.test_case "machine mode + lock" `Quick test_machine_mode_and_lock;
        Alcotest.test_case "TOR ranges" `Quick test_tor_range;
        Alcotest.test_case "TOR bounds on the 4-byte grain" `Quick test_tor_grain;
        Alcotest.test_case "OPEC plan translation" `Quick test_plan_translation;
        QCheck_alcotest.to_alcotest prop_pmp_no_more_permissive ] ) ]
