(* Tests for the MPU model against the ARMv7-M rules of Section 2.2. *)

module M = Opec_machine
module Mpu = M.Mpu
module Fault = M.Fault

let region ?srd ?executable ~base ~size_log2 ~priv ~unpriv () =
  Mpu.region ?srd ?executable ~base ~size_log2 ~privileged:priv
    ~unprivileged:unpriv ()

(* An enabled MPU state holding [pairs] (slot, region). *)
let mpu pairs = M.Backend.make ~on:true (M.Backend.Mpu_regs (Mpu.make pairs))

let allowed st ~privileged ~addr ~access =
  Result.is_ok (M.Backend.check st ~privileged ~addr ~access)

let test_validation () =
  Alcotest.check_raises "too small"
    (Mpu.Invalid_region "size 2^4 out of range") (fun () ->
      ignore (region ~base:0 ~size_log2:4 ~priv:Mpu.Read_write ~unpriv:Mpu.No_access ()));
  Alcotest.check_raises "misaligned base"
    (Mpu.Invalid_region "base 0x20000010 not aligned to size 0x40") (fun () ->
      ignore
        (region ~base:0x2000_0010 ~size_log2:6 ~priv:Mpu.Read_write
           ~unpriv:Mpu.No_access ()));
  (* a 32-byte region at a 32-byte boundary is the smallest legal one *)
  ignore (region ~base:0x2000_0020 ~size_log2:5 ~priv:Mpu.Read_write ~unpriv:Mpu.No_access ())

let test_region_size_for () =
  Alcotest.(check (pair int int)) "min size" (32, 5) (Mpu.region_size_for 1);
  Alcotest.(check (pair int int)) "exact power" (64, 6) (Mpu.region_size_for 64);
  Alcotest.(check (pair int int)) "round up" (128, 7) (Mpu.region_size_for 65)

let test_disabled_mpu_allows_everything () =
  let t = M.Backend.create M.Backend.Mpu in
  Alcotest.(check bool) "disabled allows" true
    (allowed t ~privileged:false ~addr:0xDEAD_BEE0 ~access:Fault.Write)

let test_background_map () =
  let t = mpu [] in
  (* PRIVDEFENA: privileged accesses fall back to the default map *)
  Alcotest.(check bool) "privileged allowed" true
    (allowed t ~privileged:true ~addr:0x2000_0000 ~access:Fault.Write);
  Alcotest.(check bool) "unprivileged denied" false
    (allowed t ~privileged:false ~addr:0x2000_0000 ~access:Fault.Read)

let test_permissions () =
  let t =
    mpu
      [ (0, region ~base:0x2000_0000 ~size_log2:10 ~priv:Mpu.Read_write ~unpriv:Mpu.Read_only ()) ]
  in
  Alcotest.(check bool) "unpriv read" true
    (allowed t ~privileged:false ~addr:0x2000_0100 ~access:Fault.Read);
  Alcotest.(check bool) "unpriv write denied" false
    (allowed t ~privileged:false ~addr:0x2000_0100 ~access:Fault.Write);
  Alcotest.(check bool) "priv write" true
    (allowed t ~privileged:true ~addr:0x2000_0100 ~access:Fault.Write);
  Alcotest.(check bool) "outside region, unpriv denied" false
    (allowed t ~privileged:false ~addr:0x2000_0400 ~access:Fault.Read)

let test_highest_region_wins () =
  (* region 0: a large no-access range; region 7: small RW window inside *)
  let t =
    mpu
      [ (0, region ~base:0x2000_0000 ~size_log2:16 ~priv:Mpu.Read_write ~unpriv:Mpu.No_access ());
        (7, region ~base:0x2000_1000 ~size_log2:8 ~priv:Mpu.Read_write ~unpriv:Mpu.Read_write ()) ]
  in
  Alcotest.(check bool) "window writable" true
    (allowed t ~privileged:false ~addr:0x2000_1080 ~access:Fault.Write);
  Alcotest.(check bool) "outside window denied" false
    (allowed t ~privileged:false ~addr:0x2000_0080 ~access:Fault.Write)

let test_subregions () =
  (* 2 KiB region, 8 x 256-byte sub-regions; disable sub-regions 6 and 7 *)
  let t =
    mpu
      [ ( 1,
          region ~srd:0b1100_0000 ~base:0x2000_0000 ~size_log2:11
            ~priv:Mpu.Read_write ~unpriv:Mpu.Read_write () ) ]
  in
  Alcotest.(check bool) "sub-region 0 accessible" true
    (allowed t ~privileged:false ~addr:0x2000_0000 ~access:Fault.Write);
  Alcotest.(check bool) "sub-region 5 accessible" true
    (allowed t ~privileged:false ~addr:(0x2000_0000 + (5 * 256)) ~access:Fault.Write);
  Alcotest.(check bool) "sub-region 6 disabled" false
    (allowed t ~privileged:false ~addr:(0x2000_0000 + (6 * 256)) ~access:Fault.Write);
  Alcotest.(check bool) "sub-region 7 disabled" false
    (allowed t ~privileged:false ~addr:(0x2000_0000 + (7 * 256) + 255) ~access:Fault.Write)

let test_subregion_fallthrough () =
  (* a lower-numbered region backs the disabled sub-region *)
  let t =
    mpu
      [ (0, region ~base:0x2000_0000 ~size_log2:12 ~priv:Mpu.Read_write ~unpriv:Mpu.Read_only ());
        ( 2,
          region ~srd:0b0000_0001 ~base:0x2000_0000 ~size_log2:11
            ~priv:Mpu.Read_write ~unpriv:Mpu.Read_write () ) ]
  in
  (* sub-region 0 of region 2 is disabled -> region 0's RO applies *)
  Alcotest.(check bool) "fallthrough read" true
    (allowed t ~privileged:false ~addr:0x2000_0010 ~access:Fault.Read);
  Alcotest.(check bool) "fallthrough write denied" false
    (allowed t ~privileged:false ~addr:0x2000_0010 ~access:Fault.Write);
  Alcotest.(check bool) "enabled sub-region writable" true
    (allowed t ~privileged:false ~addr:0x2000_0100 ~access:Fault.Write)

(* --- the decision memo, on every backend ---------------------------------- *)

(* The bus memoizes each backend's decision per block of the state's
   grain, in the table that belongs to the installed state.  Every
   answer the bus gives is compared with {!M.Backend.check} on a fresh
   value of the same registers, whose memo is empty and unused. *)

let memo_allows bus ~privileged addr access =
  match M.Bus.check_as bus ~privileged ~addr ~access with
  | () -> true
  | exception Fault.Mem_manage _ -> false

(* Every access at every address in [addrs], twice (a miss, then a
   hit), against a fresh value; and the two compare equal although
   their memos differ. *)
let agree what bus addrs =
  let st = M.Bus.protection bus in
  let fresh = M.Backend.make ~on:st.M.Backend.on st.M.Backend.regs in
  Alcotest.(check bool)
    (what ^ ": registers equal, memo aside")
    true (M.Backend.equal fresh st);
  List.iter
    (fun addr ->
      List.iter
        (fun (privileged, access) ->
          for _ = 1 to 2 do
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s 0x%08X (%s)" what
                 (M.Backend.kind_name (M.Backend.kind_of st))
                 addr (Fmt.str "%a" Fault.pp_access access))
              (Result.is_ok (M.Backend.check fresh ~privileged ~addr ~access))
              (memo_allows bus ~privileged addr access)
          done)
        [ (false, Fault.Read); (false, Fault.Write); (false, Fault.Execute);
          (true, Fault.Read); (true, Fault.Write); (true, Fault.Execute) ])
    addrs

(* Entries a lookup of a non-negative address filled. *)
let filled (st : M.Backend.state) =
  Array.fold_left (fun n e -> if e >= 0 then n + 1 else n) 0 st.M.Backend.memo

let first_blocks = [ 0x0800_0000; 0x2000_0000; 0x4000_0000; 0xE000_0000 ]

(* The first blocks of flash, SRAM, the peripheral window and the PPB
   take distinct slots, so all four stay resident together. *)
let check_first_blocks what bus =
  List.iter
    (fun a -> ignore (memo_allows bus ~privileged:false a Fault.Read))
    first_blocks;
  let st = M.Bus.protection bus in
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Printf.sprintf "%s: block of 0x%08X stays resident" what a)
        (a asr st.M.Backend.shift)
        (st.M.Backend.memo.(M.Backend.slot st a) asr 6))
    first_blocks

(* Two operations; the first writes twelve spaced-out peripherals, more
   than the MPU, the PMP or the POE keys hold at once. *)
let crowded_program () =
  let open Opec_ir in
  let open Build in
  let periphs =
    List.init 12 (fun i ->
        Peripheral.v (Printf.sprintf "P%d" i)
          ~base:(0x4000_0000 + (i * 0x1000)) ~size:0x400)
  in
  ( Program.v ~name:"memo-app"
      ~globals:[ word "mine"; word "theirs" ]
      ~peripherals:periphs
      ~funcs:
        [ func "op_a" []
            ((store (gv "mine") (c 1) :: List.map (fun p -> store (reg p 0) (c 1)) periphs)
            @ [ ret0 ]);
          func "op_b" [] [ store (gv "theirs") (c 2); ret0 ];
          func "main" [] [ call "op_a" []; call "op_b" []; halt ] ]
      (),
    List.map (fun (p : Peripheral.t) -> p.Peripheral.base) periphs )

(* Installed states switched in and out as the monitor does: a switch
   back is the same value with the entries it filled, and a rotation
   builds a new value, leaving the installed state's table as it was. *)
let test_decision_memo () =
  let module C = Opec_core in
  let module Enf = Opec_monitor.Enforce in
  let program, periph_bases = crowded_program () in
  let board = M.Memmap.stm32479i_eval in
  List.iter
    (fun kind ->
      let what = M.Backend.kind_name kind in
      let image =
        C.Compiler.compile ~board ~backend:kind program
          (C.Dev_input.v [ "op_a"; "op_b" ])
      in
      let meta entry =
        let op = Option.get (C.Image.op_of_entry image entry) in
        Option.get (C.Image.meta_of image op.C.Operation.name)
      in
      let layout = image.C.Image.layout in
      let addrs =
        first_blocks @ periph_bases
        @ [ image.C.Image.code_base; layout.C.Layout.stack_base;
            layout.C.Layout.stack_top - 16 ]
        @ List.map
            (fun (s : C.Layout.section) -> s.C.Layout.base)
            (List.filter_map (C.Layout.section_of layout) [ "op_a"; "op_b" ])
      in
      let bus = M.Bus.create ~board in
      let install entry =
        fst (C.Backend_plan.install kind ~image ~meta:(meta entry) ~srd:0)
      in
      let img_a = install "op_a" and img_b = install "op_b" in
      M.Bus.set_protection bus img_a;
      agree (what ^ " op_a installed") bus addrs;
      check_first_blocks what bus;
      let memo_a = Array.copy img_a.M.Backend.memo in
      Alcotest.(check bool) (what ^ ": entries filled") true (filled img_a > 0);
      M.Bus.set_protection bus img_b;
      agree (what ^ " op_b installed") bus addrs;
      M.Bus.set_protection bus img_a;
      Alcotest.(check bool) (what ^ ": a switch back restores the value") true
        (M.Bus.protection bus == img_a);
      Alcotest.(check (array int))
        (what ^ ": the memo survives a switch away and back")
        memo_a img_a.M.Backend.memo;
      agree (what ^ " op_a restored") bus addrs;
      (* a permitted peripheral that is not resident: rotate it in *)
      let denied a = not (memo_allows bus ~privileged:false a Fault.Write) in
      let target = List.find_opt denied periph_bases in
      let memo_a = Array.copy img_a.M.Backend.memo in
      (match (kind, target) with
      | M.Backend.Cheri, None -> ()
      | M.Backend.Cheri, Some a ->
        Alcotest.failf "cheri: 0x%08X not granted" a
      | _, None -> Alcotest.failf "%s: every peripheral resident" what
      | _, Some a ->
        (match Enf.virtualize img_a ~meta:(meta "op_a") ~virt_next:0 ~addr:a with
        | None -> Alcotest.failf "%s: not rotated" what
        | Some (rotated, _) ->
          Alcotest.(check bool) (what ^ ": a rotation is a new value") false
            (rotated == img_a || rotated.M.Backend.memo == img_a.M.Backend.memo);
          M.Bus.set_protection bus rotated);
        Alcotest.(check bool) (what ^ ": allowed after the rotation") false
          (denied a);
        agree (what ^ " rotated") bus addrs;
        Alcotest.(check (array int))
          (what ^ ": a rotation leaves the installed memo alone")
          memo_a img_a.M.Backend.memo;
        M.Bus.set_protection bus img_a;
        Alcotest.(check bool) (what ^ ": denied after the switch back") true
          (denied a);
        agree (what ^ " rotation undone") bus addrs))
    M.Backend.all_kinds

(* Hand-built states, each answer against a fresh value: boundaries
   inside a 32-byte block narrow the grain, and the first blocks stay
   resident at every grain. *)
let test_memo_built_states () =
  let on_bus ?(on = true) regs =
    let bus = M.Bus.create ~board:M.Memmap.stm32479i_eval in
    M.Bus.set_protection bus (M.Backend.make ~on regs);
    bus
  in
  let shift bus = (M.Bus.protection bus).M.Backend.shift in
  let around base = List.init 12 (fun i -> base - 8 + (4 * i)) in
  (* MPU: read-write, read-only, empty, disabled, and a hand-built
     region off the 32-byte grid sharing a block with 0x2000_0400 *)
  let addrs = around 0x2000_0100 @ around 0x2000_0410 in
  let rw = region ~base:0x2000_0000 ~size_log2:10 ~priv:Mpu.Read_write in
  let regs pairs = M.Backend.Mpu_regs (Mpu.make pairs) in
  agree "mpu rw" (on_bus (regs [ (0, rw ~unpriv:Mpu.Read_write ()) ])) addrs;
  agree "mpu ro" (on_bus (regs [ (0, rw ~unpriv:Mpu.Read_only ()) ])) addrs;
  agree "mpu empty" (on_bus (regs [])) addrs;
  agree "mpu disabled"
    (on_bus ~on:false (regs [ (0, rw ~unpriv:Mpu.Read_write ()) ]))
    addrs;
  let bus = on_bus (regs [ (0, rw ~unpriv:Mpu.Read_write ()) ]) in
  agree "mpu enabled" bus addrs;
  Alcotest.(check int) "mpu: 32-byte grain" 5 (shift bus);
  (* an empty slot must not read as a decision for block -1 *)
  agree "mpu below address 0"
    (on_bus (regs [ (0, rw ~unpriv:Mpu.Read_write ()) ]))
    [ -4; -32; -36 ];
  let off_grid =
    { Mpu.base = 0x2000_0410; size_log2 = 4; srd = 0;
      privileged = Mpu.Read_write; unprivileged = Mpu.Read_write;
      executable = false }
  in
  let bus = on_bus (regs [ (0, rw ~unpriv:Mpu.Read_write ()); (1, off_grid) ]) in
  agree "mpu off-grid region" bus addrs;
  Alcotest.(check int) "mpu: 16-byte grain" 4 (shift bus);
  (* PMP: a TOR boundary inside a 32-byte block *)
  let addrs = around 0x2000_0100 in
  let napot =
    M.Pmp.napot ~base:0x2000_0000 ~size_log2:12 ~r:true ~w:false ~x:false ()
  in
  let regs pairs = M.Backend.Pmp_regs (M.Pmp.make pairs) in
  agree "pmp napot" (on_bus (regs [ (1, napot) ])) addrs;
  let bus =
    on_bus
      (regs
         [ (0, M.Pmp.tor ~base:0x2000_0104 ~limit:0x2000_0110 ~r:true ~w:true ~x:false ());
           (1, napot) ])
  in
  agree "pmp tor inside a block" bus addrs;
  Alcotest.(check int) "pmp: 4-byte grain" 2 (shift bus);
  check_first_blocks "pmp at a 4-byte grain" bus;
  (* CHERI: byte-granular bounds *)
  let addrs = List.init 40 (fun i -> 0x2000_0000 + i) in
  let read = M.Cheri.cap ~r:true ~base:0x2000_0000 ~len:32 () in
  let regs caps = M.Backend.Cheri_regs (M.Cheri.make caps) in
  agree "cheri read cap" (on_bus (regs [ read ])) addrs;
  let bus =
    on_bus
      (regs [ read; M.Cheri.cap ~r:true ~w:true ~base:0x2000_0003 ~len:24 () ])
  in
  agree "cheri odd cap" bus addrs;
  Alcotest.(check int) "cheri: byte grain" 0 (shift bus);
  check_first_blocks "cheri at a byte grain" bus;
  agree "cheri empty" (on_bus (regs [])) addrs;
  (* POE: key permissions, and key recycling *)
  let addrs = around 0x4000_0000 @ around 0x4000_0040 in
  let keyed = M.Poe.overlay ~key:1 ~base:0x4000_0000 ~limit:0x4000_0020 () in
  let keyless = M.Poe.overlay ~base:0x4000_0040 ~limit:0x4000_0060 () in
  let poe perm = M.Poe.make ~keys:[ (1, perm, false) ] [ keyed; keyless ] in
  agree "poe keyed" (on_bus (M.Backend.Poe_regs (poe M.Poe.Read_write))) addrs;
  agree "poe key permission"
    (on_bus (M.Backend.Poe_regs (poe M.Poe.Read_only)))
    addrs;
  let recycled, victims = M.Poe.recycle (poe M.Poe.Read_only) keyless 1 in
  agree "poe key recycled" (on_bus (M.Backend.Poe_regs recycled)) addrs;
  Alcotest.(check int) "poe: one victim" 1 (List.length victims)

let test_execute_permission () =
  let t =
    mpu
      [ (0, region ~base:0x0800_0000 ~size_log2:20 ~priv:Mpu.Read_write ~unpriv:Mpu.Read_only ());
        ( 1,
          region ~executable:true ~base:0x0800_0000 ~size_log2:16
            ~priv:Mpu.Read_write ~unpriv:Mpu.Read_only () ) ]
  in
  Alcotest.(check bool) "code executable" true
    (allowed t ~privileged:false ~addr:0x0800_1000 ~access:Fault.Execute);
  Alcotest.(check bool) "data not executable" false
    (allowed t ~privileged:false ~addr:0x0801_0000 ~access:Fault.Execute)

(* property: region_size_for returns the smallest covering legal size *)
let prop_region_size_minimal =
  QCheck.Test.make ~name:"region_size_for is minimal and covering" ~count:500
    QCheck.(int_range 1 (1 lsl 20))
    (fun bytes ->
      let size, log2 = Mpu.region_size_for bytes in
      size = 1 lsl log2 && size >= bytes && size >= 32
      && (size = 32 || size / 2 < bytes))

(* property: sub-region disabling only ever removes access *)
let prop_srd_monotonic =
  QCheck.Test.make ~name:"disabling sub-regions never grants access" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 2047))
    (fun (srd, off) ->
      let base = 0x2000_0000 in
      let mk srd =
        mpu
          [ ( 0,
              region ~srd ~base ~size_log2:11 ~priv:Mpu.Read_write
                ~unpriv:Mpu.Read_write () ) ]
      in
      let with_srd = allowed (mk srd) ~privileged:false ~addr:(base + off) ~access:Fault.Write in
      let without = allowed (mk 0) ~privileged:false ~addr:(base + off) ~access:Fault.Write in
      (not with_srd) || without)

let suite () =
  [ ( "mpu",
      [ Alcotest.test_case "region validation" `Quick test_validation;
        Alcotest.test_case "region_size_for" `Quick test_region_size_for;
        Alcotest.test_case "disabled MPU" `Quick test_disabled_mpu_allows_everything;
        Alcotest.test_case "background map" `Quick test_background_map;
        Alcotest.test_case "permissions" `Quick test_permissions;
        Alcotest.test_case "highest region wins" `Quick test_highest_region_wins;
        Alcotest.test_case "sub-regions" `Quick test_subregions;
        Alcotest.test_case "sub-region fallthrough" `Quick test_subregion_fallthrough;
        Alcotest.test_case "execute permission" `Quick test_execute_permission;
        Alcotest.test_case "decision memo follows every change" `Quick
          test_decision_memo;
        Alcotest.test_case "memo of hand-built states" `Quick
          test_memo_built_states;
        QCheck_alcotest.to_alcotest prop_region_size_minimal;
        QCheck_alcotest.to_alcotest prop_srd_monotonic ] ) ]
