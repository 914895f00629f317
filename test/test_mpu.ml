(* Tests for the MPU model against the ARMv7-M rules of Section 2.2. *)

module M = Opec_machine
module Mpu = M.Mpu
module Fault = M.Fault

let region ?srd ?executable ~base ~size_log2 ~priv ~unpriv () =
  Mpu.region ?srd ?executable ~base ~size_log2 ~privileged:priv
    ~unprivileged:unpriv ()

let allowed t ~privileged ~addr ~access =
  match Mpu.check t ~privileged ~addr ~access with
  | Ok () -> true
  | Error _ -> false

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
  let t = Mpu.create () in
  Alcotest.(check bool) "disabled allows" true
    (allowed t ~privileged:false ~addr:0xDEAD_BEE0 ~access:Fault.Write)

let test_background_map () =
  let t = Mpu.create () in
  Mpu.enable t;
  (* PRIVDEFENA: privileged accesses fall back to the default map *)
  Alcotest.(check bool) "privileged allowed" true
    (allowed t ~privileged:true ~addr:0x2000_0000 ~access:Fault.Write);
  Alcotest.(check bool) "unprivileged denied" false
    (allowed t ~privileged:false ~addr:0x2000_0000 ~access:Fault.Read)

let test_permissions () =
  let t = Mpu.create () in
  Mpu.set t 0
    (Some (region ~base:0x2000_0000 ~size_log2:10 ~priv:Mpu.Read_write ~unpriv:Mpu.Read_only ()));
  Mpu.enable t;
  Alcotest.(check bool) "unpriv read" true
    (allowed t ~privileged:false ~addr:0x2000_0100 ~access:Fault.Read);
  Alcotest.(check bool) "unpriv write denied" false
    (allowed t ~privileged:false ~addr:0x2000_0100 ~access:Fault.Write);
  Alcotest.(check bool) "priv write" true
    (allowed t ~privileged:true ~addr:0x2000_0100 ~access:Fault.Write);
  Alcotest.(check bool) "outside region, unpriv denied" false
    (allowed t ~privileged:false ~addr:0x2000_0400 ~access:Fault.Read)

let test_highest_region_wins () =
  let t = Mpu.create () in
  (* region 0: a large no-access range; region 7: small RW window inside *)
  Mpu.set t 0
    (Some (region ~base:0x2000_0000 ~size_log2:16 ~priv:Mpu.Read_write ~unpriv:Mpu.No_access ()));
  Mpu.set t 7
    (Some (region ~base:0x2000_1000 ~size_log2:8 ~priv:Mpu.Read_write ~unpriv:Mpu.Read_write ()));
  Mpu.enable t;
  Alcotest.(check bool) "window writable" true
    (allowed t ~privileged:false ~addr:0x2000_1080 ~access:Fault.Write);
  Alcotest.(check bool) "outside window denied" false
    (allowed t ~privileged:false ~addr:0x2000_0080 ~access:Fault.Write)

let test_subregions () =
  let t = Mpu.create () in
  (* 2 KiB region, 8 x 256-byte sub-regions; disable sub-regions 6 and 7 *)
  Mpu.set t 1
    (Some
       (region ~srd:0b1100_0000 ~base:0x2000_0000 ~size_log2:11
          ~priv:Mpu.Read_write ~unpriv:Mpu.Read_write ()));
  Mpu.enable t;
  Alcotest.(check bool) "sub-region 0 accessible" true
    (allowed t ~privileged:false ~addr:0x2000_0000 ~access:Fault.Write);
  Alcotest.(check bool) "sub-region 5 accessible" true
    (allowed t ~privileged:false ~addr:(0x2000_0000 + (5 * 256)) ~access:Fault.Write);
  Alcotest.(check bool) "sub-region 6 disabled" false
    (allowed t ~privileged:false ~addr:(0x2000_0000 + (6 * 256)) ~access:Fault.Write);
  Alcotest.(check bool) "sub-region 7 disabled" false
    (allowed t ~privileged:false ~addr:(0x2000_0000 + (7 * 256) + 255) ~access:Fault.Write)

let test_subregion_fallthrough () =
  let t = Mpu.create () in
  (* a lower-numbered region backs the disabled sub-region *)
  Mpu.set t 0
    (Some (region ~base:0x2000_0000 ~size_log2:12 ~priv:Mpu.Read_write ~unpriv:Mpu.Read_only ()));
  Mpu.set t 2
    (Some
       (region ~srd:0b0000_0001 ~base:0x2000_0000 ~size_log2:11
          ~priv:Mpu.Read_write ~unpriv:Mpu.Read_write ()));
  Mpu.enable t;
  (* sub-region 0 of region 2 is disabled -> region 0's RO applies *)
  Alcotest.(check bool) "fallthrough read" true
    (allowed t ~privileged:false ~addr:0x2000_0010 ~access:Fault.Read);
  Alcotest.(check bool) "fallthrough write denied" false
    (allowed t ~privileged:false ~addr:0x2000_0010 ~access:Fault.Write);
  Alcotest.(check bool) "enabled sub-region writable" true
    (allowed t ~privileged:false ~addr:0x2000_0100 ~access:Fault.Write)

(* Decisions are memoized per 32-byte block until the next register
   change: every way of changing the registers must retire the memo,
   and a region off the 32-byte grid (only a hand-built record can be)
   must bypass it.  Each answer is also compared with a fresh MPU
   holding the same registers, whose memo is empty. *)
let test_decision_memo () =
  let t = Mpu.create () in
  let ask ~privileged addr access =
    let fresh = Mpu.create () in
    Mpu.restore fresh (Mpu.regions t) ~enabled:t.Mpu.enabled;
    let a = allowed t ~privileged ~addr ~access in
    Alcotest.(check bool)
      (Printf.sprintf "memo agrees with a fresh MPU at 0x%08X" addr)
      (allowed fresh ~privileged ~addr ~access)
      a;
    a
  in
  let rw = region ~base:0x2000_0000 ~size_log2:10 ~priv:Mpu.Read_write in
  Mpu.set t 0 (Some (rw ~unpriv:Mpu.Read_write ()));
  Mpu.enable t;
  Alcotest.(check bool) "writable" true
    (ask ~privileged:false 0x2000_0100 Fault.Write);
  Mpu.set t 0 (Some (rw ~unpriv:Mpu.Read_only ()));
  Alcotest.(check bool) "set retires the memo" false
    (ask ~privileged:false 0x2000_0100 Fault.Write);
  let saved = Mpu.regions t in
  Mpu.clear t;
  Alcotest.(check bool) "clear retires the memo" false
    (ask ~privileged:false 0x2000_0100 Fault.Read);
  Mpu.restore t saved ~enabled:true;
  Alcotest.(check bool) "restore retires the memo" true
    (ask ~privileged:false 0x2000_0100 Fault.Read);
  Mpu.disable t;
  Alcotest.(check bool) "disable retires the memo" true
    (ask ~privileged:false 0x2000_0100 Fault.Write);
  Mpu.enable t;
  Alcotest.(check bool) "enable retires the memo" false
    (ask ~privileged:false 0x2000_0100 Fault.Write);
  (* a 32-byte window at 0x2000_0410, which shares its first block with
     0x2000_0400..0x2000_040F *)
  Mpu.set t 1
    (Some
       { Mpu.base = 0x2000_0410; size_log2 = 5; srd = 0;
         privileged = Mpu.Read_write; unprivileged = Mpu.Read_write;
         executable = false });
  Alcotest.(check bool) "below the window: no region" false
    (ask ~privileged:false 0x2000_0408 Fault.Read);
  Alcotest.(check bool) "same block, inside the window" true
    (ask ~privileged:false 0x2000_0418 Fault.Read);
  Alcotest.(check bool) "registers equal, memo aside" true
    (let f = Mpu.create () in
     Mpu.restore f (Mpu.regions t) ~enabled:true;
     Mpu.equal f t)

let test_execute_permission () =
  let t = Mpu.create () in
  Mpu.set t 0
    (Some (region ~base:0x0800_0000 ~size_log2:20 ~priv:Mpu.Read_write ~unpriv:Mpu.Read_only ()));
  Mpu.set t 1
    (Some
       (region ~executable:true ~base:0x0800_0000 ~size_log2:16
          ~priv:Mpu.Read_write ~unpriv:Mpu.Read_only ()));
  Mpu.enable t;
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
        let t = Mpu.create () in
        Mpu.set t 0
          (Some
             (region ~srd ~base ~size_log2:11 ~priv:Mpu.Read_write
                ~unpriv:Mpu.Read_write ()));
        Mpu.enable t;
        t
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
        QCheck_alcotest.to_alcotest prop_region_size_minimal;
        QCheck_alcotest.to_alcotest prop_srd_monotonic ] ) ]
