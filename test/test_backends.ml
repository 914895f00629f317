(* Tests for the enforcement-backend abstraction: the constraint edges
   that distinguish the four substrates (alignment rounding, match
   priority, key recycling vs region eviction), the MPU backend's
   bit-identity against the recorded pre-refactor campaign, and clean
   cross-backend protected runs through the pipeline. *)

module M = Opec_machine
module P = Opec_pipeline.Pipeline
module Apps = Opec_apps
module Atk = Opec_attack
module Mon = Opec_monitor

let pinlock_small () =
  match Apps.Registry.find "PinLock" (Apps.Registry.all_small ()) with
  | Some a -> a
  | None -> Alcotest.fail "PinLock missing from the registry"

(* --- alignment rule: 24 bytes across the four encodings ------------------ *)

(* A 24-byte window: the pow2 units (MPU, PMP) must round it to 32
   bytes, POE rounds to its 32-byte granule, and CHERI — byte-granular
   below the representability threshold — keeps the span exact. *)
let test_region_fit_alignment () =
  let fit k = M.Backend.region_fit (M.Backend.descriptor k) 24 in
  Alcotest.(check (pair int int))
    "MPU rounds 24 B up to a 32 B pow2 region" (32, 32) (fit M.Backend.Mpu);
  Alcotest.(check (pair int int))
    "PMP rounds like a pow2 unit too" (32, 32) (fit M.Backend.Pmp);
  Alcotest.(check (pair int int))
    "POE rounds to its 32 B granule" (32, 32) (fit M.Backend.Poe);
  Alcotest.(check (pair int int))
    "CHERI keeps the 24 B span exact" (1, 24) (fit M.Backend.Cheri);
  (* the same size the MPU's own constructor would pick *)
  Alcotest.(check int) "pow2 fit is Mpu.region_size_for's size"
    (fst (M.Mpu.region_size_for 24))
    (fst (fit M.Backend.Mpu))

(* A capability may sit at a base no pow2 region could encode. *)
let test_cheri_accepts_unaligned () =
  let base = 0x2000_0003 and len = 24 in
  Alcotest.(check (pair int int))
    "24 B at an odd base is representable as-is" (base, len)
    (M.Cheri.round_bounds ~base ~len);
  let t =
    M.Backend.make ~on:true
      (M.Backend.Cheri_regs (M.Cheri.make [ M.Cheri.cap ~r:true ~w:true ~base ~len () ]))
  in
  let ok addr =
    Result.is_ok (M.Backend.check t ~privileged:false ~addr ~access:M.Fault.Write)
  in
  Alcotest.(check bool) "first byte writable" true (ok base);
  Alcotest.(check bool) "last byte writable" true (ok (base + len - 1));
  Alcotest.(check bool) "one past the end faults" false (ok (base + len));
  Alcotest.(check bool) "one before the base faults" false (ok (base - 1))

(* --- match priority: PMP lowest-wins vs MPU highest-wins ----------------- *)

(* The same two overlapping windows — a permissive one and a blocking
   one — decide opposite ways on the two units: PMP consults the
   lowest-numbered matching entry, the MPU the highest-numbered
   matching region.  The planner must never rely on one convention. *)
let test_match_priority () =
  let addr = 0x2000_0010 in
  let pmp =
    M.Pmp.make
      [ (0, M.Pmp.napot ~base:0x2000_0000 ~size_log2:5 ~r:true ~w:true ~x:false ());
        (1, M.Pmp.napot ~base:0x2000_0000 ~size_log2:5 ~r:false ~w:false ~x:false ()) ]
  in
  let check regs =
    M.Backend.check (M.Backend.make ~on:true regs) ~privileged:false ~addr
      ~access:M.Fault.Write
  in
  Alcotest.(check bool) "PMP: permissive entry 0 shadows blocking entry 1"
    true
    (Result.is_ok (check (M.Backend.Pmp_regs pmp)));
  let mpu =
    M.Mpu.make
      [ ( 0,
          M.Mpu.region ~base:0x2000_0000 ~size_log2:5
            ~privileged:M.Mpu.Read_write ~unprivileged:M.Mpu.Read_write () );
        ( 1,
          M.Mpu.region ~base:0x2000_0000 ~size_log2:5
            ~privileged:M.Mpu.No_access ~unprivileged:M.Mpu.No_access () ) ]
  in
  Alcotest.(check bool) "MPU: blocking region 1 shadows permissive region 0"
    true
    (Result.is_error (check (M.Backend.Mpu_regs mpu)))

(* --- fault model: POE key exhaustion recycles, never evicts -------------- *)

let test_poe_key_recycling () =
  (* more windows than keys: the excess windows start keyless *)
  let n = M.Poe.key_count + 4 in
  let base_of i = 0x4000_0000 + (i * 64) in
  let t =
    M.Poe.make
      ~keys:(List.init M.Poe.key_count (fun k -> (k, M.Poe.Read_write, false)))
      (List.init n (fun i ->
           let key = if i < M.Poe.key_count then i else M.Poe.no_key in
           M.Poe.overlay ~key ~base:(base_of i) ~limit:(base_of i + 32) ()))
  in
  let writable t i =
    Result.is_ok
      (M.Backend.check
         (M.Backend.make ~on:true (M.Backend.Poe_regs t))
         ~privileged:false ~addr:(base_of i) ~access:M.Fault.Write)
  in
  Alcotest.(check bool) "keyed window accessible" true (writable t 3);
  Alcotest.(check bool) "keyless window faults" false (writable t M.Poe.key_count);
  (* exhaustion: recycle key 3 onto the faulting keyless window *)
  let t, victims =
    match M.Poe.find t (base_of M.Poe.key_count) with
    | Some ov -> M.Poe.recycle t ov 3
    | None -> Alcotest.fail "keyless window vanished"
  in
  Alcotest.(check int) "recycling strips exactly the key's windows" 1
    (List.length victims);
  Alcotest.(check int) "no window was evicted" n (List.length t.M.Poe.overlays);
  Alcotest.(check bool) "recycled window now accessible" true
    (writable t M.Poe.key_count);
  Alcotest.(check bool) "the victim window faults until the key returns"
    false (writable t 3)

(* --- entry budgets -------------------------------------------------------- *)

let test_entry_budgets () =
  let budget k = (M.Backend.descriptor k).M.Backend.d_entry_budget in
  Alcotest.(check (option int)) "MPU: 8 regions" (Some M.Mpu.region_count)
    (budget M.Backend.Mpu);
  Alcotest.(check (option int)) "PMP: 16 entries" (Some M.Pmp.entry_count)
    (budget M.Backend.Pmp);
  Alcotest.(check (option int)) "POE budgets its keys, not its windows"
    (Some M.Poe.key_count) (budget M.Backend.Poe);
  Alcotest.(check (option int)) "CHERI tables are unbudgeted" None
    (budget M.Backend.Cheri)

(* --- MPU bit-identity against the pre-refactor recording ----------------- *)

(* The campaign JSON recorded on pre-refactor main (before the backend
   abstraction existed) must be reproduced byte-for-byte by today's MPU
   backend: same injections, same outcomes, same detail strings, same
   cycle counts. *)
let test_mpu_campaign_bit_identity () =
  P.reset ();
  let recorded =
    let ic = open_in_bin "data/pre_refactor_pinlock_campaign.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let ms = Atk.Campaign.run_all [ pinlock_small () ] in
  Alcotest.(check string)
    "MPU campaign JSON bit-identical to the pre-refactor recording"
    (String.trim recorded)
    (String.trim (Atk.Report.to_json ms))

(* --- clean cross-backend protected runs ---------------------------------- *)

(* Transparency must hold under every backend: the clean protected run
   completes (no stuck fault), checks its world, and denies nothing. *)
let test_cross_backend_clean_runs () =
  let app = pinlock_small () in
  List.iter
    (fun backend ->
      let name = M.Backend.kind_name backend in
      let c = P.ctx ~backend app in
      let p = P.protected_ c in
      P.reraise p.P.p_err;
      Alcotest.(check int) (name ^ ": clean run denial-free") 0
        p.P.p_stats.Mon.Stats.denied;
      Alcotest.(check bool) (name ^ ": operations actually switched") true
        (p.P.p_stats.Mon.Stats.switches > 0))
    M.Backend.all_kinds

(* The study's gate (what `opec compare-backends` exits 1 on): a clean
   PinLock study passes, and a clean run with a denial is named. *)
let test_study_gate () =
  let t =
    Atk.Backend_study.run ~backends:[ M.Backend.Pmp ] [ pinlock_small () ]
  in
  Alcotest.(check (list string)) "clean study passes" []
    (Atk.Backend_study.failures t);
  let denied =
    { t with
      Atk.Backend_study.rows =
        List.map
          (fun r -> { r with Atk.Backend_study.r_denied = 3 })
          t.Atk.Backend_study.rows }
  in
  Alcotest.(check (list string)) "a denied clean run fails the gate"
    [ "DENIALS in clean pmp run of PinLock: 3" ]
    (Atk.Backend_study.failures denied)

(* A clean protected run that aborts is a gate failure, not an uncaught
   exception (which used to end `opec compare-backends` with exit 125):
   the operation writes a hard-coded SRAM word outside every resource
   the compiler granted it, which the unprotected baseline allows and
   the monitor refuses. *)
let stray_write_app () =
  let open Opec_ir.Build in
  let program =
    Opec_ir.Program.v ~name:"StrayWrite" ~globals:[ word "g" ] ~peripherals:[]
      ~funcs:
        [ func "Stray_Task" [] [ store (c 0x2001_0000) (c 1); ret0 ];
          func "main" [] [ store (gv "g") (c 1); call "Stray_Task" []; halt ] ]
      ()
  in
  { Apps.App.app_name = "StrayWrite";
    board = M.Memmap.stm32f4_discovery;
    program;
    dev_input = Opec_core.Dev_input.v [ "Stray_Task" ];
    make_world =
      (fun () ->
        { Apps.App.devices = []; prepare = ignore; check = (fun () -> Ok ()) }) }

let test_study_abort () =
  let t =
    Atk.Backend_study.run ~backends:[ M.Backend.Mpu ] [ stray_write_app () ]
  in
  Alcotest.(check (list string)) "the abort is the gate's one failure"
    [ "ABORTED in clean mpu run of StrayWrite: isolation violation in \
       Stray_Task: write of 0x20010000 at unprivileged level" ]
    (Atk.Backend_study.failures t);
  Alcotest.(check int) "compare-backends exits 1" 1
    (Atk.Backend_study.exit_code t)

let suite () =
  [ ( "backends",
      [ Alcotest.test_case "region_fit alignment edges" `Quick
          test_region_fit_alignment;
        Alcotest.test_case "CHERI accepts unaligned 24 B window" `Quick
          test_cheri_accepts_unaligned;
        Alcotest.test_case "PMP lowest-wins vs MPU highest-wins" `Quick
          test_match_priority;
        Alcotest.test_case "POE exhaustion recycles keys" `Quick
          test_poe_key_recycling;
        Alcotest.test_case "entry budgets per descriptor" `Quick
          test_entry_budgets;
        Alcotest.test_case "MPU campaign bit-identity" `Slow
          test_mpu_campaign_bit_identity;
        Alcotest.test_case "clean runs across all backends" `Slow
          test_cross_backend_clean_runs;
        Alcotest.test_case "backend study gate" `Slow test_study_gate;
        Alcotest.test_case "aborted clean run fails the study gate" `Quick
          test_study_abort ] ) ]
