(* Tests for the attack-injection subsystem (lib/attack): planner
   determinism and coverage, campaign containment assertions, JSON
   byte-stability, MPU peripheral-region round-robin eviction under
   attack, and fault-info propagation into abort messages. *)

open Opec_ir
open Build
module M = Opec_machine
module C = Opec_core
module E = Opec_exec
module Mon = Opec_monitor
module Apps = Opec_apps
module Atk = Opec_attack
module P = Opec_pipeline.Pipeline

let pinlock () = Apps.Registry.pinlock ~rounds:2 ()

(* --- planner -------------------------------------------------------------- *)

let plan_names app =
  let image = P.image (P.ctx app) in
  List.map
    (fun (i : Atk.Planner.injection) -> Atk.Primitive.name i.Atk.Planner.primitive)
    (Atk.Planner.select (Atk.Planner.plan image))

let test_planner_covers_all_primitives () =
  let names = List.sort String.compare (plan_names (pinlock ())) in
  Alcotest.(check (list string))
    "one injection per primitive"
    (List.sort String.compare Atk.Primitive.all_names)
    names

let test_planner_deterministic () =
  let render app =
    let image = P.image (P.ctx app) in
    String.concat "\n"
      (List.map
         (fun i -> Format.asprintf "%a" Atk.Planner.pp i)
         (Atk.Planner.select (Atk.Planner.plan image)))
  in
  Alcotest.(check string)
    "two plans render identically"
    (render (pinlock ())) (render (pinlock ()))

(* --- campaign ------------------------------------------------------------- *)

let test_campaign_pinlock () =
  let m = Atk.Campaign.run_app (pinlock ()) in
  Alcotest.(check int) "6 injections" 6 (List.length m.Atk.Campaign.injections);
  Alcotest.(check int) "6 x 5 cells" 30 (List.length m.Atk.Campaign.cells);
  Alcotest.(check int) "no attack escapes OPEC" 0
    (List.length (Atk.Campaign.opec_escapes m));
  List.iter
    (fun (c : Atk.Campaign.cell) ->
      match c.Atk.Campaign.outcome with
      | Atk.Campaign.Blocked | Atk.Campaign.Contained -> ()
      | o ->
        Alcotest.failf "OPEC cell %s is %s: %s"
          (Atk.Primitive.name c.Atk.Campaign.injection.Atk.Planner.primitive)
          (Atk.Campaign.outcome_name o) c.Atk.Campaign.detail)
    (Atk.Campaign.cells_of m ~defense:Atk.Campaign.Opec);
  Alcotest.(check bool) "vanilla baseline is compromised" true
    (Atk.Campaign.vanilla_escaped m)

let test_json_deterministic () =
  let json () = Atk.Report.to_json [ Atk.Campaign.run_app (pinlock ()) ] in
  Alcotest.(check string) "byte-identical JSON" (json ()) (json ())

(* --- round-robin eviction under attack (MPU virtualization) --------------- *)

(* An operation that legitimately touches six scattered peripherals
   (two more than the four reserved MPU slots, forcing round-robin
   rotation) with an out-of-policy MMIO write interleaved mid-sequence.
   The rotation churn must not open a window: the rogue store has to
   fault even though regions were just evicted and refilled around it. *)

let virt_periphs =
  List.init 6 (fun i ->
      Peripheral.v
        (Printf.sprintf "DEV%d" i)
        ~base:(0x4000_0000 + (i * 0x10000))
        ~size:0x400)

let forbidden = Peripheral.v "FORBIDDEN" ~base:0x4800_0000 ~size:0x400

let touch (p : Peripheral.t) =
  [ store (reg p 0x0) (c 1); load ("v_" ^ p.Peripheral.name) (reg p 0x4) ]

let virt_firmware ~rogue =
  (* five legitimate peripherals (already past the 4-slot budget, so
     rotations have happened), then the rogue store, then the sixth *)
  let first5, last1 =
    match List.rev virt_periphs with
    | last :: rest -> (List.rev rest, [ last ])
    | [] -> assert false
  in
  let body =
    List.concat_map touch first5
    @ (if rogue then [ store (reg forbidden 0x0) (c 0xBAD) ] else [])
    @ List.concat_map touch last1
    @ [ ret0 ]
  in
  Program.v ~name:"virt-attack"
    ~globals:[ word "scratch" ]
    ~peripherals:(forbidden :: virt_periphs)
    ~funcs:
      [ func "busy_task" [] ~file:"app.c" body;
        func "main" [] ~file:"main.c" [ call "busy_task" []; halt ] ]
    ()

let virt_devices () =
  List.map
    (fun (p : Peripheral.t) ->
      M.Device.stub p.Peripheral.name ~base:p.Peripheral.base
        ~size:p.Peripheral.size)
    (forbidden :: virt_periphs)

(* the policy comes from the clean program; the rogue store is patched
   in afterwards so it stays outside busy_task's resources *)
let virt_rogue_image () =
  let input = C.Dev_input.v [ "busy_task" ] in
  let image = C.Compiler.compile (virt_firmware ~rogue:false) input in
  let rogue_program, _ =
    C.Instrument.instrument (virt_firmware ~rogue:true) image.C.Image.layout
      ~entries:image.C.Image.entries
  in
  { image with C.Image.program = rogue_program }

let test_virt_eviction_under_attack () =
  let image = virt_rogue_image () in
  let r = Mon.Runner.prepare ~devices:(virt_devices ()) image in
  Mon.Monitor.init r.Mon.Runner.monitor;
  (match E.Interp.run ~reset_stack:false r.Mon.Runner.interp with
  | () -> Alcotest.fail "rogue store past the rotation was not trapped"
  | exception E.Interp.Aborted msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    (* the abort message carries the faulting access (satellite: fault
       info propagates into aborts) *)
    Alcotest.(check bool)
      (Printf.sprintf "abort names the forbidden address: %s" msg)
      true
      (contains msg "0x48000000");
    Alcotest.(check bool) "abort names the unprivileged access" true
      (contains msg "unprivileged");
    (* the interpreter kept the machine-level fault record *)
    match E.Interp.last_fault r.Mon.Runner.interp with
    | Some (_, info) ->
      Alcotest.(check int) "last_fault address" 0x4800_0000
        info.M.Fault.addr;
      Alcotest.(check bool) "last_fault unprivileged" false
        info.M.Fault.privileged
    | None -> Alcotest.fail "Interp.last_fault empty after MPU abort");
  (* the legitimate five-peripheral prefix really rotated the slots *)
  let stats = Mon.Monitor.stats r.Mon.Runner.monitor in
  Alcotest.(check bool)
    (Printf.sprintf "regions rotated before the attack (%d swaps)"
       stats.Mon.Stats.virt_swaps)
    true
    (stats.Mon.Stats.virt_swaps > 0)

(* the same machine, driven through the campaign: the planner picks
   FORBIDDEN as the out-of-policy MMIO target and OPEC must block it
   while the vanilla baseline lets it through *)
let test_virt_campaign_cell () =
  let app =
    { Apps.App.app_name = "virt-attack";
      board = M.Memmap.stm32f4_discovery;
      program = virt_firmware ~rogue:false;
      dev_input = C.Dev_input.v [ "busy_task" ];
      make_world =
        (fun () ->
          { Apps.App.devices = virt_devices ();
            prepare = (fun () -> ());
            check = (fun () -> Ok ()) }) }
  in
  let m = Atk.Campaign.run_app app in
  let mmio defense =
    match
      List.find_opt
        (fun (c : Atk.Campaign.cell) ->
          c.Atk.Campaign.defense = defense
          && Atk.Primitive.name c.Atk.Campaign.injection.Atk.Planner.primitive
             = "mmio-write")
        m.Atk.Campaign.cells
    with
    | Some c -> c
    | None -> Alcotest.fail "no mmio-write cell in the matrix"
  in
  let opec = mmio Atk.Campaign.Opec in
  Alcotest.(check string)
    (Printf.sprintf "OPEC blocks the forbidden write: %s" opec.Atk.Campaign.detail)
    "blocked"
    (Atk.Campaign.outcome_name opec.Atk.Campaign.outcome);
  let vanilla = mmio Atk.Campaign.Vanilla in
  Alcotest.(check string) "vanilla lets the forbidden write through"
    "escaped"
    (Atk.Campaign.outcome_name vanilla.Atk.Campaign.outcome)

let suite () =
  [ ( "attack",
      [ Alcotest.test_case "planner covers all primitives" `Quick
          test_planner_covers_all_primitives;
        Alcotest.test_case "planner deterministic" `Quick
          test_planner_deterministic;
        Alcotest.test_case "campaign pinlock containment" `Quick
          test_campaign_pinlock;
        Alcotest.test_case "JSON byte-stable" `Quick test_json_deterministic;
        Alcotest.test_case "round-robin eviction under attack" `Quick
          test_virt_eviction_under_attack;
        Alcotest.test_case "campaign blocks virtualized-op MMIO" `Quick
          test_virt_campaign_cell ] ) ]
