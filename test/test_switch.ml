(* The compiled operation-switch protocol against its references.

   - After init and after every operation enter and exit,
     [Monitor.verify] compares the protection state the monitor cached
     and installed with a fresh [Backend_plan.install] of
     the same (operation, sub-region mask), and the operation's live
     relocation slots with its targets: every registry workload, every
     enforcement backend, and both sync ablations.
   - The switch-heavy load scenarios are pinned bit for bit: model
     cycles and every [Stats] counter (synced bytes included) of the
     request-storm and sensor-burst scenarios on all four backends must
     equal [data/switch_pin.json], recorded from the monitor that looked
     its tables up by name on every switch. *)

module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor
module Ex = Opec_exec
module Apps = Opec_apps
module P = Opec_pipeline.Pipeline
module L = Opec_load
module Json = Opec_obs.Json

(* --- cached protection states vs a fresh derivation ---------------------- *)

(* Run [app] protected on [backend], verifying the monitor after init and
   after every enter and exit.  Returns the number of checks made and
   the failures. *)
let verified_run ?sync ~backend (app : Apps.App.t) =
  let image = P.image (P.ctx ~backend app) in
  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let monitor = ref None and checks = ref 0 and failures = ref [] in
  let report what result =
    incr checks;
    match result with
    | Ok () -> ()
    | Error e -> failures := (what ^ ": " ^ e) :: !failures
  in
  let r =
    Mon.Runner.prepare ~devices:world.Apps.App.devices ?sync
      ~wrap_handler:(Mon.Monitor.verifying ~monitor:(fun () -> !monitor) ~report)
      image
  in
  monitor := Some r.Mon.Runner.monitor;
  Mon.Monitor.init r.Mon.Runner.monitor;
  report "init" (Mon.Monitor.verify r.Mon.Runner.monitor);
  Ex.Interp.run ~reset_stack:false r.Mon.Runner.interp;
  (* the run's outputs are the app's own check: a wrong compile-time
     relocation would show here even where the table verifies *)
  (match world.Apps.App.check () with
  | Ok () -> ()
  | Error e -> failures := ("output check: " ^ e) :: !failures);
  (!checks, List.rev !failures)

let check_verified ?sync what backends =
  List.iter
    (fun backend ->
      List.iter
        (fun (app : Apps.App.t) ->
          let label =
            Printf.sprintf "%s: %s on %s" what app.Apps.App.app_name
              (M.Backend.kind_name backend)
          in
          let checks, failures =
            verified_run ?sync ~backend app
          in
          Alcotest.(check (list string)) (label ^ " verified") [] failures;
          Alcotest.(check bool) (label ^ " switched") true (checks > 1))
        (Apps.Registry.all_small ()))
    backends

let test_verify_backends () = check_verified "schedule" M.Backend.all_kinds

(* The images resolve relocations at compile time in single-operation
   functions; the constants must hold under both ablations (which point
   read-only slots at the shadow), on every backend. *)
let test_verify_ablations () =
  check_verified ~sync:Mon.Monitor.Every_slot "every-slot" M.Backend.all_kinds;
  check_verified ~sync:Mon.Monitor.Whole_section "whole-section"
    M.Backend.all_kinds

(* --- the switch-heavy scenarios, bit for bit ----------------------------- *)

let pin_file = "data/switch_pin.json"

let pinned (r : L.Scenario.result) =
  let s = r.L.Scenario.r_stats and n v = Json.Int v in
  Json.Obj
    [ ("scenario", Json.String r.L.Scenario.r_scenario);
      ("backend", Json.String r.L.Scenario.r_backend);
      ("cycles", n (Int64.to_int r.L.Scenario.r_cycles));
      ("switches", n s.Mon.Stats.switches);
      ("synced_bytes", n s.Mon.Stats.synced_bytes);
      ("relocated_bytes", n s.Mon.Stats.relocated_bytes);
      ("virt_swaps", n s.Mon.Stats.virt_swaps);
      ("emulations", n s.Mon.Stats.emulations);
      ("pointer_fixups", n s.Mon.Stats.pointer_fixups);
      ("denied", n s.Mon.Stats.denied) ]

(* The file is a JSON array of pinned objects. *)
let read_pins path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok (Json.List pins) -> pins
  | Ok _ -> Alcotest.failf "%s: not a JSON array" path
  | Error e -> Alcotest.failf "%s: %s" path e

let json = Alcotest.testable (fun f v -> Fmt.string f (Json.to_string v)) ( = )

let test_pinned_scenarios () =
  let actual =
    List.concat_map
      (fun kind ->
        List.map
          (fun backend ->
            pinned (L.Scenario.run ~backend ~target_events:10_000 kind))
          M.Backend.all_kinds)
      [ L.Scenario.Request_storm; L.Scenario.Sensor_burst ]
  in
  Alcotest.(check (list json))
    "cycles and Stats equal the recorded values" (read_pins pin_file) actual

let suite () =
  [ ( "switch",
      [ Alcotest.test_case "cached images match a fresh install" `Slow
          test_verify_backends;
        Alcotest.test_case "cached images match under the ablations" `Slow
          test_verify_ablations;
        Alcotest.test_case "switch-heavy scenarios pinned" `Quick
          test_pinned_scenarios ] ) ]
