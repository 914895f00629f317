(* TCP-Echo demo: the full lwIP-like stack under OPEC.

     dune exec examples/tcp_echo_demo.exe

   A desktop "client" (the scripted Ethernet device) sends a mix of valid
   and corrupted frames; the firmware echoes the valid ones.  The demo
   prints the operation policy for the packet path, runs the workload
   protected, and shows the echoes plus the monitor's work. *)

module M = Opec_machine
module C = Opec_core
module Mon = Opec_monitor
module Apps = Opec_apps

let () =
  let app = Apps.Registry.tcp_echo ~valid:3 ~invalid:9 () in
  let image = Opec_pipeline.Pipeline.image (Opec_pipeline.Pipeline.ctx app) in

  Format.printf "== packet-path operations ==@.";
  List.iter
    (fun (op : C.Operation.t) ->
      if
        List.mem op.C.Operation.name
          [ "Packet_Receive_Task"; "Packet_Process_Task" ]
      then Format.printf "%a@.@." C.Policy.pp_operation op)
    image.C.Image.ops;

  let world = app.Apps.App.make_world () in
  world.Apps.App.prepare ();
  let r =
    Mon.Runner.run_protected ~devices:world.Apps.App.devices ~trace:true image
  in
  (match world.Apps.App.check () with
  | Ok () -> Format.printf "== run ==@.all valid frames echoed correctly@."
  | Error e -> Format.printf "== run ==@.FAILED: %s@." e);
  Format.printf "cycles: %Ld@." (Opec_exec.Interp.cycles r.Mon.Runner.interp);
  Format.printf "monitor stats: %a@." Mon.Stats.pp
    (Mon.Monitor.stats r.Mon.Runner.monitor);

  (* the udp_input handler is an icall target but never executes: the
     execution-time over-privilege discussion of Section 6.5 *)
  let trace = Opec_exec.Interp.trace r.Mon.Runner.interp in
  let executed = Opec_exec.Trace.executed_functions trace in
  Format.printf "udp_input executed: %b (it is an icall target but no UDP frame survives the checksum)@."
    (List.mem "udp_input" executed)
