(* Exclusive host-time attribution over a stack of layers.

   The benchmark wraps each layer boundary it can reach from outside the
   program (a call into a public function, a device closure, the
   telemetry callback).  Entering a wrapper charges the time since the
   last mark to the layer on top of the stack and pushes the new layer;
   leaving charges the new layer and pops it.  Every nanosecond between
   the first push and the last pop is therefore charged to exactly one
   layer, so the layers of a traced run sum to its wall time, and time a
   layer spends inside another wrapped layer (telemetry emitted from a
   monitor handler, a device read performed by monitor emulation) goes
   to the inner one. *)

type layer =
  | Front
  | Points_to
  | Callgraph
  | Resources
  | Partition
  | Syncsets
  | Back
  | Prepare
  | Init
  | Exec   (** [Interp.run]: the time no wrapped layer inside it claims *)
  | Sweep  (** the compile-sweep loop around the compiler stages *)
  | Enter
  | Exit
  | Fault  (** the monitor's other traps: memory and bus faults, SVCs *)
  | Device
  | Emit

let all =
  [ Front; Points_to; Callgraph; Resources; Partition; Syncsets; Back;
    Prepare; Init; Exec; Sweep; Enter; Exit; Fault; Device; Emit ]

let index = function
  | Front -> 0
  | Points_to -> 1
  | Callgraph -> 2
  | Resources -> 3
  | Partition -> 4
  | Syncsets -> 5
  | Back -> 6
  | Prepare -> 7
  | Init -> 8
  | Exec -> 9
  | Sweep -> 10
  | Enter -> 11
  | Exit -> 12
  | Fault -> 13
  | Device -> 14
  | Emit -> 15

let name = function
  | Front -> "opec.front"
  | Points_to -> "analysis.points_to"
  | Callgraph -> "analysis.callgraph"
  | Resources -> "analysis.resources"
  | Partition -> "opec.partition"
  | Syncsets -> "opec.syncsets"
  | Back -> "opec.back"
  | Prepare -> "monitor.prepare"
  | Init -> "monitor.init"
  | Exec -> "exec.self"
  | Sweep -> "sweep.self"
  | Enter -> "monitor.enter"
  | Exit -> "monitor.exit"
  | Fault -> "monitor.fault"
  | Device -> "machine.device"
  | Emit -> "obs.emit"

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  ns : int array;
  calls : int array;
  stack : int array;
  mutable depth : int;
  mutable mark : int;
  mutable opened : int;  (** when the stack last left empty *)
  mutable wall : int;    (** ns with a non-empty stack, measured apart *)
}

let create () =
  let n = List.length all in
  { ns = Array.make n 0; calls = Array.make n 0; stack = Array.make 64 0;
    depth = 0; mark = 0; opened = 0; wall = 0 }

let charge_top t now =
  if t.depth > 0 then begin
    let top = t.stack.(t.depth - 1) in
    t.ns.(top) <- t.ns.(top) + (now - t.mark)
  end;
  t.mark <- now

let push t l =
  let now = now () in
  charge_top t now;
  if t.depth = 0 then t.opened <- now;
  let i = index l in
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.calls.(i) <- t.calls.(i) + 1

let pop t =
  let now = now () in
  charge_top t now;
  t.depth <- t.depth - 1;
  if t.depth = 0 then t.wall <- t.wall + (now - t.opened)

let span t l f =
  push t l;
  match f () with
  | v -> pop t; v
  | exception e -> pop t; raise e

(* [span] when a ledger is given, a plain call otherwise: untraced runs
   pay nothing. *)
let time t l f = match t with None -> f () | Some t -> span t l f

let seconds t l = float_of_int t.ns.(index l) *. 1e-9
let calls t l = t.calls.(index l)

(* The layers' charges summed; equal to [t.wall] unless a charge was
   lost. *)
let total_ns t = Array.fold_left ( + ) 0 t.ns

(* --- wrappers at the layer boundaries ---------------------------------- *)

module Ex = Opec_exec
module M = Opec_machine

let wrap_handler t (h : Ex.Interp.handler) : Ex.Interp.handler =
  { Ex.Interp.on_operation_enter =
      (fun ~entry ~args -> span t Enter (fun () -> h.on_operation_enter ~entry ~args));
    on_operation_exit =
      (fun ~entry -> span t Exit (fun () -> h.on_operation_exit ~entry));
    on_mem_fault = (fun a i -> span t Fault (fun () -> h.on_mem_fault a i));
    on_bus_fault = (fun a i -> span t Fault (fun () -> h.on_bus_fault a i));
    on_svc = (fun n -> span t Fault (fun () -> h.on_svc n)) }

let wrap_device t (d : M.Device.t) =
  { d with
    M.Device.read = (fun off w -> span t Device (fun () -> d.read off w));
    write = (fun off w v -> span t Device (fun () -> d.write off w v)) }

let wrap_emit t emit ev = span t Emit (fun () -> emit ev)
