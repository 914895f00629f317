(* Convenience driver: assemble a machine for a board, load an image (or a
   vanilla baseline), wire the monitor into the interpreter, and run. *)

module M = Opec_machine
module C = Opec_core
module E = Opec_exec

type protected_run = {
  interp : E.Interp.t;
  monitor : Monitor.t;
  bus : M.Bus.t;
}

(* Build a protected run: machine + loaded image (stack registers set
   from its address map) + monitor handler.  [devices] are attached to
   the bus before loading; [wrap_handler] interposes on the monitor's
   trap handler (instrumentation such as the attack-injection
   campaign). *)
let prepare ?(devices = []) ?sync ?wrap_handler ?engine ?sink ?trace
    (image : C.Image.t) =
  let bus = M.Bus.create ~board:image.C.Image.board in
  List.iter (M.Bus.attach bus) devices;
  M.Bus.attach bus (M.Core_periph.systick ~cycles:(fun () -> M.Cpu.cycles bus.M.Bus.cpu));
  M.Bus.attach bus (M.Core_periph.dwt ~cycles:(fun () -> M.Cpu.cycles bus.M.Bus.cpu));
  M.Bus.attach bus (M.Core_periph.scb ());
  C.Image.load image bus;
  let monitor = Monitor.create ?sync ?sink image bus in
  let handler = Monitor.handler monitor in
  let handler =
    match wrap_handler with None -> handler | Some wrap -> wrap handler
  in
  let interp =
    E.Interp.create ~handler ~entries:image.C.Image.entries ?engine ?sink
      ?trace ~bus ~map:image.C.Image.map image.C.Image.program
  in
  let map = image.C.Image.map and cpu = bus.M.Bus.cpu in
  cpu.M.Cpu.sp <- map.E.Address_map.stack_top;
  cpu.M.Cpu.stack_base <- map.E.Address_map.stack_base;
  cpu.M.Cpu.stack_limit <- map.E.Address_map.stack_top;
  { interp; monitor; bus }

(* Initialize the monitor (shadow fill, MPU arm, privilege drop) and run
   the program from main. *)
let run_protected ?devices ?sync ?wrap_handler ?engine ?sink ?trace image =
  let r = prepare ?devices ?sync ?wrap_handler ?engine ?sink ?trace image in
  Monitor.init r.monitor;
  E.Interp.run ~reset_stack:false r.interp;
  r

type baseline_run = {
  b_interp : E.Interp.t;
  b_bus : M.Bus.t;
  b_layout : E.Vanilla_layout.t;
}

(* Build the unprotected baseline binary of [program].  [entries] marks
   operation entry functions so the interpreter still reports switch
   trigger points to [handler] (the campaign's injection wrapper around
   [E.Interp.abort_handler]); with neither, calls are plain and faults
   abort. *)
let prepare_baseline ?(devices = []) ?(entries = []) ?handler ?engine ?trace
    ~board (program : Opec_ir.Program.t) =
  let bus = M.Bus.create ~board in
  List.iter (M.Bus.attach bus) devices;
  M.Bus.attach bus (M.Core_periph.systick ~cycles:(fun () -> M.Cpu.cycles bus.M.Bus.cpu));
  M.Bus.attach bus (M.Core_periph.dwt ~cycles:(fun () -> M.Cpu.cycles bus.M.Bus.cpu));
  M.Bus.attach bus (M.Core_periph.scb ());
  let layout = E.Vanilla_layout.make ~board program in
  E.Vanilla_layout.load_initial_values bus
    ~global_addr:layout.E.Vanilla_layout.map.E.Address_map.global_addr program;
  let interp =
    E.Interp.create ?handler ~entries ?engine ?trace ~bus
      ~map:layout.E.Vanilla_layout.map program
  in
  { b_interp = interp; b_bus = bus; b_layout = layout }

let run_baseline ?devices ?entries ?handler ?engine ?trace ~board program =
  let r =
    prepare_baseline ?devices ?entries ?handler ?engine ?trace ~board program
  in
  E.Interp.run r.b_interp;
  r
