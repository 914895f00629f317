(** Convenience driver: assemble a machine, load an image (or a vanilla
    baseline), wire the monitor into the interpreter, and run.  [trace]
    records the interpreter's function-level trace
    ({!Opec_exec.Interp.trace}); it is off by default. *)

module M = Opec_machine
module C = Opec_core
module E = Opec_exec

type protected_run = {
  interp : E.Interp.t;
  monitor : Monitor.t;
  bus : M.Bus.t;
}

(** Build a protected run without starting it: machine + devices + core
    peripherals + loaded image + monitor-backed interpreter, with the
    CPU's [sp], [stack_base] and [stack_limit] set from the image's
    address map.  [sync] selects what switches synchronize (see
    {!Monitor.sync}).
    [wrap_handler] interposes on the monitor's trap handler — used by
    instrumentation such as the attack-injection campaign; [sink]
    attaches one telemetry collector to both the monitor and the
    interpreter. *)
val prepare :
  ?devices:M.Device.t list ->
  ?sync:Monitor.sync ->
  ?wrap_handler:(E.Interp.handler -> E.Interp.handler) ->
  ?engine:E.Interp.engine ->
  ?sink:Opec_obs.Sink.t ->
  ?trace:bool ->
  C.Image.t ->
  protected_run

(** Initialize the monitor (shadow fill, MPU arm, privilege drop) and
    run the program from [main]. *)
val run_protected :
  ?devices:M.Device.t list ->
  ?sync:Monitor.sync ->
  ?wrap_handler:(E.Interp.handler -> E.Interp.handler) ->
  ?engine:E.Interp.engine ->
  ?sink:Opec_obs.Sink.t ->
  ?trace:bool ->
  C.Image.t ->
  protected_run

type baseline_run = {
  b_interp : E.Interp.t;
  b_bus : M.Bus.t;
  b_layout : E.Vanilla_layout.t;
}

(** Build the unprotected baseline binary of a program.  [entries] marks
    operation entry functions so the interpreter still notifies
    [handler] at switch points (the attack campaign's injection trigger);
    both default to the plain uninstrumented baseline. *)
val prepare_baseline :
  ?devices:M.Device.t list ->
  ?entries:string list ->
  ?handler:E.Interp.handler ->
  ?engine:E.Interp.engine ->
  ?trace:bool ->
  board:M.Memmap.board ->
  Opec_ir.Program.t ->
  baseline_run

val run_baseline :
  ?devices:M.Device.t list ->
  ?entries:string list ->
  ?handler:E.Interp.handler ->
  ?engine:E.Interp.engine ->
  ?trace:bool ->
  board:M.Memmap.board ->
  Opec_ir.Program.t ->
  baseline_run
