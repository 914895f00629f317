(** OPEC-Monitor: the privileged reference monitor (Section 5).

    Linked against the image, it performs initialization (shadow fill,
    MPU arm, privilege drop), the operation switch (sanitize +
    synchronize shared globals through the public section, fix up shadow
    pointer fields, relocate pointer-type entry arguments onto the
    incoming stack sub-regions, reinstall the MPU), round-robin MPU
    virtualization for peripherals, and load/store emulation for core
    peripherals so no application code ever runs privileged. *)

type t

(** What an operation switch synchronizes: [Scheduled], the image's
    static sync schedule (the default); or one of two ablations that
    bypass it, [Every_slot] copying every shadow slot at every switch
    (the pre-schedule behaviour) and [Whole_section] staging the
    operation's entire data section besides. *)
type sync = Scheduled | Every_slot | Whole_section

(** Raised internally on blocked accesses and failed sanitization;
    surfaced to callers as {!Opec_exec.Interp.Aborted}. *)
exception Violation of string

(** [create image bus] builds the monitor state, materializing the
    image's static sync schedule, or under an ablation [sync] every
    shadow slot, into per-switch copy plans; [sink] attaches a
    telemetry collector (default {!Opec_obs.Sink.null}).

    Raises {!Violation}, naming the function and the variable, when a
    relocation the image resolved at compile time disagrees with
    {!Opec_core.Instrument.resolver}: the function is not in exactly
    one operation, the variable is mapped read-only there, or the
    constant is not that operation's target. *)
val create :
  ?sync:sync ->
  ?sink:Opec_obs.Sink.t ->
  Opec_core.Image.t ->
  Opec_machine.Bus.t ->
  t

(** The relocation-table writes, as (slot address, target) pairs.  An
    operation's live slots are those a table site
    ({!Opec_core.Instrument.table_loads}) in one of its functions reads;
    a table site in a function of no operation makes its slot live in
    every operation.  A slot whose every live operation wants the same
    target is written once, by {!init}, unless that target is the
    master address {!Opec_core.Image.load} already put there; every
    other live slot is written whenever an operation where it is live
    is entered, resumed or switched to.  A slot live nowhere is never
    written: it keeps the loader's master address. *)
type reloc_plan = {
  once : (int * int64) array;
      (** the single-target slots whose target is not their master,
          written by {!init} *)
  on_switch : (int * int64) array array;
      (** operation (in image order) -> the slots a switch into it writes *)
  live : (int * int64) array array;
      (** operation -> every live slot and its target: what {!verify}
          checks *)
}

(** The relocation plan [create ?sync image] derives; a pure function of
    the image (targets follow {!sync}: a read-only mapping's slot holds
    the master only under [Scheduled]). *)
val reloc_plan_of : ?sync:sync -> Opec_core.Image.t -> reloc_plan

(** The monitor's own plan.  Its arrays are the ones the switch reads,
    so a test can perturb them in place. *)
val reloc_plan : t -> reloc_plan

(** Runtime counters (switches, synced bytes, rotations, emulations,
    fix-ups, denials). *)
val stats : t -> Stats.t

(** The telemetry sink attached at {!create} ({!Opec_obs.Sink.null} by
    default).  With an active sink the monitor emits one
    phase-bracketed span per switch (and per {!init}), a region-swap
    event per MPU rotation, an emulation event per PPB access it
    performs, and a denial event — carrying the hardware's
    {!Opec_machine.Fault.info} when one exists — per rejected action.
    Event counts reconcile exactly with {!Stats}; recording charges no
    cycles, so instrumented runs are cycle-identical to plain ones. *)
val sink : t -> Opec_obs.Sink.t

(** Initialization (Section 5.1): copy initial values into every shadow
    section, enter the default operation, install its MPU plan, and drop
    privilege. *)
val init : t -> unit

(** The switch protocol (Section 5.3), normally invoked through
    {!handler}. *)
val enter_operation :
  t -> entry:Opec_ir.Func.t -> args:int64 array -> int64 array

val exit_operation : t -> entry:Opec_ir.Func.t -> unit

(** The oracle of the compiled switch protocol: [Ok ()] when the live
    protection state equals a fresh install of the active operation's
    plan (same sub-region mask) on the image's backend, and
    the operation's live relocation slots hold its targets; otherwise
    the first difference.  Charges no cycles.  Meaningful right after
    {!init} or a switch, before fault-time virtualization rotates
    protection. *)
val verify : t -> (unit, string) result

(** [verifying ~monitor ~report] is a [wrap_handler] for
    {!Runner.prepare}: after every operation enter and exit it runs
    {!verify} on [monitor ()] (nothing while that is [None]) and hands
    [report] the point (["enter F"] or ["exit F"]) and the result.
    [monitor] is a thunk because the handler is wrapped before
    {!Runner.prepare} returns the monitor. *)
val verifying :
  monitor:(unit -> t option) ->
  report:(string -> (unit, string) result -> unit) ->
  Opec_exec.Interp.handler ->
  Opec_exec.Interp.handler

(** The interpreter-facing trap interface. *)
val handler : t -> Opec_exec.Interp.handler

(** {2 Thread support (Section 7, single-core)} *)

(** An inactive thread's operation-context stack. *)
type thread_snapshot

(** The context a fresh thread starts with: the default operation. *)
val initial_snapshot : t -> thread_snapshot

(** Context switch: write back the current thread's operation shadows,
    adopt [next], refill its shadows and MPU plan; returns the previous
    thread's snapshot. *)
val thread_switch : t -> next:thread_snapshot -> thread_snapshot
