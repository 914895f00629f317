(** The firmware interpreter.

    Executes the structured IR against the machine model; every memory
    access goes through the bus so MPU and privilege checks fire where
    hardware would fire them.  Supervisor calls and faults are delivered
    to a pluggable {!handler} — OPEC-Monitor in protected runs. *)

open Opec_ir

(** Runtime termination with a diagnostic (isolation violation,
    sanitization failure, stack overflow, ...). *)
exception Aborted of string

(** The instruction budget ran out (runaway program). *)
exception Fuel_exhausted

(** Description of a faulting access, given to fault handlers so the
    monitor can emulate or retry it. *)
type access_desc =
  | Access_load of { addr : int; width : int }
  | Access_store of { addr : int; width : int; value : int64 }

type fault_action =
  | Retry           (** re-execute the access (the handler fixed the MPU) *)
  | Abort of string

type bus_action =
  | Emulated of int64  (** the handler performed the access *)
  | Bus_abort of string

(** Trap interface (the monitor).  [on_operation_enter] receives the
    evaluated arguments of a call to an operation entry and returns the
    (possibly relocated) arguments to run it with; [on_operation_exit]
    fires when the entry returns.  Both run at the privileged level. *)
type handler = {
  on_operation_enter : entry:Func.t -> args:int64 array -> int64 array;
  on_operation_exit : entry:Func.t -> unit;
  on_mem_fault : access_desc -> Opec_machine.Fault.info -> fault_action;
  on_bus_fault : access_desc -> Opec_machine.Fault.info -> bus_action;
  on_svc : int -> unit;
}

(** Baseline handler: no monitor, any fault aborts. *)
val abort_handler : handler

(** Execution engine.  [Tree] walks the IR with a hashtable environment
    per activation — the reference semantics.  [Compiled] (the default)
    translates each function body once, at image-load time, into OCaml
    closures with no opcode dispatch: locals in a byte-string frame read
    and written as unboxed [int64]s, expressions as three-address steps
    over constant and slot operands (no [int64] is boxed on the hot
    path), runs of pure instructions fused into superblocks with one
    fuel/cycle charge per run, direct-call targets bound to the callee's
    compiled code, and load/store fast paths that skip the bus's address
    decode when the target region is statically known.  Cycle
    accounting, fuel, traces, faults and memory effects are identical
    across the two (save the cycle count of a run that aborts inside an
    expression); the differential tests replay workloads under both
    engines and assert bit-equal observations. *)
type engine = Tree | Compiled

type t

(** [create ~bus ~map program] builds an interpreter.  [entries] lists
    the operation entry functions (calls to them run the SVC switch
    protocol); [fuel] bounds executed instructions; [max_depth] bounds
    the call stack; [engine] selects the execution engine (default
    [Compiled]); [sink] attaches a telemetry collector (default
    {!Opec_obs.Sink.null} — disabled, no allocation, no cycles);
    [trace] records the function-level execution trace {!trace} returns
    (default off: most runs never read it, and a long run's trace
    dominates the heap). *)
val create :
  ?fuel:int ->
  ?max_depth:int ->
  ?handler:handler ->
  ?entries:string list ->
  ?engine:engine ->
  ?sink:Opec_obs.Sink.t ->
  ?trace:bool ->
  bus:Opec_machine.Bus.t ->
  map:Address_map.t ->
  Program.t ->
  t

(** The engine this interpreter was created with. *)
val engine : t -> engine

val cpu : t -> Opec_machine.Cpu.t

(** Replace the trap handler (used by the cooperative-thread scheduler
    to interpose on the yield SVC). *)
val set_handler : t -> handler -> unit

(** The last data-access fault delivered to the trap handler, if any —
    the faulting access plus the machine's {!Opec_machine.Fault.info}
    (address, access kind, privilege level).  Survives an [Aborted]
    unwind, so post-mortem classifiers (e.g. the attack campaign) can
    recover the faulting address instead of parsing the message. *)
val last_fault : t -> (access_desc * Opec_machine.Fault.info) option

(** The execution trace collected so far. *)
val trace : t -> Trace.t

(** Cycles charged so far (the DWT measurement). *)
val cycles : t -> int64

(** The instruction budget left (see [create]'s [fuel]). *)
val fuel : t -> int

(** Completed SVC transitions — both traps of the switch protocol, one
    on operation entry and one on exit — so this agrees with the
    monitor's [Stats.switches] on single-threaded runs.  (Threaded runs
    additionally count the scheduler's context switches on the monitor
    side.) *)
val switches : t -> int

(** The telemetry sink attached at {!create} ({!Opec_obs.Sink.null} by
    default).  The interpreter emits one [Svc_switch] mark per completed
    SVC transition; recording charges no cycles. *)
val sink : t -> Opec_obs.Sink.t

(** Normal termination via the [Halt] instruction. *)
exception Halted

(** Call a function by name with argument values. *)
val call : t -> string -> int64 list -> int64

(** Run the program from [main]; returns on [Halt] or when [main]
    returns.  [reset_stack] (default true) initializes SP from the
    address map. *)
val run : ?reset_stack:bool -> t -> unit
