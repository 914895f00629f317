(* The firmware interpreter.

   Executes the structured IR against the machine model.  Every memory
   access (loads, stores, memcpy/memset, spilled arguments) goes through
   the bus, so the MPU and privilege checks fire exactly where they would
   on hardware.  Supervisor calls and faults are delivered to a pluggable
   handler — OPEC-Monitor in instrumented runs, an abort-everything
   handler in baseline runs.

   Operation switching: the image marks operation entry functions.  When a
   call targets one, the interpreter performs the SVC protocol of
   Section 5.3: it traps to the handler with the evaluated arguments (the
   handler sanitizes/synchronizes globals, relocates stack data and
   rewrites the pointer arguments, reconfigures the MPU) and then invokes
   the entry with the arguments the handler returned; a second trap fires
   when the entry returns.

   Two execution engines share the machine-facing plumbing:

   - [Tree] walks the IR directly: a string-keyed hashtable environment
     per activation and a recursive [eval] dispatch per expression node.
     It is the reference semantics.
   - [Compiled] (the default) translates each function body once, at
     image-load time, into OCaml closures with no opcode dispatch:
     locals in an unboxed byte-string frame, expressions as
     three-address steps with constants folded and slot offsets bound
     into the closures themselves, runs of pure instructions fused into
     superblocks with one fuel/cycle charge per block, direct-call
     targets bound to the callee's compiled code at translation time,
     and load/store fast paths that skip the bus's address decode when
     the target region is statically known.  See the compiled-engine
     section below for the design and for the cycle-accounting
     argument.

   Cycle accounting is identical bit-for-bit between the engines at
   every observable point — bus accesses, operation switches, SVCs, and
   run completion — so every overhead ratio the evaluation reports is
   unchanged by the engine choice.  (The compiled engine batches
   expression-node cycles up front; the one divergence window is an
   abort inside an expression.)  The differential tests replay whole
   workloads under both engines and assert equal traces, cycles, and
   memory. *)

open Opec_ir
module M = Opec_machine
module Obs = Opec_obs

exception Aborted of string
exception Fuel_exhausted

type access_desc =
  | Access_load of { addr : int; width : int }
  | Access_store of { addr : int; width : int; value : int64 }

type fault_action = Retry | Abort of string
type bus_action = Emulated of int64 | Bus_abort of string

type handler = {
  on_operation_enter : entry:Func.t -> args:int64 array -> int64 array;
  on_operation_exit : entry:Func.t -> unit;
  on_mem_fault : access_desc -> M.Fault.info -> fault_action;
  on_bus_fault : access_desc -> M.Fault.info -> bus_action;
  on_svc : int -> unit;
}

(* Baseline handler: no monitor; any fault kills the firmware, any SVC is
   ignored (baseline images contain none). *)
let abort_handler =
  { on_operation_enter = (fun ~entry:_ ~args -> args);
    on_operation_exit = (fun ~entry:_ -> ());
    on_mem_fault =
      (fun _ info -> Abort (Fmt.str "MemManage: %a" M.Fault.pp_info info));
    on_bus_fault =
      (fun _ info -> Bus_abort (Fmt.str "BusFault: %a" M.Fault.pp_info info));
    on_svc = (fun _ -> ()) }

type engine = Tree | Compiled

(* A compiled activation record: one byte string, 8 bytes per slot,
   read and written as unboxed [int64]s (no [caml_modify], no box per
   write).  Slot 0 holds the return value, slots [1 .. nparams] the
   parameters, then the translator's expression temporaries, then the
   other locals.  A def-tracked frame (see [cfunc]) appends one byte
   per slot at [cf_defs], recording which slots have been written, so a
   read of a never-assigned local raises the same usage fault the tree
   engine's hashtable miss does.  A fresh frame is all zeros. *)
type frame = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A closure-compiled function.  [cf_entry] runs a fresh activation to
   completion, leaving the return value in slot 0 (functions whose only
   [Return] is in tail position write it there directly, with no
   exception); [cf_checked] keeps def-tracked frames for the rare
   function where some local read is not definitely assigned.
   Fields are mutable because translation is two-phase: records for
   every function exist before bodies compile, so direct call sites
   bind their callee's record — not a name — into the call closure. *)
type cfunc = {
  cf_func : Func.t;
  cf_nparams : int;
  mutable cf_size : int;  (* frame bytes, def bytes included *)
  mutable cf_defs : int;  (* offset of the def bytes ([cf_checked] only) *)
  mutable cf_checked : bool;
  mutable cf_entry : frame -> unit;
}

type t = {
  program : Program.t;
  funcs : Func.t Program.String_map.t;
  bus : M.Bus.t;
  map : Address_map.t;
  mutable handler : handler;
  trace : Trace.t;
  entries : (string, unit) Hashtbl.t;  (** operation entry functions *)
  mutable fuel : int;
  mutable depth : int;
  max_depth : int;
  engine : engine;
  cfuncs : (string, cfunc) Hashtbl.t;  (** compiled code, [Compiled] only *)
  (* switch bookkeeping for metrics: counts completed SVC transitions,
     both traps — one on entry, one on exit — matching the monitor's
     [Stats.switches] on single-threaded runs *)
  mutable operation_switches : int;
  (* telemetry sink; [Obs.Sink.null] unless a collector is attached *)
  sink : Obs.Sink.t;
  (* last data-access fault delivered to the handler, for post-mortem
     classification (the attack campaign reads it after an abort) *)
  mutable last_fault : (access_desc * M.Fault.info) option;
}

let cpu t = t.bus.M.Bus.cpu
let set_handler t handler = t.handler <- handler
let last_fault t = t.last_fault
let trace t = t.trace
let cycles t = M.Cpu.cycles (cpu t)
let fuel t = t.fuel
let switches t = t.operation_switches
let engine t = t.engine
let sink t = t.sink

(* One SVC transition completed: count it and leave an independent mark
   in the telemetry stream (the counter-drift test reconciles these
   marks against the monitor's switch spans). *)
let svc_mark t kind (fname : string) =
  t.operation_switches <- t.operation_switches + 1;
  if t.sink.Obs.Sink.active then
    t.sink.Obs.Sink.emit
      (Obs.Sink.Svc_switch
         { sv_kind = kind; sv_entry = fname; sv_at = (cpu t).M.Cpu.cycles })

(* The two SVC traps of an operation switch, shared by the engines: the
   trap cost, the handler at the privileged level (exception entry; the
   previous level comes back on return or unwind), the telemetry mark
   and the trace event.  Every switch runs them, so they build no
   closure. *)
let trap_enter t (f : Func.t) argv =
  let c = cpu t in
  M.Cpu.charge c 4 (* SVC entry/exit pipeline cost *);
  let saved = c.M.Cpu.privileged in
  c.M.Cpu.privileged <- true;
  let argv =
    match t.handler.on_operation_enter ~entry:f ~args:argv with
    | a ->
      c.M.Cpu.privileged <- saved;
      a
    | exception e ->
      c.M.Cpu.privileged <- saved;
      raise e
  in
  svc_mark t Obs.Sink.Enter f.Func.name;
  Trace.op_enter t.trace f.Func.name;
  t.depth <- t.depth + 1;
  argv

(* The exit trap is a switch too: [svc_mark] keeps the count in lockstep
   with the monitor's [Stats.switches], which counts both directions. *)
let trap_exit t (f : Func.t) ~saved_sp =
  let c = cpu t in
  M.Cpu.charge c 4;
  let saved = c.M.Cpu.privileged in
  c.M.Cpu.privileged <- true;
  (match t.handler.on_operation_exit ~entry:f with
  | () -> c.M.Cpu.privileged <- saved
  | exception e ->
    c.M.Cpu.privileged <- saved;
    raise e);
  svc_mark t Obs.Sink.Exit f.Func.name;
  t.depth <- t.depth - 1;
  Trace.op_exit t.trace f.Func.name;
  c.M.Cpu.sp <- saved_sp

exception Halted
exception Returning of int64

(* --- environment (tree engine) ---------------------------------------- *)

module Env = struct
  type t = (string, int64) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let get env x =
    match Hashtbl.find_opt env x with
    | Some v -> v
    | None -> raise (M.Fault.Usage (Printf.sprintf "use of undefined local %s" x))

  let set env x v = Hashtbl.replace env x v
end

(* --- expression evaluation (tree engine) ------------------------------- *)

let truthy v = not (Int64.equal v 0L)

let rec eval t env (e : Expr.t) =
  M.Cpu.charge (cpu t) 1;
  match e with
  | Expr.Const n -> n
  | Expr.Local x -> Env.get env x
  | Expr.Global_addr g -> Int64.of_int (t.map.Address_map.global_addr g)
  | Expr.Func_addr f -> Int64.of_int (t.map.Address_map.func_addr f)
  | Expr.Un (Expr.Neg, a) -> Int64.neg (eval t env a)
  | Expr.Un (Expr.Not, a) -> Int64.lognot (eval t env a)
  | Expr.Bin (op, a, b) -> (
    let va = eval t env a in
    let vb = eval t env b in
    match Expr.eval_bin op va vb with
    | Some v -> v
    | None -> raise (M.Fault.Usage "division by zero"))

(* --- MPU-checked access with fault delivery --------------------------- *)

(* [Trace.record_access] behind its own guard: every access of a run
   pays the test, only a memory-traced run pays the call. *)
let record_access t addr write =
  let tr = t.trace in
  if tr.Trace.enabled && tr.Trace.mem then Trace.record_access tr ~addr ~write

(* Deliver a faulting access to the handler, recording it for
   post-mortem classification.  [None] asks the caller to retry the
   access (the handler fixed the protection state); [Some v] is the
   value an emulated bus access produced (stores ignore it). *)
let deliver_fault t desc = function
  | M.Fault.Mem_manage info -> (
    t.last_fault <- Some (desc, info);
    match t.handler.on_mem_fault desc info with
    | Retry -> None
    | Abort msg -> raise (Aborted msg))
  | M.Fault.Bus info -> (
    t.last_fault <- Some (desc, info);
    match t.handler.on_bus_fault desc info with
    | Emulated v -> Some v
    | Bus_abort msg -> raise (Aborted msg))
  | e -> raise e

let rec checked_load t addr width =
  match M.Bus.read t.bus addr width with
  | v ->
    record_access t addr false;
    v
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) -> (
    match deliver_fault t (Access_load { addr; width }) e with
    | Some v -> v
    | None -> checked_load t addr width)

let rec checked_store t addr width v =
  match M.Bus.write t.bus addr width v with
  | () -> record_access t addr true
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) ->
    let desc = Access_store { addr; width; value = v } in
    if Option.is_none (deliver_fault t desc e) then checked_store t addr width v

(* Region-routed variants for the compiled engine, over the bus fast
   path of the region whose routing precondition the translator
   established.  Fault delivery is identical to
   [checked_load]/[checked_store]; a [Retry] re-executes the same fast
   path (the monitor fixed the MPU, the routing still holds).  The SRAM
   and flash ones move words as native ints (1- and 4-byte words always
   fit), so none boxes an [int64]: a load writes the frame slot at byte
   offset [d], a store takes a constant [v] or the slot at [o]; only
   the fault path boxes (an emulated load's value, a faulting store's
   descriptor). *)
let rec device_load t addr width =
  match M.Bus.read_device t.bus addr width with
  | v ->
    record_access t addr false;
    v
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) -> (
    match deliver_fault t (Access_load { addr; width }) e with
    | Some v -> v
    | None -> device_load t addr width)

let rec device_store t addr width v =
  match M.Bus.write_device t.bus addr width v with
  | () -> record_access t addr true
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) ->
    let desc = Access_store { addr; width; value = v } in
    if Option.is_none (deliver_fault t desc e) then
      device_store t addr width v

let rec sram_store t addr width v =
  match M.Bus.write_sram_int t.bus addr width (Int64.to_int v) with
  | () -> record_access t addr true
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) ->
    let desc = Access_store { addr; width; value = v } in
    if Option.is_none (deliver_fault t desc e) then sram_store t addr width v

let rec sram_load_to t addr width fr d =
  match M.Bus.read_sram_int t.bus addr width with
  | v ->
    record_access t addr false;
    set64 fr d (Int64.of_int v)
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) -> (
    match deliver_fault t (Access_load { addr; width }) e with
    | Some v -> set64 fr d v
    | None -> sram_load_to t addr width fr d)

let rec flash_load_to t addr width fr d =
  match M.Bus.read_flash_int t.bus addr width with
  | v ->
    record_access t addr false;
    set64 fr d (Int64.of_int v)
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) -> (
    match deliver_fault t (Access_load { addr; width }) e with
    | Some v -> set64 fr d v
    | None -> flash_load_to t addr width fr d)

let rec sram_store_from t addr width fr o =
  match
    M.Bus.write_sram_int t.bus addr width (Int64.to_int (get64 fr o))
  with
  | () -> record_access t addr true
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) ->
    let desc = Access_store { addr; width; value = get64 fr o } in
    if Option.is_none (deliver_fault t desc e) then
      sram_store_from t addr width fr o

(* --- instruction execution (tree engine) ------------------------------- *)

let spill_threshold = 4 (* first four arguments travel in registers *)

let rec exec_block t env block =
  List.iter (exec_instr t env) block

and exec_instr t env instr =
  if t.fuel <= 0 then raise Fuel_exhausted;
  t.fuel <- t.fuel - 1;
  M.Cpu.charge (cpu t) 1;
  match instr with
  | Instr.Nop -> ()
  | Instr.Let (x, e) -> Env.set env x (eval t env e)
  | Instr.Load (x, w, a) ->
    let addr = Int64.to_int (eval t env a) in
    Env.set env x (checked_load t addr (Instr.width_bytes w))
  | Instr.Store (w, a, v) ->
    let addr = Int64.to_int (eval t env a) in
    let v = eval t env v in
    checked_store t addr (Instr.width_bytes w) v
  | Instr.Alloca (x, ty) ->
    let c = cpu t in
    let size = (Ty.size_of ty + 7) land lnot 7 in
    let sp = c.M.Cpu.sp - size in
    if sp < c.M.Cpu.stack_base then raise (Aborted "stack overflow");
    c.M.Cpu.sp <- sp;
    Env.set env x (Int64.of_int sp)
  | Instr.Call (dst, callee, args) ->
    let fname =
      match callee with
      | Instr.Direct f -> f
      | Instr.Indirect e ->
        let addr = Int64.to_int (eval t env e) in
        (match t.map.Address_map.func_of_addr addr with
        | Some f -> f
        | None ->
          raise
            (Aborted (Printf.sprintf "indirect call to non-function 0x%08X" addr)))
    in
    let argv = List.map (eval t env) args in
    let ret = call t fname argv in
    Option.iter (fun x -> Env.set env x ret) dst
  | Instr.If (c, a, b) ->
    if truthy (eval t env c) then exec_block t env a else exec_block t env b
  | Instr.While (c, body) ->
    let rec loop () =
      if t.fuel <= 0 then raise Fuel_exhausted;
      if truthy (eval t env c) then begin
        exec_block t env body;
        loop ()
      end
    in
    loop ()
  | Instr.Return e ->
    let v = match e with None -> 0L | Some e -> eval t env e in
    raise (Returning v)
  | Instr.Memcpy (d, s, n) ->
    let dst = Int64.to_int (eval t env d) in
    let src = Int64.to_int (eval t env s) in
    let len = Int64.to_int (eval t env n) in
    let rec go off =
      if off < len then begin
        let w = if len - off >= 4 && (dst + off) land 3 = 0 && (src + off) land 3 = 0 then 4 else 1 in
        checked_store t (dst + off) w (checked_load t (src + off) w);
        go (off + w)
      end
    in
    go 0
  | Instr.Memset (d, v, n) ->
    let dst = Int64.to_int (eval t env d) in
    let v = eval t env v in
    let len = Int64.to_int (eval t env n) in
    let word =
      let b = Int64.logand v 0xFFL in
      List.fold_left
        (fun acc sh -> Int64.logor acc (Int64.shift_left b sh))
        0L [ 0; 8; 16; 24 ]
    in
    let rec go off =
      if off < len then begin
        let w = if len - off >= 4 && (dst + off) land 3 = 0 then 4 else 1 in
        checked_store t (dst + off) w (if w = 4 then word else v);
        go (off + w)
      end
    in
    go 0
  | Instr.Svc n -> t.handler.on_svc n
  | Instr.Halt -> raise Halted

(* --- function calls (tree engine) --------------------------------------- *)

and call t fname argv =
  let f =
    match Program.String_map.find_opt fname t.funcs with
    | Some f -> f
    | None -> raise (Aborted ("call to undefined function " ^ fname))
  in
  (* instruction-fetch permission for the callee's first instruction *)
  (try M.Bus.check_execute t.bus (t.map.Address_map.func_addr fname)
   with
  | M.Fault.Mem_manage info | M.Fault.Bus info ->
    raise (Aborted (Fmt.str "execute fault entering %s: %a" fname M.Fault.pp_info info)));
  if t.depth >= t.max_depth then raise (Aborted "call depth exceeded");
  if Hashtbl.mem t.entries fname then call_operation t f argv
  else call_plain t f argv

and call_plain t (f : Func.t) argv =
  let c = cpu t in
  let saved_sp = c.M.Cpu.sp in
  (* arguments beyond the register set travel on the caller's stack *)
  let argv = Array.of_list argv in
  spill t argv;
  M.Cpu.charge c 2;
  Trace.call t.trace f.name;
  t.depth <- t.depth + 1;
  let env = Env.create () in
  List.iteri
    (fun i (x, _ty) ->
      Env.set env x (if i < Array.length argv then argv.(i) else 0L))
    f.params;
  let ret =
    match exec_block t env f.body with
    | () -> 0L
    | exception Returning v -> v
  in
  t.depth <- t.depth - 1;
  Trace.return t.trace f.name;
  c.M.Cpu.sp <- saved_sp;
  ret

(* Operation switch protocol: SVC trap in, run entry, SVC trap out. *)
and call_operation t (f : Func.t) argv =
  let saved_sp = (cpu t).M.Cpu.sp in
  let argv' = trap_enter t f (Array.of_list argv) in
  let env = Env.create () in
  List.iteri
    (fun i (x, _ty) ->
      Env.set env x (if i < Array.length argv' then argv'.(i) else 0L))
    f.params;
  match exec_block t env f.body with
  | () -> trap_exit t f ~saved_sp; 0L
  | exception Returning v -> trap_exit t f ~saved_sp; v
  | exception e -> trap_exit t f ~saved_sp; raise e

(* Spill arguments beyond the register set onto the caller's stack and
   read them back, exactly as the callee's prologue would. *)
and spill t (argv : int64 array) =
  let c = cpu t in
  let spill_count = max 0 (Array.length argv - spill_threshold) in
  if spill_count > 0 then begin
    let base = c.M.Cpu.sp - (spill_count * 4) in
    if base < c.M.Cpu.stack_base then raise (Aborted "stack overflow");
    c.M.Cpu.sp <- base;
    for i = 0 to spill_count - 1 do
      checked_store t (base + (i * 4)) 4 argv.(spill_threshold + i)
    done;
    (* the callee reads them back *)
    for i = 0 to spill_count - 1 do
      argv.(spill_threshold + i) <- checked_load t (base + (i * 4)) 4
    done
  end

(* --- compiled engine ---------------------------------------------------- *)

(* The closure-compiled engine.  Translation happens once, at image-load
   time, and removes every dispatch from the hot path:

   - Each function's locals get 8-byte slots in a flat byte-string frame
     (the return value, the parameters, expression temporaries, then
     the other locals in order of appearance), read and written as
     unboxed [int64]s.
   - Expressions compile to three-address steps.  Constants fold at
     translation time ([K]) and reads of definitely-assigned locals
     become slot offsets ([S]), both inlined into the consuming closure;
     every operator node is one [frame -> unit] step that applies its
     primitive to unboxed leaf operands and writes the result straight
     into a slot: the destination local, slot 0 for a return, or a
     temporary its parent then reads as a leaf.  A [Let], a [Return] or
     a call argument whose tree is one operator over leaves is a single
     closure; deeper trees are one step per operator.  No [int64]
     crosses a closure boundary or lands in a box on the hot path.
   - Branch and loop conditions compile to [frame -> bool] tests over
     leaves; addresses and lengths compile into the native-int domain.
   - Runs of pure instructions (Let/Alloca/Nop — no bus access, no
     observable point) fuse into superblocks: one fuel check, one
     decrement of the whole run, one batched cycle charge, then the
     run's steps back to back.
   - Direct call sites bind the callee's [cfunc] record at translation
     time (records for all functions exist before bodies compile);
     indirect sites keep a one-entry inline cache keyed by the code
     address.  Arguments go straight into the callee's fresh frame and
     the result comes back through its slot 0.  Functions whose only
     [Return] is the final instruction of the top-level block write the
     value without raising [Returned].
   - Loads and stores whose address folds at translation time route
     straight to the owning region (SRAM/flash/device window) through
     the bus fast paths; dynamic addresses probe the SRAM range first.
     Both paths charge, MPU-check, trace, and fault exactly like
     [checked_load]/[checked_store]; SRAM and flash words move between
     memory and the frame as native ints.

   Cycle accounting, against [Tree].  The tree walker charges one cycle
   per instruction dispatch and one per expression node as it evaluates
   them.  Here expression steps charge nothing: each instruction
   charges, up front, its dispatch cycle plus the node count of every
   expression it is about to evaluate (counted on the original tree, so
   folding changes nothing).  Expressions never touch the bus, so at
   every observable point — a bus access, an operation switch, an SVC —
   the cumulative count is bit-identical.  Superblocks batch further:
   a pure run pays its whole charge before its first instruction, and by
   the trailing-access rule a load or store whose one bus access is the
   last thing it does may close a run, so every batched charge lands
   before that access, as under [Tree].  Calls, SVCs, control flow and
   memcpy/memset never fuse.  When fuel cannot cover a run, an exact
   per-instruction slow path replays the tree walker's
   check/decrement/charge sequence, so fuel exhaustion falls on the same
   instruction with the same cycles.

   Steps run in the tree walker's order (operands left to right, each
   before its operator), so where several subexpressions would fault the
   same one names the fault.  The one divergence window is the cycle
   count of an abort *inside* an expression (division by zero, read of
   a never-assigned local): the batched count is ahead by the nodes
   that never evaluated.  Such a run dies on the spot; no evaluation
   artifact compares aborted runs' cycles across engines. *)

module Str_set = Set.Make (String)

(* Conservative definite-assignment analysis: [true] when every [Local]
   read in [f] is preceded by a write on all paths, so activations skip
   the [def] bookkeeping entirely.  Functions that fail the analysis
   (the fuzz generator can produce a read of a never-assigned local)
   keep def-tracked frames, with the tree walker's fault message. *)
let definitely_assigned (f : Func.t) =
  let ok = ref true in
  let rec expr defined (e : Expr.t) =
    match e with
    | Expr.Const _ | Expr.Global_addr _ | Expr.Func_addr _ -> ()
    | Expr.Local x -> if not (Str_set.mem x defined) then ok := false
    | Expr.Un (_, a) -> expr defined a
    | Expr.Bin (_, a, b) ->
      expr defined a;
      expr defined b
  in
  let rec block defined instrs = List.fold_left instr defined instrs
  and instr defined (i : Instr.t) =
    match i with
    | Instr.Nop | Instr.Svc _ | Instr.Halt -> defined
    | Instr.Let (x, e) ->
      expr defined e;
      Str_set.add x defined
    | Instr.Load (x, _, a) ->
      expr defined a;
      Str_set.add x defined
    | Instr.Store (_, a, v) ->
      expr defined a;
      expr defined v;
      defined
    | Instr.Alloca (x, _) -> Str_set.add x defined
    | Instr.Call (dst, callee, args) ->
      (match callee with
      | Instr.Direct _ -> ()
      | Instr.Indirect e -> expr defined e);
      List.iter (expr defined) args;
      (match dst with Some x -> Str_set.add x defined | None -> defined)
    | Instr.If (c, a, b) ->
      expr defined c;
      Str_set.inter (block defined a) (block defined b)
    | Instr.While (c, body) ->
      (* the condition's first evaluation sees only pre-loop defs *)
      expr defined c;
      ignore (block defined body);
      defined
    | Instr.Return e ->
      (match e with None -> () | Some e -> expr defined e);
      defined
    | Instr.Memcpy (a, b, n) | Instr.Memset (a, b, n) ->
      expr defined a;
      expr defined b;
      expr defined n;
      defined
  in
  let params =
    List.fold_left (fun s (x, _ty) -> Str_set.add x s) Str_set.empty
      f.Func.params
  in
  ignore (block params f.Func.body);
  !ok

(* How many temporaries one instruction's expressions can ask for: one
   per operator node, plus one per symbol whose address the translator
   cannot fold.  Compound instructions count their condition only; their
   blocks are instructions of their own. *)
let rec temps_of (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Local _ -> 0
  | Expr.Global_addr _ | Expr.Func_addr _ -> 1
  | Expr.Un (_, a) -> temps_of a + 1
  | Expr.Bin (_, a, b) -> temps_of a + temps_of b + 1

let imax (a : int) b = if a >= b then a else b

let rec block_temps instrs =
  List.fold_left (fun acc i -> imax acc (instr_temps i)) 0 instrs

and instr_temps (i : Instr.t) =
  let sum es = List.fold_left (fun acc e -> acc + temps_of e) 0 es in
  match i with
  | Instr.Nop | Instr.Svc _ | Instr.Halt | Instr.Alloca _ -> 0
  | Instr.Let (_, e) | Instr.Load (_, _, e) -> temps_of e
  | Instr.Store (_, a, v) -> temps_of a + temps_of v
  | Instr.Call (_, Instr.Direct _, args) -> sum args
  | Instr.Call (_, Instr.Indirect e, args) -> temps_of e + sum args
  | Instr.If (c, a, b) ->
    imax (temps_of c) (imax (block_temps a) (block_temps b))
  | Instr.While (c, body) -> imax (temps_of c) (block_temps body)
  | Instr.Return e -> Option.fold ~none:0 ~some:temps_of e
  | Instr.Memcpy (a, b, n) | Instr.Memset (a, b, n) ->
    temps_of a + temps_of b + temps_of n

let rec block_returns instrs = List.exists instr_returns instrs

and instr_returns (i : Instr.t) =
  match i with
  | Instr.Return _ -> true
  | Instr.If (_, a, b) -> block_returns a || block_returns b
  | Instr.While (_, body) -> block_returns body
  | Instr.Nop | Instr.Let _ | Instr.Load _ | Instr.Store _ | Instr.Alloca _
  | Instr.Call _ | Instr.Memcpy _ | Instr.Memset _ | Instr.Svc _ | Instr.Halt
    -> false

(* Split a trailing top-level [Return] off the body, for the
   direct-return compilation of straight-line functions. *)
let rec split_tail acc (block : Instr.block) =
  match block with
  | [ Instr.Return e ] -> Some (List.rev acc, e)
  | [] -> None
  | x :: rest -> split_tail (x :: acc) rest

(* The expression's node count: the cycles the tree walker charges to
   evaluate it. *)
let rec nodes (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Local _ | Expr.Global_addr _ | Expr.Func_addr _ -> 1
  | Expr.Un (_, a) -> nodes a + 1
  | Expr.Bin (_, a, b) -> nodes a + nodes b + 1

(* A compiled operand: a constant folded at translation time, or the
   byte offset of the slot that holds the value once the expression's
   steps have run (a definitely-assigned local or a temporary). *)
type opnd = K of int64 | S of int

(* A binary operator's operands when at least one is a slot; two
   constants fold at translation time. *)
type shape = SS of int * int | SK of int * int64 | KS of int64 * int

(* The comparison operators, matched out of [Expr.binop] once so the
   shape tables below are exhaustive. *)
type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

let cmp_of : Expr.binop -> cmp option = function
  | Expr.Eq -> Some Ceq
  | Expr.Ne -> Some Cne
  | Expr.Lt -> Some Clt
  | Expr.Le -> Some Cle
  | Expr.Gt -> Some Cgt
  | Expr.Ge -> Some Cge
  | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Rem | Expr.And
  | Expr.Or | Expr.Xor | Expr.Shl | Expr.Shr ->
    None

(* The native-int domain for addresses and lengths: a constant, an
   affine form over one or two slots read truncated to [int]
   ([geti o * m + k], [geti o1 * m1 + geti o2 * m2 + k]), or a computed
   value. *)
type cival =
  | IK of int
  | IA of int * int * int
  | IB of int * int * int * int * int
  | IF of (frame -> int)

let geti fr o = Int64.to_int (get64 fr o)

let ifun = function
  | IK v -> fun _fr -> v
  | IA (o, 1, 0) -> fun fr -> geti fr o
  | IA (o, m, k) -> fun fr -> (geti fr o * m) + k
  | IB (o1, m1, o2, m2, k) ->
    fun fr -> (geti fr o1 * m1) + (geti fr o2 * m2) + k
  | IF f -> f

let div_zero () = raise (M.Fault.Usage "division by zero")

(* A comparison over two leaves, as a test.  Each case is its own
   closure whose body is one primitive on unboxed operands. *)
let cmp_test cmp sh : frame -> bool =
  match (cmp, sh) with
  | Ceq, SS (i, j) -> fun fr -> get64 fr i = get64 fr j
  | Ceq, SK (i, y) -> fun fr -> get64 fr i = y
  | Ceq, KS (x, j) -> fun fr -> x = get64 fr j
  | Cne, SS (i, j) -> fun fr -> get64 fr i <> get64 fr j
  | Cne, SK (i, y) -> fun fr -> get64 fr i <> y
  | Cne, KS (x, j) -> fun fr -> x <> get64 fr j
  | Clt, SS (i, j) -> fun fr -> get64 fr i < get64 fr j
  | Clt, SK (i, y) -> fun fr -> get64 fr i < y
  | Clt, KS (x, j) -> fun fr -> x < get64 fr j
  | Cle, SS (i, j) -> fun fr -> get64 fr i <= get64 fr j
  | Cle, SK (i, y) -> fun fr -> get64 fr i <= y
  | Cle, KS (x, j) -> fun fr -> x <= get64 fr j
  | Cgt, SS (i, j) -> fun fr -> get64 fr i > get64 fr j
  | Cgt, SK (i, y) -> fun fr -> get64 fr i > y
  | Cgt, KS (x, j) -> fun fr -> x > get64 fr j
  | Cge, SS (i, j) -> fun fr -> get64 fr i >= get64 fr j
  | Cge, SK (i, y) -> fun fr -> get64 fr i >= y
  | Cge, KS (x, j) -> fun fr -> x >= get64 fr j

let b64 b = if b then 1L else 0L

(* One operator over two leaves, written into the slot at byte offset
   [d]: the operator applied directly in each shape case, with no call
   through a function value (without flambda, a shared [op a b] helper
   would pay a generic apply and box its result).  The repetition is
   the point: each case compiles to a closure whose body is one
   primitive on unboxed operands.  [Div]/[Rem] keep the usage-fault
   check, after both operands, like the tree walker. *)
let bin_step (op : Expr.binop) d sh : frame -> unit =
  match (op, sh) with
  | Expr.Add, SS (i, j) ->
    fun fr -> set64 fr d (Int64.add (get64 fr i) (get64 fr j))
  | Expr.Add, SK (i, y) -> fun fr -> set64 fr d (Int64.add (get64 fr i) y)
  | Expr.Add, KS (x, j) -> fun fr -> set64 fr d (Int64.add x (get64 fr j))
  | Expr.Sub, SS (i, j) ->
    fun fr -> set64 fr d (Int64.sub (get64 fr i) (get64 fr j))
  | Expr.Sub, SK (i, y) -> fun fr -> set64 fr d (Int64.sub (get64 fr i) y)
  | Expr.Sub, KS (x, j) -> fun fr -> set64 fr d (Int64.sub x (get64 fr j))
  | Expr.Mul, SS (i, j) ->
    fun fr -> set64 fr d (Int64.mul (get64 fr i) (get64 fr j))
  | Expr.Mul, SK (i, y) -> fun fr -> set64 fr d (Int64.mul (get64 fr i) y)
  | Expr.Mul, KS (x, j) -> fun fr -> set64 fr d (Int64.mul x (get64 fr j))
  | Expr.Div, SS (i, j) ->
    fun fr ->
      let b = get64 fr j in
      if b = 0L then div_zero () else set64 fr d (Int64.div (get64 fr i) b)
  | Expr.Div, SK (_, 0L) | Expr.Rem, SK (_, 0L) -> fun _fr -> div_zero ()
  | Expr.Div, SK (i, y) -> fun fr -> set64 fr d (Int64.div (get64 fr i) y)
  | Expr.Div, KS (x, j) ->
    fun fr ->
      let b = get64 fr j in
      if b = 0L then div_zero () else set64 fr d (Int64.div x b)
  | Expr.Rem, SS (i, j) ->
    fun fr ->
      let b = get64 fr j in
      if b = 0L then div_zero () else set64 fr d (Int64.rem (get64 fr i) b)
  | Expr.Rem, SK (i, y) -> fun fr -> set64 fr d (Int64.rem (get64 fr i) y)
  | Expr.Rem, KS (x, j) ->
    fun fr ->
      let b = get64 fr j in
      if b = 0L then div_zero () else set64 fr d (Int64.rem x b)
  | Expr.And, SS (i, j) ->
    fun fr -> set64 fr d (Int64.logand (get64 fr i) (get64 fr j))
  | Expr.And, SK (i, y) -> fun fr -> set64 fr d (Int64.logand (get64 fr i) y)
  | Expr.And, KS (x, j) -> fun fr -> set64 fr d (Int64.logand x (get64 fr j))
  | Expr.Or, SS (i, j) ->
    fun fr -> set64 fr d (Int64.logor (get64 fr i) (get64 fr j))
  | Expr.Or, SK (i, y) -> fun fr -> set64 fr d (Int64.logor (get64 fr i) y)
  | Expr.Or, KS (x, j) -> fun fr -> set64 fr d (Int64.logor x (get64 fr j))
  | Expr.Xor, SS (i, j) ->
    fun fr -> set64 fr d (Int64.logxor (get64 fr i) (get64 fr j))
  | Expr.Xor, SK (i, y) -> fun fr -> set64 fr d (Int64.logxor (get64 fr i) y)
  | Expr.Xor, KS (x, j) -> fun fr -> set64 fr d (Int64.logxor x (get64 fr j))
  | Expr.Shl, SS (i, j) ->
    fun fr -> set64 fr d (Int64.shift_left (get64 fr i) (geti fr j land 63))
  | Expr.Shl, SK (i, y) ->
    let n = Int64.to_int y land 63 in
    fun fr -> set64 fr d (Int64.shift_left (get64 fr i) n)
  | Expr.Shl, KS (x, j) ->
    fun fr -> set64 fr d (Int64.shift_left x (geti fr j land 63))
  | Expr.Shr, SS (i, j) ->
    fun fr ->
      set64 fr d (Int64.shift_right_logical (get64 fr i) (geti fr j land 63))
  | Expr.Shr, SK (i, y) ->
    let n = Int64.to_int y land 63 in
    fun fr -> set64 fr d (Int64.shift_right_logical (get64 fr i) n)
  | Expr.Shr, KS (x, j) ->
    fun fr -> set64 fr d (Int64.shift_right_logical x (geti fr j land 63))
  | Expr.Eq, SS (i, j) -> fun fr -> set64 fr d (b64 (get64 fr i = get64 fr j))
  | Expr.Eq, SK (i, y) -> fun fr -> set64 fr d (b64 (get64 fr i = y))
  | Expr.Eq, KS (x, j) -> fun fr -> set64 fr d (b64 (x = get64 fr j))
  | Expr.Ne, SS (i, j) -> fun fr -> set64 fr d (b64 (get64 fr i <> get64 fr j))
  | Expr.Ne, SK (i, y) -> fun fr -> set64 fr d (b64 (get64 fr i <> y))
  | Expr.Ne, KS (x, j) -> fun fr -> set64 fr d (b64 (x <> get64 fr j))
  | Expr.Lt, SS (i, j) -> fun fr -> set64 fr d (b64 (get64 fr i < get64 fr j))
  | Expr.Lt, SK (i, y) -> fun fr -> set64 fr d (b64 (get64 fr i < y))
  | Expr.Lt, KS (x, j) -> fun fr -> set64 fr d (b64 (x < get64 fr j))
  | Expr.Le, SS (i, j) -> fun fr -> set64 fr d (b64 (get64 fr i <= get64 fr j))
  | Expr.Le, SK (i, y) -> fun fr -> set64 fr d (b64 (get64 fr i <= y))
  | Expr.Le, KS (x, j) -> fun fr -> set64 fr d (b64 (x <= get64 fr j))
  | Expr.Gt, SS (i, j) -> fun fr -> set64 fr d (b64 (get64 fr i > get64 fr j))
  | Expr.Gt, SK (i, y) -> fun fr -> set64 fr d (b64 (get64 fr i > y))
  | Expr.Gt, KS (x, j) -> fun fr -> set64 fr d (b64 (x > get64 fr j))
  | Expr.Ge, SS (i, j) -> fun fr -> set64 fr d (b64 (get64 fr i >= get64 fr j))
  | Expr.Ge, SK (i, y) -> fun fr -> set64 fr d (b64 (get64 fr i >= y))
  | Expr.Ge, KS (x, j) -> fun fr -> set64 fr d (b64 (x >= get64 fr j))

let un_const (op : Expr.unop) v =
  match op with Expr.Neg -> Int64.neg v | Expr.Not -> Int64.lognot v

let un_step (op : Expr.unop) d o : frame -> unit =
  match op with
  | Expr.Neg -> fun fr -> set64 fr d (Int64.neg (get64 fr o))
  | Expr.Not -> fun fr -> set64 fr d (Int64.lognot (get64 fr o))

let move_step d = function
  | K v -> fun fr -> set64 fr d v
  | S o -> fun fr -> set64 fr d (get64 fr o)

(* Copy operand [l] of frame [src] into slot offset [off] of [dst]. *)
let put src dst off = function
  | K v -> set64 dst off v
  | S o -> set64 dst off (get64 src o)

let get_opnd fr = function K v -> v | S o -> get64 fr o

(* A compiled call target, bound at translation time. *)
type ctarget = { ct_func : cfunc; ct_addr : int; ct_entry : bool }

(* A non-tail [Return] has written its value to slot 0. *)
exception Returned

let new_frame cf =
  let fr = Bytes.make cf.cf_size '\000' in
  if cf.cf_checked then
    for i = 1 to cf.cf_nparams do
      Bytes.unsafe_set fr (cf.cf_defs + i) '\001'
    done;
  fr

let frame_of_argv cf (argv : int64 array) =
  let fr = new_frame cf in
  let n = Array.length argv in
  for i = 0 to (if n < cf.cf_nparams then n else cf.cf_nparams) - 1 do
    set64 fr (8 * (i + 1)) (Array.unsafe_get argv i)
  done;
  fr

let cresolve t fname =
  match Hashtbl.find_opt t.cfuncs fname with
  | None -> raise (Aborted ("call to undefined function " ^ fname))
  | Some cf ->
    { ct_func = cf;
      ct_addr = t.map.Address_map.func_addr fname;
      ct_entry = Hashtbl.mem t.entries fname }

(* Execute permission of the callee's first instruction, then the depth
   bound: what every call checks before it runs the callee. *)
let centry t ct =
  (try M.Bus.check_execute t.bus ct.ct_addr
   with
  | M.Fault.Mem_manage info | M.Fault.Bus info ->
    raise
      (Aborted
         (Fmt.str "execute fault entering %s: %a" ct.ct_func.cf_func.Func.name
            M.Fault.pp_info info)));
  if t.depth >= t.max_depth then raise (Aborted "call depth exceeded")

(* A plain activation of [cf] over its ready frame [fr]. *)
let crun t cf fr ~saved_sp =
  let c = cpu t in
  c.M.Cpu.cycles <- c.M.Cpu.cycles + 2;
  if t.trace.Trace.enabled then Trace.call t.trace cf.cf_func.Func.name;
  t.depth <- t.depth + 1;
  cf.cf_entry fr;
  t.depth <- t.depth - 1;
  if t.trace.Trace.enabled then Trace.return t.trace cf.cf_func.Func.name;
  c.M.Cpu.sp <- saved_sp

let ccall_operation t cf (argv : int64 array) =
  let saved_sp = (cpu t).M.Cpu.sp in
  let f = cf.cf_func in
  let fr = frame_of_argv cf (trap_enter t f argv) in
  match cf.cf_entry fr with
  | () ->
    trap_exit t f ~saved_sp;
    get64 fr 0
  | exception e ->
    trap_exit t f ~saved_sp;
    raise e

(* The boxed call path, for the program-entry API, operation entries
   (the trap handler takes and returns an [int64 array]) and call sites
   that spill arguments. *)
let ccall_target t ct (argv : int64 array) =
  centry t ct;
  if ct.ct_entry then ccall_operation t ct.ct_func argv
  else begin
    let saved_sp = (cpu t).M.Cpu.sp in
    if Array.length argv > spill_threshold then spill t argv;
    let fr = frame_of_argv ct.ct_func argv in
    crun t ct.ct_func fr ~saved_sp;
    get64 fr 0
  end

let ccall t fname (argv : int64 array) = ccall_target t (cresolve t fname) argv

(* A compiled call whose argument operands are ready in the caller's
   frame [fr]; the result lands in the caller's slot at byte offset
   [dst] (nowhere when [dst] is negative).  A plain callee with
   register-only arguments gets them written straight into its fresh
   frame, and its slot 0 read back, so nothing boxes. *)
let cinvoke t ct (args : opnd array) fr dst =
  let n = Array.length args in
  if ct.ct_entry || n > spill_threshold then begin
    let r = ccall_target t ct (Array.map (get_opnd fr) args) in
    if dst >= 0 then set64 fr dst r
  end
  else begin
    let cf = ct.ct_func in
    let callee = new_frame cf in
    for k = 0 to (if n < cf.cf_nparams then n else cf.cf_nparams) - 1 do
      put fr callee (8 * (k + 1)) (Array.unsafe_get args k)
    done;
    centry t ct;
    crun t cf callee ~saved_sp:(cpu t).M.Cpu.sp;
    if dst >= 0 then set64 fr dst (get64 callee 0)
  end

(* A compiled instruction before superblock grouping: [Cpure] carries
   uncharged steps plus their weight and is eligible for fusion;
   [Ctail] is uncharged steps whose single bus access happens at their
   end, so it may terminate a fused run (every batched charge lands
   before the access executes, which is exactly the cumulative count
   the tree walker shows at that access); [Cfull] charges for itself. *)
type cinstr =
  | Cpure of (frame -> unit) list * int
  | Ctail of (frame -> unit) list * int
  | Cfull of (frame -> unit)

(* An operator node after its operands compiled: a constant folded at
   translation time, or a step awaiting its destination slot. *)
type cnode = Folded of int64 | Step of (int -> frame -> unit)

(* Run steps back to back, without the array loop for up to three. *)
let seq : (frame -> unit) list -> frame -> unit = function
  | [] -> fun _fr -> ()
  | [ k ] -> k
  | [ k0; k1 ] ->
    fun fr ->
      k0 fr;
      k1 fr
  | [ k0; k1; k2 ] ->
    fun fr ->
      k0 fr;
      k1 fr;
      k2 fr
  | ks ->
    let ks = Array.of_list ks in
    fun fr ->
      for i = 0 to Array.length ks - 1 do
        (Array.unsafe_get ks i) fr
      done

(* Translate one function body into [cf_entry].  Mirrors [Tree]'s
   accounting exactly; see the section comment for the argument and for
   what it specializes. *)
let compile t (cf : cfunc) =
  let f = cf.cf_func in
  let c = cpu t in
  (* SRAM bounds as captured immediates: the dynamic-address load/store
     closures inline the range probe instead of chasing [t.bus.sram] *)
  let sram_lo, sram_hi =
    let m = t.bus.M.Bus.sram in
    (M.Memory.limit m - M.Memory.size m, M.Memory.limit m)
  in
  let checked = not (definitely_assigned f) in
  (* Slot 0 is the return value, then the parameters, then the
     temporaries (every instruction reuses them from the bottom, since
     none outlives its instruction), then every other local, numbered on
     first sight. *)
  let nparams = List.length f.Func.params in
  let ntemps = ref 0 in
  let temp_base = 1 + nparams in
  let slots = Hashtbl.create 16 in
  let nslots = ref (temp_base + block_temps f.Func.body) in
  List.iteri (fun i (x, _ty) -> Hashtbl.replace slots x (1 + i)) f.Func.params;
  let slot x =
    match Hashtbl.find_opt slots x with
    | Some i -> i
    | None ->
      let i = !nslots in
      incr nslots;
      Hashtbl.add slots x i;
      i
  in
  let temp () =
    let o = 8 * (temp_base + !ntemps) in
    incr ntemps;
    o
  in
  (* the steps of the instruction being translated, newest first *)
  let pending = ref [] in
  let emit k = pending := k :: !pending in
  let take () =
    let ks = List.rev !pending in
    pending := [];
    ks
  in
  let def_check i x : frame -> unit =
   fun fr ->
    if Bytes.unsafe_get fr (cf.cf_defs + i) = '\000' then
      raise (M.Fault.Usage (Printf.sprintf "use of undefined local %s" x))
  in
  let mark i : frame -> unit =
   fun fr -> Bytes.unsafe_set fr (cf.cf_defs + i) '\001'
  in
  (* Compile [e] to an operand, emitting the steps that compute it. *)
  let rec operand (e : Expr.t) : opnd =
    match e with
    | Expr.Const n -> K n
    | Expr.Local x ->
      let i = slot x in
      if checked then emit (def_check i x);
      S (8 * i)
    | Expr.Global_addr g -> (
      match Int64.of_int (t.map.Address_map.global_addr g) with
      | a -> K a
      | exception _ ->
        let d = temp () in
        emit (fun fr ->
            set64 fr d (Int64.of_int (t.map.Address_map.global_addr g)));
        S d)
    | Expr.Func_addr fn -> (
      match Int64.of_int (t.map.Address_map.func_addr fn) with
      | a -> K a
      | exception _ ->
        let d = temp () in
        emit (fun fr ->
            set64 fr d (Int64.of_int (t.map.Address_map.func_addr fn)));
        S d)
    | Expr.Un _ | Expr.Bin _ -> (
      match operator e with
      | Folded v -> K v
      | Step mk ->
        let d = temp () in
        emit (mk d);
        S d)
  and operator (e : Expr.t) : cnode =
    match e with
    | Expr.Un (op, a) -> (
      match operand a with
      | K v -> Folded (un_const op v)
      | S o -> Step (fun d -> un_step op d o))
    | Expr.Bin (op, a, b) -> (
      let la = operand a in
      let lb = operand b in
      match (la, lb) with
      | K x, K y -> (
        match Expr.eval_bin op x y with
        | Some v -> Folded v
        | None ->
          emit (fun _fr -> div_zero ());
          Folded 0L)
      | S i, S j -> Step (fun d -> bin_step op d (SS (i, j)))
      | S i, K y -> Step (fun d -> bin_step op d (SK (i, y)))
      | K x, S j -> Step (fun d -> bin_step op d (KS (x, j))))
    | Expr.Const _ | Expr.Local _ | Expr.Global_addr _ | Expr.Func_addr _ ->
      let l = operand e in
      Step (fun d -> move_step d l)
  in
  (* Compile [e] into the slot at byte offset [d]: the root operator
     writes its result there directly. *)
  let into d (e : Expr.t) =
    match operator e with
    | Folded v -> emit (move_step d (K v))
    | Step mk -> emit (mk d)
  in
  (* Branch/loop conditions compile straight to a boolean, skipping the
     1L/0L round-trip of a materialized comparison result.  [And]/[Or]
     over operands that only ever produce 0/1 (comparisons, or nested
     [And]/[Or] of such) fuse into boolean connectives: on 0/1 values
     bitwise and/or coincide with the boolean ones.  Every operand's
     steps still run first, in order; the tests themselves read leaves
     and cannot fault, so the connectives may short-circuit. *)
  let rec boolish (e : Expr.t) =
    match e with
    | Expr.Bin ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _)
      ->
      true
    | Expr.Bin ((Expr.And | Expr.Or), a, b) -> boolish a && boolish b
    | _ -> false
  in
  let rec cbool (e : Expr.t) : frame -> bool =
    match e with
    | Expr.Bin (Expr.And, a, b) when boolish a && boolish b ->
      let ka = cbool a in
      let kb = cbool b in
      fun fr -> ka fr && kb fr
    | Expr.Bin (Expr.Or, a, b) when boolish a && boolish b ->
      let ka = cbool a in
      let kb = cbool b in
      fun fr -> ka fr || kb fr
    | Expr.Bin (op, a, b) -> (
      match cmp_of op with
      | None -> truth e
      | Some cmp -> (
        let la = operand a in
        let lb = operand b in
        match (la, lb) with
        | K x, K y ->
          let r =
            match Expr.eval_bin op x y with Some v -> truthy v | None -> false
          in
          fun _fr -> r
        | S i, S j -> cmp_test cmp (SS (i, j))
        | S i, K y -> cmp_test cmp (SK (i, y))
        | K x, S j -> cmp_test cmp (KS (x, j))))
    | e -> truth e
  and truth e =
    match operand e with
    | K v ->
      let r = truthy v in
      fun _fr -> r
    | S o -> fun fr -> get64 fr o <> 0L
  in
  (* Address (and length) expressions compile straight into the
     native-int domain: the consumer only ever looks at
     [Int64.to_int addr], and truncation mod 2^63 is a ring homomorphism
     for + - * land lor lxor lognot neg — computing in int from the
     leaves up is exact, and it never allocates.  Sums and constant
     multiples of at most two slots stay symbolic ([IA]/[IB]), so an
     array index like [g + (i * 4 + k) * 4] is one inline expression in
     the load or store closure, with no call.  Operators whose
     truncation does not commute (shifts, division, comparisons) return
     [None] and take the operand path.  The int forms cannot fault, so
     a def-tracked function (whose local reads can) always takes the
     operand path, keeping the tree walker's fault order. *)
  let rec cint_v (e : Expr.t) : cival option =
    match e with
    | Expr.Const n -> Some (IK (Int64.to_int n))
    | Expr.Local x -> Some (IA (8 * slot x, 1, 0))
    | Expr.Global_addr g -> (
      match t.map.Address_map.global_addr g with
      | addr -> Some (IK addr)
      | exception _ -> None)
    | Expr.Func_addr fn -> (
      match t.map.Address_map.func_addr fn with
      | addr -> Some (IK addr)
      | exception _ -> None)
    | Expr.Un (Expr.Neg, a) -> Option.map (fun v -> scale v (-1)) (cint_v a)
    | Expr.Un (Expr.Not, a) ->
      (* lnot x = -x - 1 *)
      Option.map (fun v -> add (scale v (-1)) (IK (-1))) (cint_v a)
    | Expr.Bin (op, a, b) -> (
      match (cint_v a, cint_v b) with
      | Some va, Some vb -> (
        match op with
        | Expr.Add -> Some (add va vb)
        | Expr.Sub -> Some (add va (scale vb (-1)))
        | Expr.Mul -> (
          match (va, vb) with
          | IK x, v | v, IK x -> Some (scale v x)
          | _ ->
            let fa = ifun va and fb = ifun vb in
            Some (IF (fun fr -> fa fr * fb fr)))
        | Expr.And -> (
          match (va, vb) with
          | IK x, IK y -> Some (IK (x land y))
          | _ ->
            let fa = ifun va and fb = ifun vb in
            Some (IF (fun fr -> fa fr land fb fr)))
        | Expr.Or -> (
          match (va, vb) with
          | IK x, IK y -> Some (IK (x lor y))
          | _ ->
            let fa = ifun va and fb = ifun vb in
            Some (IF (fun fr -> fa fr lor fb fr)))
        | Expr.Xor -> (
          match (va, vb) with
          | IK x, IK y -> Some (IK (x lxor y))
          | _ ->
            let fa = ifun va and fb = ifun vb in
            Some (IF (fun fr -> fa fr lxor fb fr)))
        | Expr.Div | Expr.Rem | Expr.Shl | Expr.Shr | Expr.Eq | Expr.Ne
        | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge ->
          None)
      | _ -> None)
  (* [v * x] *)
  and scale v x =
    match v with
    | IK y -> IK (x * y)
    | IA (o, m, k) -> IA (o, m * x, k * x)
    | IB (o1, m1, o2, m2, k) -> IB (o1, m1 * x, o2, m2 * x, k * x)
    | IF f -> IF (fun fr -> f fr * x)
  (* [va + vb] *)
  and add va vb =
    match (va, vb) with
    | IK x, IK y -> IK (x + y)
    | IK x, IA (o, m, k) | IA (o, m, k), IK x -> IA (o, m, k + x)
    | IK x, IB (o1, m1, o2, m2, k) | IB (o1, m1, o2, m2, k), IK x ->
      IB (o1, m1, o2, m2, k + x)
    | IA (o1, m1, k1), IA (o2, m2, k2) ->
      if o1 = o2 then IA (o1, m1 + m2, k1 + k2)
      else IB (o1, m1, o2, m2, k1 + k2)
    | _ ->
      let fa = ifun va and fb = ifun vb in
      IF (fun fr -> fa fr + fb fr)
  in
  (* An address-consumer position: the int-domain value when the
     expression qualifies, otherwise its operand (steps emitted)
     truncated at use — exactly what the tree walker computes. *)
  let addr (e : Expr.t) : cival =
    match if checked then None else cint_v e with
    | Some v -> v
    | None -> (
      match operand e with K v -> IK (Int64.to_int v) | S o -> IA (o, 1, 0))
  in
  let pre w =
    if t.fuel <= 0 then raise Fuel_exhausted;
    t.fuel <- t.fuel - 1;
    c.M.Cpu.cycles <- c.M.Cpu.cycles + w
  in
  (* Static routing for a constant address: pick the owning region's bus
     fast path at translation time; anything unusual (PPB, unmapped,
     flash writes) keeps the generic bus path, whose behaviour is the
     reference.  A load writes the slot at byte offset [d]. *)
  let static_load addr width d : frame -> unit =
    match M.Memmap.classify addr with
    | M.Memmap.Sram when M.Memory.in_range t.bus.M.Bus.sram addr width ->
      fun fr -> sram_load_to t addr width fr d
    | M.Memmap.Code when M.Memory.in_range t.bus.M.Bus.flash addr width ->
      fun fr -> flash_load_to t addr width fr d
    | M.Memmap.Peripheral | M.Memmap.External_ram | M.Memmap.External_device
    | M.Memmap.Vendor ->
      fun fr -> set64 fr d (device_load t addr width)
    | M.Memmap.Ppb | M.Memmap.Code | M.Memmap.Sram ->
      fun fr -> set64 fr d (checked_load t addr width)
  in
  let static_store addr width lv : frame -> unit =
    match (M.Memmap.classify addr, lv) with
    | M.Memmap.Sram, K v when M.Memory.in_range t.bus.M.Bus.sram addr width ->
      fun _fr -> sram_store t addr width v
    | M.Memmap.Sram, S o when M.Memory.in_range t.bus.M.Bus.sram addr width ->
      fun fr -> sram_store_from t addr width fr o
    | ( ( M.Memmap.Peripheral | M.Memmap.External_ram
        | M.Memmap.External_device | M.Memmap.Vendor ),
        lv ) ->
      fun fr -> device_store t addr width (get_opnd fr lv)
    | (M.Memmap.Ppb | M.Memmap.Code | M.Memmap.Sram), lv ->
      fun fr -> checked_store t addr width (get_opnd fr lv)
  in
  (* A dynamic address probes the SRAM range first; affine addresses
     compute inline. *)
  let dyn_load ka width d : frame -> unit =
    match ka with
    | IK addr -> static_load addr width d
    | IA (o, m, k) ->
      fun fr ->
        let addr = (geti fr o * m) + k in
        if addr >= sram_lo && addr + width <= sram_hi then
          sram_load_to t addr width fr d
        else set64 fr d (checked_load t addr width)
    | IB (o1, m1, o2, m2, k) ->
      fun fr ->
        let addr = (geti fr o1 * m1) + (geti fr o2 * m2) + k in
        if addr >= sram_lo && addr + width <= sram_hi then
          sram_load_to t addr width fr d
        else set64 fr d (checked_load t addr width)
    | IF ka ->
      fun fr ->
        let addr = ka fr in
        if addr >= sram_lo && addr + width <= sram_hi then
          sram_load_to t addr width fr d
        else set64 fr d (checked_load t addr width)
  in
  let store_at addr width lv fr =
    match lv with
    | K v ->
      if addr >= sram_lo && addr + width <= sram_hi then
        sram_store t addr width v
      else checked_store t addr width v
    | S o ->
      if addr >= sram_lo && addr + width <= sram_hi then
        sram_store_from t addr width fr o
      else checked_store t addr width (get64 fr o)
  in
  let dyn_store ka width lv : frame -> unit =
    match ka with
    | IK addr -> static_store addr width lv
    | IA (o, m, k) -> fun fr -> store_at ((geti fr o * m) + k) width lv fr
    | IB (o1, m1, o2, m2, k) ->
      fun fr -> store_at ((geti fr o1 * m1) + (geti fr o2 * m2) + k) width lv fr
    | IF ka -> fun fr -> store_at (ka fr) width lv fr
  in
  (* [k] after the instruction's charge and its pending steps. *)
  let charged w (k : frame -> unit) : frame -> unit =
    match take () with
    | [] ->
      fun fr ->
        pre w;
        k fr
    | ks ->
      let s = seq ks in
      fun fr ->
        pre w;
        s fr;
        k fr
  in
  let rec cinstr (instr : Instr.t) : cinstr =
    ntemps := 0;
    match instr with
    | Instr.Nop -> Cpure ([], 1)
    | Instr.Let (x, e) ->
      let i = slot x in
      into (8 * i) e;
      if checked then emit (mark i);
      Cpure (take (), nodes e + 1)
    | Instr.Alloca (x, ty) ->
      let i = slot x in
      let d = 8 * i in
      let size = (Ty.size_of ty + 7) land lnot 7 in
      emit (fun fr ->
          let sp = c.M.Cpu.sp - size in
          if sp < c.M.Cpu.stack_base then raise (Aborted "stack overflow");
          c.M.Cpu.sp <- sp;
          set64 fr d (Int64.of_int sp));
      if checked then emit (mark i);
      Cpure (take (), 1)
    | Instr.Load (x, wd, a) ->
      let i = slot x in
      let width = Instr.width_bytes wd in
      emit (dyn_load (addr a) width (8 * i));
      if checked then emit (mark i);
      Ctail (take (), nodes a + 1)
    | Instr.Store (wd, a, v) ->
      let width = Instr.width_bytes wd in
      let ka = addr a in
      let lv = operand v in
      emit (dyn_store ka width lv);
      Ctail (take (), nodes a + nodes v + 1)
    | Instr.Call (dst, callee, args) -> (
      let wargs = List.fold_left (fun acc e -> acc + nodes e) 0 args in
      let d, finish =
        match dst with
        | None -> (-1, fun _fr -> ())
        | Some x ->
          let i = slot x in
          (8 * i, if checked then mark i else fun _fr -> ())
      in
      match callee with
      | Instr.Direct fname -> (
        let largs = Array.of_list (List.map operand args) in
        let w = wargs + 1 in
        match Hashtbl.find_opt t.cfuncs fname with
        | None ->
          (* evaluate arguments first, like the other engines, then die *)
          Cfull
            (charged w (fun _fr ->
                 raise (Aborted ("call to undefined function " ^ fname))))
        | Some callee_cf ->
          let ct =
            { ct_func = callee_cf;
              ct_addr = t.map.Address_map.func_addr fname;
              ct_entry = Hashtbl.mem t.entries fname }
          in
          Cfull
            (charged w (fun fr ->
                 cinvoke t ct largs fr d;
                 finish fr)))
      | Instr.Indirect e ->
        let w = wargs + nodes e + 1 in
        let ke = ifun (addr e) in
        let tsteps = seq (take ()) in
        let largs = Array.of_list (List.map operand args) in
        let asteps = seq (take ()) in
        (* one-entry inline cache keyed by the code address; the miss
           path preserves the tree walker's fault order (non-function
           address before arguments, undefined function after) *)
        let cache : (int * ctarget) option ref = ref None in
        Cfull
          (fun fr ->
            pre w;
            tsteps fr;
            let addr = ke fr in
            let ct =
              match !cache with
              | Some (a, ct) when a = addr ->
                asteps fr;
                ct
              | _ -> (
                match t.map.Address_map.func_of_addr addr with
                | None ->
                  raise
                    (Aborted
                       (Printf.sprintf "indirect call to non-function 0x%08X"
                          addr))
                | Some fname ->
                  asteps fr;
                  let ct = cresolve t fname in
                  cache := Some (addr, ct);
                  ct)
            in
            cinvoke t ct largs fr d;
            finish fr))
    | Instr.If (cond, a, b) ->
      let kc = cbool cond in
      let csteps = take () in
      let ka = seq (cblock a) in
      let kb = seq (cblock b) in
      let w = nodes cond + 1 in
      Cfull
        (match csteps with
        | [] ->
          fun fr ->
            pre w;
            if kc fr then ka fr else kb fr
        | ks ->
          let s = seq ks in
          fun fr ->
            pre w;
            s fr;
            if kc fr then ka fr else kb fr)
    | Instr.While (cond, body) ->
      let kc = cbool cond in
      let csteps = take () in
      let wc = nodes cond in
      let kb = seq (cblock body) in
      let test =
        match csteps with
        | [] -> kc
        | ks ->
          let s = seq ks in
          fun fr ->
            s fr;
            kc fr
      in
      Cfull
        (fun fr ->
          pre 1;
          while
            if t.fuel <= 0 then raise Fuel_exhausted;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wc;
            test fr
          do
            kb fr
          done)
    | Instr.Return e ->
      (* slot 0 still holds the frame's initial 0 for a bare return *)
      let w = match e with None -> 1 | Some e -> nodes e + 1 in
      Option.iter (into 0) e;
      Cfull (charged w (fun _fr -> raise Returned))
    | Instr.Memcpy (d, s, n) ->
      let w = nodes d + nodes s + nodes n + 1 in
      let kd = ifun (addr d) in
      let ks = ifun (addr s) in
      let kn = ifun (addr n) in
      Cfull
        (charged w (fun fr ->
             let dst = kd fr in
             let src = ks fr in
             let len = kn fr in
             let rec go off =
               if off < len then begin
                 let w =
                   if
                     len - off >= 4
                     && (dst + off) land 3 = 0
                     && (src + off) land 3 = 0
                   then 4
                   else 1
                 in
                 checked_store t (dst + off) w (checked_load t (src + off) w);
                 go (off + w)
               end
             in
             go 0))
    | Instr.Memset (d, v, n) ->
      let w = nodes d + nodes v + nodes n + 1 in
      let kd = ifun (addr d) in
      let lv = operand v in
      let kn = ifun (addr n) in
      Cfull
        (charged w (fun fr ->
             let dst = kd fr in
             let v = get_opnd fr lv in
             let len = kn fr in
             let word =
               let b = Int64.logand v 0xFFL in
               List.fold_left
                 (fun acc sh -> Int64.logor acc (Int64.shift_left b sh))
                 0L [ 0; 8; 16; 24 ]
             in
             let rec go off =
               if off < len then begin
                 let w =
                   if len - off >= 4 && (dst + off) land 3 = 0 then 4 else 1
                 in
                 checked_store t (dst + off) w (if w = 4 then word else v);
                 go (off + w)
               end
             in
             go 0))
    | Instr.Svc n -> Cfull (charged 1 (fun _fr -> t.handler.on_svc n))
    | Instr.Halt -> Cfull (charged 1 (fun _fr -> raise Halted))
  (* Group consecutive pure instructions into one superblock closure:
     fast path takes one fuel decrement and one batched charge for the
     whole run, then runs every step; if fuel cannot cover it, the slow
     path replays the tree walker's exact per-instruction sequence so
     exhaustion lands on the same instruction with the same cycle
     count. *)
  and cblock (block : Instr.block) : (frame -> unit) list =
    let fuse_run (run : ((frame -> unit) list * int) list) : frame -> unit =
      let n = List.length run in
      let wtot = List.fold_left (fun acc (_, w) -> acc + w) 0 run in
      let slow =
        match run with
        | [ _ ] -> fun _fr -> raise Fuel_exhausted
        | run ->
          let ks = Array.of_list (List.map (fun (ks, _) -> seq ks) run) in
          let ws = Array.of_list (List.map snd run) in
          fun fr ->
            for i = 0 to n - 1 do
              if t.fuel <= 0 then raise Fuel_exhausted;
              t.fuel <- t.fuel - 1;
              c.M.Cpu.cycles <- c.M.Cpu.cycles + Array.unsafe_get ws i;
              (Array.unsafe_get ks i) fr
            done
      in
      match List.concat_map fst run with
      | [] ->
        fun fr ->
          if t.fuel >= n then begin
            t.fuel <- t.fuel - n;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wtot
          end
          else slow fr
      | [ k ] ->
        fun fr ->
          if t.fuel >= n then begin
            t.fuel <- t.fuel - n;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wtot;
            k fr
          end
          else slow fr
      | [ k0; k1 ] ->
        fun fr ->
          if t.fuel >= n then begin
            t.fuel <- t.fuel - n;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wtot;
            k0 fr;
            k1 fr
          end
          else slow fr
      | [ k0; k1; k2 ] ->
        fun fr ->
          if t.fuel >= n then begin
            t.fuel <- t.fuel - n;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wtot;
            k0 fr;
            k1 fr;
            k2 fr
          end
          else slow fr
      | steps ->
        let steps = Array.of_list steps in
        fun fr ->
          if t.fuel >= n then begin
            t.fuel <- t.fuel - n;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wtot;
            for i = 0 to Array.length steps - 1 do
              (Array.unsafe_get steps i) fr
            done
          end
          else slow fr
    in
    let flush acc pending =
      match pending with [] -> acc | run -> fuse_run (List.rev run) :: acc
    in
    let rec group acc pending = function
      | [] -> List.rev (flush acc pending)
      | Cpure (ks, w) :: rest -> group acc ((ks, w) :: pending) rest
      | Ctail (ks, w) :: rest ->
        (* the access closes the run: batched charges all precede it *)
        group (fuse_run (List.rev ((ks, w) :: pending)) :: acc) [] rest
      | Cfull k :: rest -> group (k :: flush acc pending) [] rest
    in
    group [] [] (List.map cinstr block)
  in
  let entry =
    match split_tail [] f.Func.body with
    | Some (prefix, ret) when not (block_returns prefix) -> (
      (* the function's only return is in tail position: run the prefix
         and write the value directly, no [Returned] unwind *)
      let kbody = seq (cblock prefix) in
      match ret with
      | None ->
        fun fr ->
          kbody fr;
          pre 1
      | Some e ->
        ntemps := 0;
        into 0 e;
        let s = seq (take ()) in
        let w = nodes e + 1 in
        fun fr ->
          kbody fr;
          pre w;
          s fr)
    | _ ->
      let kbody = seq (cblock f.Func.body) in
      if block_returns f.Func.body then fun fr ->
        match kbody fr with () -> () | exception Returned -> ()
      else kbody
  in
  let nslots = !nslots in
  cf.cf_defs <- 8 * nslots;
  cf.cf_size <- (if checked then 9 * nslots else 8 * nslots);
  cf.cf_checked <- checked;
  cf.cf_entry <- entry

(* --- construction ------------------------------------------------------- *)

let create ?(fuel = 200_000_000) ?(max_depth = 200) ?(handler = abort_handler)
    ?(entries = []) ?(engine = Compiled) ?(sink = Obs.Sink.null)
    ?(trace = false) ~bus ~map program =
  let tbl = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace tbl e ()) entries;
  let tr = Trace.create () in
  tr.Trace.enabled <- trace;
  let t =
    { program;
      funcs = Program.func_map program;
      bus;
      map;
      handler;
      trace = tr;
      entries = tbl;
      fuel;
      depth = 0;
      max_depth;
      engine;
      cfuncs = Hashtbl.create 64;
      operation_switches = 0;
      sink;
      last_fault = None }
  in
  (match engine with
  | Tree -> ()
  | Compiled ->
    (* two-phase translation: create every function's record first so
       direct call sites bind their callee's record, then compile the
       bodies *)
    List.iter
      (fun (f : Func.t) ->
        Hashtbl.replace t.cfuncs f.Func.name
          { cf_func = f;
            cf_nparams = List.length f.Func.params;
            cf_size = 0;
            cf_defs = 0;
            cf_checked = true;
            cf_entry = (fun _fr -> ()) })
      program.Program.funcs;
    Hashtbl.iter (fun _name cf -> compile t cf) t.cfuncs);
  t

(* --- program entry ------------------------------------------------------ *)

let call t fname argv =
  match t.engine with
  | Tree -> call t fname argv
  | Compiled -> ccall t fname (Array.of_list argv)

let run ?(reset_stack = true) t =
  (* a fresh run must not inherit the previous run's fault: interpreters
     live beyond one run in the memoized pipeline store, and post-mortem
     classifiers read [last_fault] after the run ends *)
  t.last_fault <- None;
  let c = cpu t in
  if reset_stack then begin
    c.M.Cpu.sp <- t.map.Address_map.stack_top;
    c.M.Cpu.stack_base <- t.map.Address_map.stack_base;
    c.M.Cpu.stack_limit <- t.map.Address_map.stack_top
  end;
  match call t t.program.Program.main [] with
  | _ -> ()
  | exception Halted -> ()
