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
     image-load time, into a tree of OCaml closures with no opcode
     dispatch: constants folded and local slots bound into the closures
     themselves, runs of pure instructions fused into superblocks with
     one fuel/cycle charge per block, direct-call targets bound to the
     callee's compiled code at translation time, and load/store fast
     paths that skip the bus's address decode when the target region is
     statically known.  See the compiled-engine section below for the
     design and for the cycle-accounting argument.

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

(* A compiled activation record: locals live in [regs] at slots
   assigned at translation time; [def] tracks which slots have been
   written, so a read of a never-assigned local raises the same usage
   fault the tree engine's hashtable miss does.  Functions whose locals
   are all definitely assigned skip the [def] bookkeeping and share one
   empty byte string. *)
type frame = { regs : int64 array; def : Bytes.t }

(* A closure-compiled function.  [cf_entry] runs a fresh activation to
   completion and produces the return value (functions whose only
   [Return] is in tail position return it directly, with no exception);
   [cf_checked] keeps def-tracked frames for the rare function where
   some local read is not definitely assigned.
   Fields are mutable because translation is two-phase: records for
   every function exist before bodies compile, so direct call sites
   bind their callee's record — not a name — into the call closure. *)
type cfunc = {
  cf_func : Func.t;
  mutable cf_nslots : int;
  cf_nparams : int;
  mutable cf_checked : bool;
  mutable cf_entry : frame -> int64;
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
  mutable sink : Obs.Sink.t;
  (* last data-access fault delivered to the handler, for post-mortem
     classification (the attack campaign reads it after an abort) *)
  mutable last_fault : (access_desc * M.Fault.info) option;
}

let cpu t = t.bus.M.Bus.cpu
let set_handler t handler = t.handler <- handler
let last_fault t = t.last_fault
let trace t = t.trace
let cycles t = M.Cpu.cycles (cpu t)
let switches t = t.operation_switches
let engine t = t.engine
let sink t = t.sink
let set_sink t sink = t.sink <- sink

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
    Trace.record_access t.trace ~addr ~write:false;
    v
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) -> (
    match deliver_fault t (Access_load { addr; width }) e with
    | Some v -> v
    | None -> checked_load t addr width)

let rec checked_store t addr width v =
  match M.Bus.write t.bus addr width v with
  | () -> Trace.record_access t.trace ~addr ~write:true
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) ->
    let desc = Access_store { addr; width; value = v } in
    if Option.is_none (deliver_fault t desc e) then checked_store t addr width v

(* Region-routed variants for the compiled engine: [raw] is one of the
   bus fast paths ([Bus.read_sram], [Bus.read_device], ...) whose
   routing precondition the translator established.  Fault delivery is
   identical to [checked_load]/[checked_store]; a [Retry] re-executes
   the same fast path (the monitor fixed the MPU, the routing still
   holds). *)
let rec routed_load t raw addr width =
  match raw t.bus addr width with
  | v ->
    Trace.record_access t.trace ~addr ~write:false;
    v
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) -> (
    match deliver_fault t (Access_load { addr; width }) e with
    | Some v -> v
    | None -> routed_load t raw addr width)

let rec routed_store t raw addr width v =
  match raw t.bus addr width v with
  | () -> Trace.record_access t.trace ~addr ~write:true
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) ->
    let desc = Access_store { addr; width; value = v } in
    if Option.is_none (deliver_fault t desc e) then
      routed_store t raw addr width v

(* SRAM-routed accesses, monomorphized: [routed_load t M.Bus.read_sram]
   would push [read_sram] through a generic three-argument apply on
   every access, so the SRAM case — the hottest by far — gets its own
   copies with direct calls. *)
let rec sram_load t addr width =
  match M.Bus.read_sram t.bus addr width with
  | v ->
    Trace.record_access t.trace ~addr ~write:false;
    v
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) -> (
    match deliver_fault t (Access_load { addr; width }) e with
    | Some v -> v
    | None -> sram_load t addr width)

let rec sram_store t addr width v =
  match M.Bus.write_sram t.bus addr width v with
  | () -> Trace.record_access t.trace ~addr ~write:true
  | exception ((M.Fault.Mem_manage _ | M.Fault.Bus _) as e) ->
    let desc = Access_store { addr; width; value = v } in
    if Option.is_none (deliver_fault t desc e) then sram_store t addr width v

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

   - Each function's locals get integer slots in a flat frame array
     (parameters first, then names in order of appearance).
   - Expressions compile to a compile-time value classification [cval]:
     constants fold at translation time ([K]), reads of definitely-
     assigned locals become bare slot indices ([S]) inlined into the
     consuming closure (no closure call, no def-tag check), and only
     genuinely dynamic subtrees keep a closure ([F]).
   - Runs of pure instructions (Let/Alloca/Nop — no bus access, no
     observable point) fuse into superblocks: one fuel check, one
     decrement of the whole run, one batched cycle charge.
   - Direct call sites bind the callee's [cfunc] record at translation
     time (records for all functions exist before bodies compile);
     indirect sites keep a one-entry inline cache keyed by the code
     address.  Functions whose only [Return] is the final instruction
     of the top-level block return the value directly instead of
     raising [Returning].
   - Loads and stores whose address folds at translation time route
     straight to the owning region (SRAM/flash/device window) through
     the bus fast paths; dynamic addresses probe the SRAM range first.
     Both paths charge, MPU-check, trace, and fault exactly like
     [checked_load]/[checked_store].

   Cycle accounting, against [Tree].  The tree walker charges one cycle
   per instruction dispatch and one per expression node as it evaluates
   them.  Here expression closures charge nothing: each instruction
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

   The one divergence window is an abort *inside* an expression
   (division by zero, read of a never-assigned local): the batched count
   is ahead by the nodes that never evaluated, and where both operands
   of a binary operator would fault, the right one (evaluated first
   here) names the fault.  Such a run dies on the spot; no evaluation
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

(* Compile-time classification of an expression operand. *)
type cval =
  | K of int64                 (* folded constant *)
  | S of int                   (* definitely-assigned local slot *)
  | F of (frame -> int64)      (* dynamic *)

(* The native-int mirror of [cval], for the address compiler. *)
type cival =
  | IK of int
  | IS of int
  | IF of (frame -> int)

let force = function
  | K v -> fun _fr -> v
  | S i -> fun fr -> Array.unsafe_get fr.regs i
  | F k -> k

(* The operator's meaning as a plain function; [Div]/[Rem] keep the
   usage-fault check, evaluated after both operands like the other
   engines. *)
let bin_fn : Expr.binop -> int64 -> int64 -> int64 = function
  | Expr.Add -> Int64.add
  | Expr.Sub -> Int64.sub
  | Expr.Mul -> Int64.mul
  | Expr.Div ->
    fun a b ->
      if Int64.equal b 0L then raise (M.Fault.Usage "division by zero")
      else Int64.div a b
  | Expr.Rem ->
    fun a b ->
      if Int64.equal b 0L then raise (M.Fault.Usage "division by zero")
      else Int64.rem a b
  | Expr.And -> Int64.logand
  | Expr.Or -> Int64.logor
  | Expr.Xor -> Int64.logxor
  | Expr.Shl -> fun a b -> Int64.shift_left a (Int64.to_int b land 63)
  | Expr.Shr -> fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Expr.Eq -> fun a b -> if Int64.equal a b then 1L else 0L
  | Expr.Ne -> fun a b -> if Int64.equal a b then 0L else 1L
  | Expr.Lt -> fun a b -> if Int64.compare a b < 0 then 1L else 0L
  | Expr.Le -> fun a b -> if Int64.compare a b <= 0 then 1L else 0L
  | Expr.Gt -> fun a b -> if Int64.compare a b > 0 then 1L else 0L
  | Expr.Ge -> fun a b -> if Int64.compare a b >= 0 then 1L else 0L

(* Apply [g] to two operands, inlining constant and slot leaves into the
   shape-specialized closure — the closure-call count per binop drops
   from one per node to at most one per dynamic subtree. *)
let shape2 (g : int64 -> int64 -> int64) a b : frame -> int64 =
  match (a, b) with
  | K x, K y ->
    let v = g x y in
    fun _fr -> v
  | K x, S j -> fun fr -> g x (Array.unsafe_get fr.regs j)
  | K x, F kb -> fun fr -> g x (kb fr)
  | S i, K y -> fun fr -> g (Array.unsafe_get fr.regs i) y
  | S i, S j ->
    fun fr -> g (Array.unsafe_get fr.regs i) (Array.unsafe_get fr.regs j)
  | S i, F kb -> fun fr -> g (Array.unsafe_get fr.regs i) (kb fr)
  | F ka, K y -> fun fr -> g (ka fr) y
  | F ka, S j -> fun fr -> g (ka fr) (Array.unsafe_get fr.regs j)
  | F ka, F kb -> fun fr -> g (ka fr) (kb fr)

(* The hot arithmetic/logic operators get fully specialized closures —
   the operator applied directly in each operand-shape case, with no
   call through a function value (without flambda, [shape2 (bin_fn op)]
   pays a generic two-argument apply per evaluation).  The mechanical
   repetition is the point: each case compiles to a closure whose body
   is one primitive on preloaded operands. *)
let cbin op a b : frame -> int64 =
  match op with
  | Expr.Add -> (
    match (a, b) with
    | S i, K y -> fun fr -> Int64.add (Array.unsafe_get fr.regs i) y
    | K x, S j -> fun fr -> Int64.add x (Array.unsafe_get fr.regs j)
    | S i, S j ->
      fun fr ->
        Int64.add (Array.unsafe_get fr.regs i) (Array.unsafe_get fr.regs j)
    | S i, F kb -> fun fr -> Int64.add (Array.unsafe_get fr.regs i) (kb fr)
    | F ka, S j -> fun fr -> Int64.add (ka fr) (Array.unsafe_get fr.regs j)
    | K x, F kb -> fun fr -> Int64.add x (kb fr)
    | F ka, K y -> fun fr -> Int64.add (ka fr) y
    | F ka, F kb -> fun fr -> Int64.add (ka fr) (kb fr)
    | (K _ as a), (K _ as b) -> shape2 Int64.add a b)
  | Expr.Sub -> (
    match (a, b) with
    | S i, K y -> fun fr -> Int64.sub (Array.unsafe_get fr.regs i) y
    | K x, S j -> fun fr -> Int64.sub x (Array.unsafe_get fr.regs j)
    | S i, S j ->
      fun fr ->
        Int64.sub (Array.unsafe_get fr.regs i) (Array.unsafe_get fr.regs j)
    | S i, F kb -> fun fr -> Int64.sub (Array.unsafe_get fr.regs i) (kb fr)
    | F ka, S j -> fun fr -> Int64.sub (ka fr) (Array.unsafe_get fr.regs j)
    | K x, F kb -> fun fr -> Int64.sub x (kb fr)
    | F ka, K y -> fun fr -> Int64.sub (ka fr) y
    | F ka, F kb -> fun fr -> Int64.sub (ka fr) (kb fr)
    | (K _ as a), (K _ as b) -> shape2 Int64.sub a b)
  | Expr.Mul -> (
    match (a, b) with
    | S i, K y -> fun fr -> Int64.mul (Array.unsafe_get fr.regs i) y
    | K x, S j -> fun fr -> Int64.mul x (Array.unsafe_get fr.regs j)
    | S i, S j ->
      fun fr ->
        Int64.mul (Array.unsafe_get fr.regs i) (Array.unsafe_get fr.regs j)
    | S i, F kb -> fun fr -> Int64.mul (Array.unsafe_get fr.regs i) (kb fr)
    | F ka, S j -> fun fr -> Int64.mul (ka fr) (Array.unsafe_get fr.regs j)
    | K x, F kb -> fun fr -> Int64.mul x (kb fr)
    | F ka, K y -> fun fr -> Int64.mul (ka fr) y
    | F ka, F kb -> fun fr -> Int64.mul (ka fr) (kb fr)
    | (K _ as a), (K _ as b) -> shape2 Int64.mul a b)
  | Expr.And -> (
    match (a, b) with
    | S i, K y -> fun fr -> Int64.logand (Array.unsafe_get fr.regs i) y
    | K x, S j -> fun fr -> Int64.logand x (Array.unsafe_get fr.regs j)
    | S i, S j ->
      fun fr ->
        Int64.logand (Array.unsafe_get fr.regs i) (Array.unsafe_get fr.regs j)
    | S i, F kb -> fun fr -> Int64.logand (Array.unsafe_get fr.regs i) (kb fr)
    | F ka, S j -> fun fr -> Int64.logand (ka fr) (Array.unsafe_get fr.regs j)
    | K x, F kb -> fun fr -> Int64.logand x (kb fr)
    | F ka, K y -> fun fr -> Int64.logand (ka fr) y
    | F ka, F kb -> fun fr -> Int64.logand (ka fr) (kb fr)
    | (K _ as a), (K _ as b) -> shape2 Int64.logand a b)
  | Expr.Or -> (
    match (a, b) with
    | S i, K y -> fun fr -> Int64.logor (Array.unsafe_get fr.regs i) y
    | K x, S j -> fun fr -> Int64.logor x (Array.unsafe_get fr.regs j)
    | S i, S j ->
      fun fr ->
        Int64.logor (Array.unsafe_get fr.regs i) (Array.unsafe_get fr.regs j)
    | S i, F kb -> fun fr -> Int64.logor (Array.unsafe_get fr.regs i) (kb fr)
    | F ka, S j -> fun fr -> Int64.logor (ka fr) (Array.unsafe_get fr.regs j)
    | K x, F kb -> fun fr -> Int64.logor x (kb fr)
    | F ka, K y -> fun fr -> Int64.logor (ka fr) y
    | F ka, F kb -> fun fr -> Int64.logor (ka fr) (kb fr)
    | (K _ as a), (K _ as b) -> shape2 Int64.logor a b)
  | Expr.Xor -> (
    match (a, b) with
    | S i, K y -> fun fr -> Int64.logxor (Array.unsafe_get fr.regs i) y
    | K x, S j -> fun fr -> Int64.logxor x (Array.unsafe_get fr.regs j)
    | S i, S j ->
      fun fr ->
        Int64.logxor (Array.unsafe_get fr.regs i) (Array.unsafe_get fr.regs j)
    | S i, F kb -> fun fr -> Int64.logxor (Array.unsafe_get fr.regs i) (kb fr)
    | F ka, S j -> fun fr -> Int64.logxor (ka fr) (Array.unsafe_get fr.regs j)
    | K x, F kb -> fun fr -> Int64.logxor x (kb fr)
    | F ka, K y -> fun fr -> Int64.logxor (ka fr) y
    | F ka, F kb -> fun fr -> Int64.logxor (ka fr) (kb fr)
    | (K _ as a), (K _ as b) -> shape2 Int64.logxor a b)
  | Expr.Shl -> (
    match (a, b) with
    | S i, K y ->
      let sh = Int64.to_int y land 63 in
      fun fr -> Int64.shift_left (Array.unsafe_get fr.regs i) sh
    | F ka, K y ->
      let sh = Int64.to_int y land 63 in
      fun fr -> Int64.shift_left (ka fr) sh
    | a, b -> shape2 (bin_fn Expr.Shl) a b)
  | Expr.Shr -> (
    match (a, b) with
    | S i, K y ->
      let sh = Int64.to_int y land 63 in
      fun fr -> Int64.shift_right_logical (Array.unsafe_get fr.regs i) sh
    | F ka, K y ->
      let sh = Int64.to_int y land 63 in
      fun fr -> Int64.shift_right_logical (ka fr) sh
    | a, b -> shape2 (bin_fn Expr.Shr) a b)
  | (Expr.Div | Expr.Rem | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt
    | Expr.Ge) as op ->
    shape2 (bin_fn op) a b

(* A compiled call target, bound at translation time. *)
type ctarget = { ct_func : cfunc; ct_addr : int; ct_entry : bool }

let empty_argv : int64 array = [||]
let no_def = Bytes.create 0

let cframe cf (argv : int64 array) =
  let fr =
    { regs = Array.make cf.cf_nslots 0L;
      def = if cf.cf_checked then Bytes.make cf.cf_nslots '\000' else no_def }
  in
  let n = Array.length argv in
  for i = 0 to cf.cf_nparams - 1 do
    fr.regs.(i) <- (if i < n then argv.(i) else 0L)
  done;
  if cf.cf_checked then
    for i = 0 to cf.cf_nparams - 1 do
      Bytes.unsafe_set fr.def i '\001'
    done;
  fr

let rec cresolve t fname =
  match Hashtbl.find_opt t.cfuncs fname with
  | None -> raise (Aborted ("call to undefined function " ^ fname))
  | Some cf ->
    { ct_func = cf;
      ct_addr = t.map.Address_map.func_addr fname;
      ct_entry = Hashtbl.mem t.entries fname }

and ccall_target t ct (argv : int64 array) =
  (try M.Bus.check_execute t.bus ct.ct_addr
   with
  | M.Fault.Mem_manage info | M.Fault.Bus info ->
    raise
      (Aborted
         (Fmt.str "execute fault entering %s: %a" ct.ct_func.cf_func.Func.name
            M.Fault.pp_info info)));
  if t.depth >= t.max_depth then raise (Aborted "call depth exceeded");
  if ct.ct_entry then ccall_operation t ct.ct_func argv
  else ccall_plain t ct.ct_func argv

and ccall t fname (argv : int64 array) = ccall_target t (cresolve t fname) argv

and ccall_plain t cf (argv : int64 array) =
  let c = cpu t in
  let saved_sp = c.M.Cpu.sp in
  if Array.length argv > spill_threshold then spill t argv;
  M.Cpu.charge c 2;
  Trace.call t.trace cf.cf_func.Func.name;
  t.depth <- t.depth + 1;
  let ret = cf.cf_entry (cframe cf argv) in
  t.depth <- t.depth - 1;
  Trace.return t.trace cf.cf_func.Func.name;
  c.M.Cpu.sp <- saved_sp;
  ret

and ccall_operation t cf (argv : int64 array) =
  let saved_sp = (cpu t).M.Cpu.sp in
  let f = cf.cf_func in
  let fr = cframe cf (trap_enter t f argv) in
  match cf.cf_entry fr with
  | v ->
    trap_exit t f ~saved_sp;
    v
  | exception e ->
    trap_exit t f ~saved_sp;
    raise e

(* A compiled instruction before superblock grouping: [Cpure] carries an
   uncharged effect plus its weight and is eligible for fusion; [Ctail]
   is an uncharged effect whose single bus access happens at its end, so
   it may terminate a fused run (every batched charge lands before the
   access executes, which is exactly the cumulative count the tree
   walker shows at that access); [Cfull] charges for itself. *)
type cinstr =
  | Cpure of (frame -> unit) * int
  | Ctail of (frame -> unit) * int
  | Cfull of (frame -> unit)

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
  let slots = Hashtbl.create 16 in
  let nslots = ref 0 in
  let slot x =
    match Hashtbl.find_opt slots x with
    | Some i -> i
    | None ->
      let i = !nslots in
      incr nslots;
      Hashtbl.add slots x i;
      i
  in
  List.iter (fun (x, _ty) -> ignore (slot x)) f.Func.params;
  let rec cexpr (e : Expr.t) : cval * int =
    match e with
    | Expr.Const n -> (K n, 1)
    | Expr.Local x ->
      let i = slot x in
      if checked then
        ( F
            (fun fr ->
              if Bytes.unsafe_get fr.def i = '\000' then
                raise
                  (M.Fault.Usage
                     (Printf.sprintf "use of undefined local %s" x))
              else Array.unsafe_get fr.regs i),
          1 )
      else (S i, 1)
    | Expr.Global_addr g -> (
      match Int64.of_int (t.map.Address_map.global_addr g) with
      | addr -> (K addr, 1)
      | exception _ ->
        (F (fun _fr -> Int64.of_int (t.map.Address_map.global_addr g)), 1))
    | Expr.Func_addr fn -> (
      match Int64.of_int (t.map.Address_map.func_addr fn) with
      | addr -> (K addr, 1)
      | exception _ ->
        (F (fun _fr -> Int64.of_int (t.map.Address_map.func_addr fn)), 1))
    | Expr.Un (Expr.Neg, a) -> (
      let ca, wa = cexpr a in
      match ca with
      | K v -> (K (Int64.neg v), wa + 1)
      | S i -> (F (fun fr -> Int64.neg (Array.unsafe_get fr.regs i)), wa + 1)
      | F k -> (F (fun fr -> Int64.neg (k fr)), wa + 1))
    | Expr.Un (Expr.Not, a) -> (
      let ca, wa = cexpr a in
      match ca with
      | K v -> (K (Int64.lognot v), wa + 1)
      | S i ->
        (F (fun fr -> Int64.lognot (Array.unsafe_get fr.regs i)), wa + 1)
      | F k -> (F (fun fr -> Int64.lognot (k fr)), wa + 1))
    | Expr.Bin (op, a, b) -> (
      let ca, wa = cexpr a in
      let cb, wb = cexpr b in
      let w = wa + wb + 1 in
      match (ca, cb) with
      | K x, K y -> (
        match Expr.eval_bin op x y with
        | Some v -> (K v, w)
        | None ->
          (F (fun _fr -> raise (M.Fault.Usage "division by zero")), w))
      | _ -> (F (cbin op ca cb), w))
  in
  (* Branch/loop conditions compile straight to a boolean, skipping the
     1L/0L round-trip of a materialized comparison result.  [And]/[Or]
     over operands that only ever produce 0/1 (comparisons, or nested
     [And]/[Or] of such) fuse into boolean connectives: on 0/1 values
     bitwise and/or coincide with the boolean ones.  Both operands are
     still evaluated, right one first, like the boxed closures — the
     connectives do not short-circuit. *)
  let rec boolish (e : Expr.t) =
    match e with
    | Expr.Bin ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _)
      ->
      true
    | Expr.Bin ((Expr.And | Expr.Or), a, b) -> boolish a && boolish b
    | _ -> false
  in
  let rec cbool (e : Expr.t) : (frame -> bool) * int =
    match e with
    | Expr.Bin (Expr.And, a, b) when boolish a && boolish b ->
      let ka, wa = cbool a in
      let kb, wb = cbool b in
      ( (fun fr ->
          let vb = kb fr in
          ka fr && vb),
        wa + wb + 1 )
    | Expr.Bin (Expr.Or, a, b) when boolish a && boolish b ->
      let ka, wa = cbool a in
      let kb, wb = cbool b in
      ( (fun fr ->
          let vb = kb fr in
          ka fr || vb),
        wa + wb + 1 )
    | Expr.Bin
        ( ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op),
          a,
          b ) -> (
      let ca, wa = cexpr a in
      let cb, wb = cexpr b in
      let w = wa + wb + 1 in
      match (ca, cb) with
      | K x, K y ->
        let r =
          match Expr.eval_bin op x y with Some v -> truthy v | None -> false
        in
        ((fun _fr -> r), w)
      | S i, K y ->
        let k =
          match op with
          | Expr.Eq -> fun fr -> Int64.equal (Array.unsafe_get fr.regs i) y
          | Expr.Ne ->
            fun fr -> not (Int64.equal (Array.unsafe_get fr.regs i) y)
          | Expr.Lt ->
            fun fr -> Int64.compare (Array.unsafe_get fr.regs i) y < 0
          | Expr.Le ->
            fun fr -> Int64.compare (Array.unsafe_get fr.regs i) y <= 0
          | Expr.Gt ->
            fun fr -> Int64.compare (Array.unsafe_get fr.regs i) y > 0
          | Expr.Ge ->
            fun fr -> Int64.compare (Array.unsafe_get fr.regs i) y >= 0
          | _ -> assert false
        in
        (k, w)
      | K x, S j ->
        let k =
          match op with
          | Expr.Eq -> fun fr -> Int64.equal x (Array.unsafe_get fr.regs j)
          | Expr.Ne ->
            fun fr -> not (Int64.equal x (Array.unsafe_get fr.regs j))
          | Expr.Lt ->
            fun fr -> Int64.compare x (Array.unsafe_get fr.regs j) < 0
          | Expr.Le ->
            fun fr -> Int64.compare x (Array.unsafe_get fr.regs j) <= 0
          | Expr.Gt ->
            fun fr -> Int64.compare x (Array.unsafe_get fr.regs j) > 0
          | Expr.Ge ->
            fun fr -> Int64.compare x (Array.unsafe_get fr.regs j) >= 0
          | _ -> assert false
        in
        (k, w)
      | S i, S j ->
        let k =
          match op with
          | Expr.Eq ->
            fun fr ->
              Int64.equal (Array.unsafe_get fr.regs i)
                (Array.unsafe_get fr.regs j)
          | Expr.Ne ->
            fun fr ->
              not
                (Int64.equal (Array.unsafe_get fr.regs i)
                   (Array.unsafe_get fr.regs j))
          | Expr.Lt ->
            fun fr ->
              Int64.compare (Array.unsafe_get fr.regs i)
                (Array.unsafe_get fr.regs j)
              < 0
          | Expr.Le ->
            fun fr ->
              Int64.compare (Array.unsafe_get fr.regs i)
                (Array.unsafe_get fr.regs j)
              <= 0
          | Expr.Gt ->
            fun fr ->
              Int64.compare (Array.unsafe_get fr.regs i)
                (Array.unsafe_get fr.regs j)
              > 0
          | Expr.Ge ->
            fun fr ->
              Int64.compare (Array.unsafe_get fr.regs i)
                (Array.unsafe_get fr.regs j)
              >= 0
          | _ -> assert false
        in
        (k, w)
      | ca, cb ->
        let fa = force ca in
        let fb = force cb in
        let k =
          match op with
          | Expr.Eq -> fun fr -> Int64.equal (fa fr) (fb fr)
          | Expr.Ne -> fun fr -> not (Int64.equal (fa fr) (fb fr))
          | Expr.Lt -> fun fr -> Int64.compare (fa fr) (fb fr) < 0
          | Expr.Le -> fun fr -> Int64.compare (fa fr) (fb fr) <= 0
          | Expr.Gt -> fun fr -> Int64.compare (fa fr) (fb fr) > 0
          | Expr.Ge -> fun fr -> Int64.compare (fa fr) (fb fr) >= 0
          | _ -> assert false
        in
        (k, w))
    | e -> (
      let cv, w = cexpr e in
      match cv with
      | K v ->
        let r = truthy v in
        ((fun _fr -> r), w)
      | S i ->
        ((fun fr -> not (Int64.equal (Array.unsafe_get fr.regs i) 0L)), w)
      | F k -> ((fun fr -> truthy (k fr)), w))
  in
  (* Address (and length) expressions compile straight into the
     native-int domain: the consumer only ever looks at
     [Int64.to_int addr], and truncation mod 2^63 is a ring homomorphism
     for + - * land lor lxor lognot neg — computing in int from the
     leaves up is exact, and unlike the boxed path it never allocates.
     Operators whose truncation does not commute (shifts, division,
     comparisons) return [None] and keep the boxed path.  Operand order
     matches the boxed closures (right operand first), so def-check
     faults surface in the same order on both paths. *)
  (* Shaped int-domain values, mirroring [cval]: [IK] constant, [IS]
     slot read (never faults — checked-mode locals compile to [IF] with
     the def test), [IF] computed.  Leaf shapes inline into the parent
     operation, so a binop over leaves is one closure, not three.  Only
     an [IF] side can fault; where both sides are [IF] the right one
     evaluates first, like the boxed closures. *)
  let geti fr i = Int64.to_int (Array.unsafe_get fr.regs i) in
  let rec cint_v (e : Expr.t) : cival option =
    match e with
    | Expr.Const n -> Some (IK (Int64.to_int n))
    | Expr.Local x ->
      let i = slot x in
      if checked then
        Some
          (IF
             (fun fr ->
               if Bytes.unsafe_get fr.def i = '\000' then
                 raise
                   (M.Fault.Usage
                      (Printf.sprintf "use of undefined local %s" x))
               else geti fr i))
      else Some (IS i)
    | Expr.Global_addr g -> (
      match t.map.Address_map.global_addr g with
      | addr -> Some (IK addr)
      | exception _ -> None)
    | Expr.Func_addr fn -> (
      match t.map.Address_map.func_addr fn with
      | addr -> Some (IK addr)
      | exception _ -> None)
    | Expr.Un (Expr.Neg, a) -> (
      match cint_v a with
      | Some (IK x) -> Some (IK (-x))
      | Some (IS i) -> Some (IF (fun fr -> -geti fr i))
      | Some (IF f) -> Some (IF (fun fr -> -f fr))
      | None -> None)
    | Expr.Un (Expr.Not, a) -> (
      match cint_v a with
      | Some (IK x) -> Some (IK (lnot x))
      | Some (IS i) -> Some (IF (fun fr -> lnot (geti fr i)))
      | Some (IF f) -> Some (IF (fun fr -> lnot (f fr)))
      | None -> None)
    | Expr.Bin (op, a, b) -> (
      match (cint_v a, cint_v b) with
      | Some sa, Some sb -> (
        match op with
        | Expr.Add -> (
          match (sa, sb) with
          | IK x, IK y -> Some (IK (x + y))
          | IS i, IK y -> Some (IF (fun fr -> geti fr i + y))
          | IK x, IS j -> Some (IF (fun fr -> x + geti fr j))
          | IS i, IS j -> Some (IF (fun fr -> geti fr i + geti fr j))
          | IF f, IK y -> Some (IF (fun fr -> f fr + y))
          | IK x, IF g -> Some (IF (fun fr -> x + g fr))
          | IS i, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   geti fr i + vb))
          | IF f, IS j -> Some (IF (fun fr -> f fr + geti fr j))
          | IF f, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   f fr + vb)))
        | Expr.Sub -> (
          match (sa, sb) with
          | IK x, IK y -> Some (IK (x - y))
          | IS i, IK y -> Some (IF (fun fr -> geti fr i - y))
          | IK x, IS j -> Some (IF (fun fr -> x - geti fr j))
          | IS i, IS j -> Some (IF (fun fr -> geti fr i - geti fr j))
          | IF f, IK y -> Some (IF (fun fr -> f fr - y))
          | IK x, IF g -> Some (IF (fun fr -> x - g fr))
          | IS i, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   geti fr i - vb))
          | IF f, IS j -> Some (IF (fun fr -> f fr - geti fr j))
          | IF f, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   f fr - vb)))
        | Expr.Mul -> (
          match (sa, sb) with
          | IK x, IK y -> Some (IK (x * y))
          | IS i, IK y -> Some (IF (fun fr -> geti fr i * y))
          | IK x, IS j -> Some (IF (fun fr -> x * geti fr j))
          | IS i, IS j -> Some (IF (fun fr -> geti fr i * geti fr j))
          | IF f, IK y -> Some (IF (fun fr -> f fr * y))
          | IK x, IF g -> Some (IF (fun fr -> x * g fr))
          | IS i, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   geti fr i * vb))
          | IF f, IS j -> Some (IF (fun fr -> f fr * geti fr j))
          | IF f, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   f fr * vb)))
        | Expr.And -> (
          match (sa, sb) with
          | IK x, IK y -> Some (IK (x land y))
          | IS i, IK y -> Some (IF (fun fr -> geti fr i land y))
          | IK x, IS j -> Some (IF (fun fr -> x land geti fr j))
          | IS i, IS j -> Some (IF (fun fr -> geti fr i land geti fr j))
          | IF f, IK y -> Some (IF (fun fr -> f fr land y))
          | IK x, IF g -> Some (IF (fun fr -> x land g fr))
          | IS i, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   geti fr i land vb))
          | IF f, IS j -> Some (IF (fun fr -> f fr land geti fr j))
          | IF f, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   f fr land vb)))
        | Expr.Or -> (
          match (sa, sb) with
          | IK x, IK y -> Some (IK (x lor y))
          | IS i, IK y -> Some (IF (fun fr -> geti fr i lor y))
          | IK x, IS j -> Some (IF (fun fr -> x lor geti fr j))
          | IS i, IS j -> Some (IF (fun fr -> geti fr i lor geti fr j))
          | IF f, IK y -> Some (IF (fun fr -> f fr lor y))
          | IK x, IF g -> Some (IF (fun fr -> x lor g fr))
          | IS i, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   geti fr i lor vb))
          | IF f, IS j -> Some (IF (fun fr -> f fr lor geti fr j))
          | IF f, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   f fr lor vb)))
        | Expr.Xor -> (
          match (sa, sb) with
          | IK x, IK y -> Some (IK (x lxor y))
          | IS i, IK y -> Some (IF (fun fr -> geti fr i lxor y))
          | IK x, IS j -> Some (IF (fun fr -> x lxor geti fr j))
          | IS i, IS j -> Some (IF (fun fr -> geti fr i lxor geti fr j))
          | IF f, IK y -> Some (IF (fun fr -> f fr lxor y))
          | IK x, IF g -> Some (IF (fun fr -> x lxor g fr))
          | IS i, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   geti fr i lxor vb))
          | IF f, IS j -> Some (IF (fun fr -> f fr lxor geti fr j))
          | IF f, IF g ->
            Some
              (IF
                 (fun fr ->
                   let vb = g fr in
                   f fr lxor vb)))
        | _ -> None)
      | _ -> None)
  in
  let cint (e : Expr.t) : (frame -> int) option =
    match cint_v e with
    | Some (IK v) -> Some (fun _fr -> v)
    | Some (IS i) -> Some (fun fr -> geti fr i)
    | Some (IF f) -> Some f
    | None -> None
  in
  (* An address-consumer position: the int-domain closure when the
     expression qualifies, otherwise the boxed closure truncated at the
     end — exactly what the tree walker computes. *)
  let cint_or_force (e : Expr.t) : frame -> int =
    match cint e with
    | Some ki -> ki
    | None ->
      let cv, _ = cexpr e in
      let k = force cv in
      fun fr -> Int64.to_int (k fr)
  in
  let pre w =
    if t.fuel <= 0 then raise Fuel_exhausted;
    t.fuel <- t.fuel - 1;
    c.M.Cpu.cycles <- c.M.Cpu.cycles + w
  in
  (* Uncharged assignment of a computed value to a slot. *)
  let assign i cv : frame -> unit =
    if checked then
      let k = force cv in
      fun fr ->
        Array.unsafe_set fr.regs i (k fr);
        Bytes.unsafe_set fr.def i '\001'
    else
      match cv with
      | K v -> fun fr -> Array.unsafe_set fr.regs i v
      | S j ->
        fun fr -> Array.unsafe_set fr.regs i (Array.unsafe_get fr.regs j)
      | F k -> fun fr -> Array.unsafe_set fr.regs i (k fr)
  in
  let set_slot fr i v =
    Array.unsafe_set fr.regs i v;
    if checked then Bytes.unsafe_set fr.def i '\001'
  in
  (* Static routing for a constant address: pick the owning region's bus
     fast path at translation time; anything unusual (PPB, unmapped,
     flash writes) keeps the generic bus path, whose behaviour is the
     reference. *)
  let static_load addr width : unit -> int64 =
    match M.Memmap.classify addr with
    | M.Memmap.Sram when M.Memory.in_range t.bus.M.Bus.sram addr width ->
      fun () -> sram_load t addr width
    | M.Memmap.Code when M.Memory.in_range t.bus.M.Bus.flash addr width ->
      fun () -> routed_load t M.Bus.read_flash addr width
    | M.Memmap.Peripheral | M.Memmap.External_ram | M.Memmap.External_device
    | M.Memmap.Vendor ->
      fun () -> routed_load t M.Bus.read_device addr width
    | M.Memmap.Ppb | M.Memmap.Code | M.Memmap.Sram ->
      fun () -> checked_load t addr width
  in
  let static_store addr width : int64 -> unit =
    match M.Memmap.classify addr with
    | M.Memmap.Sram when M.Memory.in_range t.bus.M.Bus.sram addr width ->
      fun v -> sram_store t addr width v
    | M.Memmap.Peripheral | M.Memmap.External_ram | M.Memmap.External_device
    | M.Memmap.Vendor ->
      fun v -> routed_store t M.Bus.write_device addr width v
    | M.Memmap.Ppb | M.Memmap.Code | M.Memmap.Sram ->
      fun v -> checked_store t addr width v
  in
  (* Argument evaluation, left-to-right like the other engines (visible
     if two faulting arguments would raise different usage faults). *)
  let make_eval_args (cargs : cval list) : frame -> int64 array =
    let kargs = Array.of_list (List.map force cargs) in
    match Array.length kargs with
    | 0 -> fun _fr -> empty_argv
    | 1 ->
      let k0 = kargs.(0) in
      fun fr -> [| k0 fr |]
    | 2 ->
      let k0 = kargs.(0) and k1 = kargs.(1) in
      fun fr ->
        let a0 = k0 fr in
        let a1 = k1 fr in
        [| a0; a1 |]
    | 3 ->
      let k0 = kargs.(0) and k1 = kargs.(1) and k2 = kargs.(2) in
      fun fr ->
        let a0 = k0 fr in
        let a1 = k1 fr in
        let a2 = k2 fr in
        [| a0; a1; a2 |]
    | n ->
      fun fr ->
        let argv = Array.make n 0L in
        for i = 0 to n - 1 do
          Array.unsafe_set argv i ((Array.unsafe_get kargs i) fr)
        done;
        argv
  in
  (* Dispatch a compiled block without the array loop when it collapsed
     to zero or one superblock — inner loop and branch bodies mostly do. *)
  let runner (ks : (frame -> unit) array) : frame -> unit =
    match ks with
    | [||] -> fun _fr -> ()
    | [| k |] -> k
    | ks ->
      fun fr ->
        for i = 0 to Array.length ks - 1 do (Array.unsafe_get ks i) fr done
  in
  let rec cinstr (instr : Instr.t) : cinstr =
    match instr with
    | Instr.Nop -> Cpure ((fun _fr -> ()), 1)
    | Instr.Let (x, e) ->
      let i = slot x in
      let cv, we = cexpr e in
      Cpure (assign i cv, we + 1)
    | Instr.Alloca (x, ty) ->
      let i = slot x in
      let size = (Ty.size_of ty + 7) land lnot 7 in
      Cpure
        ( (fun fr ->
            let sp = c.M.Cpu.sp - size in
            if sp < c.M.Cpu.stack_base then raise (Aborted "stack overflow");
            c.M.Cpu.sp <- sp;
            set_slot fr i (Int64.of_int sp)),
          1 )
    | Instr.Load (x, wd, a) -> (
      let i = slot x in
      let ca, wa = cexpr a in
      let width = Instr.width_bytes wd in
      let w = wa + 1 in
      match ca with
      | K kaddr ->
        let ld = static_load (Int64.to_int kaddr) width in
        Ctail ((fun fr -> set_slot fr i (ld ())), w)
      | ca -> (
        match cint a with
        | Some ki ->
          Ctail
            ( (fun fr ->
                let addr = ki fr in
                let v =
                  if addr >= sram_lo && addr + width <= sram_hi then
                    sram_load t addr width
                  else checked_load t addr width
                in
                set_slot fr i v),
              w )
        | None ->
          let ka = force ca in
          Ctail
            ( (fun fr ->
                let addr = Int64.to_int (ka fr) in
                let v =
                  if addr >= sram_lo && addr + width <= sram_hi then
                    sram_load t addr width
                  else checked_load t addr width
                in
                set_slot fr i v),
              w )))
    | Instr.Store (wd, a, v) -> (
      let ca, wa = cexpr a in
      let cv, wv = cexpr v in
      let width = Instr.width_bytes wd in
      let w = wa + wv + 1 in
      match ca with
      | K kaddr ->
        let st = static_store (Int64.to_int kaddr) width in
        let kv = force cv in
        Ctail ((fun fr -> st (kv fr)), w)
      | ca -> (
        match cint a with
        | Some ki ->
          let kv = force cv in
          Ctail
            ( (fun fr ->
                let addr = ki fr in
                let v = kv fr in
                if addr >= sram_lo && addr + width <= sram_hi then
                  sram_store t addr width v
                else checked_store t addr width v),
              w )
        | None ->
          let ka = force ca in
          let kv = force cv in
          Ctail
            ( (fun fr ->
                let addr = Int64.to_int (ka fr) in
                let v = kv fr in
                if addr >= sram_lo && addr + width <= sram_hi then
                  sram_store t addr width v
                else checked_store t addr width v),
              w )))
    | Instr.Call (dst, callee, args) -> (
      let cargs = List.map cexpr args in
      let wargs = List.fold_left (fun acc (_, w) -> acc + w) 0 cargs in
      let eval_args = make_eval_args (List.map fst cargs) in
      let idst = Option.map slot dst in
      match callee with
      | Instr.Direct fname -> (
        let w = wargs + 1 in
        match Hashtbl.find_opt t.cfuncs fname with
        | None ->
          (* evaluate arguments first, like the other engines, then die *)
          Cfull
            (fun fr ->
              pre w;
              ignore (eval_args fr);
              raise (Aborted ("call to undefined function " ^ fname)))
        | Some callee_cf -> (
          let ct =
            { ct_func = callee_cf;
              ct_addr = t.map.Address_map.func_addr fname;
              ct_entry = Hashtbl.mem t.entries fname }
          in
          match idst with
          | None ->
            Cfull
              (fun fr ->
                pre w;
                ignore (ccall_target t ct (eval_args fr)))
          | Some i ->
            Cfull
              (fun fr ->
                pre w;
                set_slot fr i (ccall_target t ct (eval_args fr)))))
      | Instr.Indirect e ->
        let _, we = cexpr e in
        let ke = cint_or_force e in
        let w = wargs + we + 1 in
        (* one-entry inline cache keyed by the code address; the miss
           path preserves the tree walker's fault order (non-function
           address before arguments, undefined function after) *)
        let cache : (int * ctarget) option ref = ref None in
        Cfull
          (fun fr ->
            pre w;
            let addr = ke fr in
            let ret =
              match !cache with
              | Some (a, ct) when a = addr -> ccall_target t ct (eval_args fr)
              | _ -> (
                match t.map.Address_map.func_of_addr addr with
                | None ->
                  raise
                    (Aborted
                       (Printf.sprintf "indirect call to non-function 0x%08X"
                          addr))
                | Some fname ->
                  let argv = eval_args fr in
                  let ct = cresolve t fname in
                  cache := Some (addr, ct);
                  ccall_target t ct argv)
            in
            match idst with Some i -> set_slot fr i ret | None -> ()))
    | Instr.If (cond, a, b) ->
      let kc, wc = cbool cond in
      let ka = runner (cblock a) in
      let kb = runner (cblock b) in
      let w = wc + 1 in
      Cfull
        (fun fr ->
          pre w;
          if kc fr then ka fr else kb fr)
    | Instr.While (cond, body) ->
      let kc, wc = cbool cond in
      let kb = runner (cblock body) in
      Cfull
        (fun fr ->
          pre 1;
          let rec loop () =
            if t.fuel <= 0 then raise Fuel_exhausted;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wc;
            if kc fr then begin
              kb fr;
              loop ()
            end
          in
          loop ())
    | Instr.Return e ->
      let ke = match e with None -> None | Some e -> Some (cexpr e) in
      let w = match ke with None -> 1 | Some (_, we) -> we + 1 in
      let ke = Option.map (fun (cv, _) -> force cv) ke in
      Cfull
        (fun fr ->
          pre w;
          let v = match ke with None -> 0L | Some k -> k fr in
          raise (Returning v))
    | Instr.Memcpy (d, s, n) ->
      let _, wd = cexpr d in
      let _, ws = cexpr s in
      let _, wn = cexpr n in
      let w = wd + ws + wn + 1 in
      let kd = cint_or_force d and ks = cint_or_force s
      and kn = cint_or_force n in
      Cfull
        (fun fr ->
          pre w;
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
          go 0)
    | Instr.Memset (d, v, n) ->
      let _, wd = cexpr d in
      let kv, wv = cexpr v in
      let _, wn = cexpr n in
      let w = wd + wv + wn + 1 in
      let kd = cint_or_force d
      and kv = force kv
      and kn = cint_or_force n in
      Cfull
        (fun fr ->
          pre w;
          let dst = kd fr in
          let v = kv fr in
          let len = kn fr in
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
          go 0)
    | Instr.Svc n ->
      Cfull
        (fun _fr ->
          pre 1;
          t.handler.on_svc n)
    | Instr.Halt ->
      Cfull
        (fun _fr ->
          pre 1;
          raise Halted)
  (* Group consecutive pure instructions into one superblock closure:
     fast path takes one fuel decrement and one batched charge for the
     whole run; if fuel cannot cover it, the slow path replays the
     tree walker's exact per-instruction sequence so exhaustion
     lands on the same instruction with the same cycle count. *)
  and cblock (block : Instr.block) : (frame -> unit) array =
    let fuse_run (run : ((frame -> unit) * int) list) : frame -> unit =
      match run with
      | [] -> assert false
      | [ (k, w) ] ->
        fun fr ->
          pre w;
          k fr
      | [ (k0, w0); (k1, w1) ] ->
        let wtot = w0 + w1 in
        fun fr ->
          if t.fuel >= 2 then begin
            t.fuel <- t.fuel - 2;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wtot;
            k0 fr;
            k1 fr
          end
          else begin
            pre w0;
            k0 fr;
            pre w1;
            k1 fr
          end
      | [ (k0, w0); (k1, w1); (k2, w2) ] ->
        let wtot = w0 + w1 + w2 in
        fun fr ->
          if t.fuel >= 3 then begin
            t.fuel <- t.fuel - 3;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wtot;
            k0 fr;
            k1 fr;
            k2 fr
          end
          else begin
            pre w0;
            k0 fr;
            pre w1;
            k1 fr;
            pre w2;
            k2 fr
          end
      | run ->
        let ks = Array.of_list (List.map fst run) in
        let ws = Array.of_list (List.map snd run) in
        let n = Array.length ks in
        let wtot = Array.fold_left ( + ) 0 ws in
        fun fr ->
          if t.fuel >= n then begin
            t.fuel <- t.fuel - n;
            c.M.Cpu.cycles <- c.M.Cpu.cycles + wtot;
            for i = 0 to n - 1 do
              (Array.unsafe_get ks i) fr
            done
          end
          else
            for i = 0 to n - 1 do
              if t.fuel <= 0 then raise Fuel_exhausted;
              t.fuel <- t.fuel - 1;
              c.M.Cpu.cycles <- c.M.Cpu.cycles + Array.unsafe_get ws i;
              (Array.unsafe_get ks i) fr
            done
    in
    let flush acc pending =
      match pending with [] -> acc | run -> fuse_run (List.rev run) :: acc
    in
    let rec group acc pending = function
      | [] -> List.rev (flush acc pending)
      | Cpure (k, w) :: rest -> group acc ((k, w) :: pending) rest
      | Ctail (k, w) :: rest ->
        (* the access closes the run: batched charges all precede it *)
        group (fuse_run (List.rev ((k, w) :: pending)) :: acc) [] rest
      | Cfull k :: rest -> group (k :: flush acc pending) [] rest
    in
    Array.of_list (group [] [] (List.map cinstr block))
  in
  let entry =
    match split_tail [] f.Func.body with
    | Some (prefix, ret) when not (block_returns prefix) -> (
      (* the function's only return is in tail position: run the prefix
         and produce the value directly, no [Returning] unwind *)
      let kbody = runner (cblock prefix) in
      match ret with
      | None ->
        fun fr ->
          kbody fr;
          pre 1;
          0L
      | Some e ->
        let cv, we = cexpr e in
        let w = we + 1 in
        let k = force cv in
        fun fr ->
          kbody fr;
          pre w;
          k fr)
    | _ ->
      let kbody = runner (cblock f.Func.body) in
      if block_returns f.Func.body then
        fun fr ->
          (match kbody fr with
          | () -> 0L
          | exception Returning v -> v)
      else
        fun fr ->
          kbody fr;
          0L
  in
  cf.cf_nslots <- !nslots;
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
            cf_nslots = 0;
            cf_nparams = List.length f.Func.params;
            cf_checked = true;
            cf_entry = (fun _fr -> 0L) })
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
