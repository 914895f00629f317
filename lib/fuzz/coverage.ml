(* Coverage signal for the guided fuzzer.

   An edge is an (operation, resource-class, outcome) triple distilled
   from artifacts the pipeline already computes:

   - the access-traced baseline: every [Access] event is attributed to
     the operation whose entry function is innermost on the call stack
     at that point, its address resolved through the vanilla layout to
     a concrete global (tagged by kind: word / array / byte buffer /
     rom / struct / heap arena), a peripheral register, or the stack,
     and its direction recorded as the outcome;

   - the protected run's telemetry: switch spans become
     (src, switch:<kind>, dst) edges, and region swaps, MMIO
     emulations, and denials each contribute their own class.

   Two programs that exercise the same operations over the same
   resources in the same directions are equivalent to this map —
   exactly the granularity OPEC's policies are written at (sync sets
   and ACLs are per-global, MPU/emulation decisions per-register) — so
   an input is "interesting" precisely when it stresses a policy
   surface nothing in the corpus has stressed yet. *)

module P = Opec_pipeline.Pipeline
module C = Opec_core
module M = Opec_machine
module Ex = Opec_exec
module Mon = Opec_monitor
module Obs = Opec_obs
open Opec_ir

module SS = Set.Make (String)

type t = SS.t

let empty = SS.empty
let cardinal = SS.cardinal
let union = SS.union

(* Edges of [cand] not already in [base]. *)
let news ~base cand = SS.cardinal (SS.diff cand base)

let edge op cls outcome =
  String.concat "\t" [ op; cls; outcome ]

let edges t =
  List.map
    (fun e ->
      match String.split_on_char '\t' e with
      | [ op; cls; outcome ] -> (op, cls, outcome)
      | _ -> (e, "", ""))
    (SS.elements t)

(* Canonical serialization: sorted edges, one per line.  Two equal maps
   encode byte-identically — the corpus determinism tests rely on it. *)
let encode t = String.concat "" (List.map (fun e -> e ^ "\n") (SS.elements t))

let decode s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> SS.of_list

(* --- resource classification ------------------------------------------- *)

let rec ty_class = function
  | Ty.Word -> "word"
  | Ty.Pointer _ -> "word"
  | Ty.Array (Ty.Byte, _) -> "bytes"
  | Ty.Array (t, _) -> ty_class t ^ "s"
  | Ty.Struct _ -> "struct"
  | Ty.Byte -> "bytes"

(* Policies act on concrete resources, so the class names the global
   (tagged with its kind) rather than lumping kinds together — a mutant
   that routes an operation at a global it never touched is a new edge. *)
let global_class (g : Global.t) =
  let kind =
    if g.Global.const then "rom"
    else if g.Global.heap then "heap"
    else if Global.pointer_field_offsets g <> [] then "struct"
    else ty_class g.Global.ty
  in
  kind ^ ":" ^ g.Global.name

(* --- deriving the map from pipeline artifacts --------------------------- *)

let of_ctx c =
  let img = P.image c in
  let program = img.C.Image.source in
  let default_op = (C.Image.default_op img).C.Operation.name in
  let op_of_entry = Hashtbl.create 8 in
  List.iter
    (fun (op : C.Operation.t) ->
      Hashtbl.replace op_of_entry op.C.Operation.entry op.C.Operation.name)
    img.C.Image.ops;
  let acc = ref SS.empty in
  let put op cls outcome = acc := SS.add (edge op cls outcome) !acc in
  (* the access-traced baseline half *)
  let b = P.baseline_traced c in
  let map = b.P.b_run.Mon.Runner.b_layout.Ex.Vanilla_layout.map in
  let intervals =
    List.filter_map
      (fun (g : Global.t) ->
        match map.Ex.Address_map.global_addr g.Global.name with
        | lo -> Some (lo, lo + Global.size g, global_class g)
        | exception _ -> None)
      program.Program.globals
  in
  let classify addr =
    match
      List.find_map
        (fun (lo, hi, cls) -> if addr >= lo && addr < hi then Some cls else None)
        intervals
    with
    | Some cls -> cls
    | None -> (
      match Peripheral.find program.Program.peripherals addr with
      | Some p ->
        (* per-register, word-granular: the unit MPU windows and MMIO
           emulation decide at *)
        Printf.sprintf "mmio:%s:+0x%x" p.Peripheral.name
          ((addr - p.Peripheral.base) land lnot 3)
      | None -> "stack")
  in
  let stack = ref [] in
  List.iter
    (fun (ev : Ex.Trace.event) ->
      match ev with
      | Ex.Trace.Call f | Ex.Trace.Op_enter f ->
        (match Hashtbl.find_opt op_of_entry f with
        | Some op -> stack := op :: !stack
        | None -> ())
      | Ex.Trace.Return f | Ex.Trace.Op_exit f ->
        (match (Hashtbl.find_opt op_of_entry f, !stack) with
        | Some _, _ :: rest -> stack := rest
        | _ -> ())
      | Ex.Trace.Access { addr; write } ->
        let op = match !stack with op :: _ -> op | [] -> default_op in
        put op (classify addr) (if write then "write" else "read"))
    b.P.b_events;
  (* the protected telemetry half *)
  let p = P.protected_ c in
  let name_or n = if n = "" then "-" else n in
  List.iter
    (fun (ev : Obs.Sink.event) ->
      match ev with
      | Obs.Sink.Switch s ->
        put (name_or s.Obs.Sink.sp_src)
          ("switch:" ^ Obs.Sink.kind_name s.Obs.Sink.sp_kind)
          (name_or s.Obs.Sink.sp_dst)
      | Obs.Sink.Region_swap r -> put (name_or r.rs_op) "mpu-slot" "swap"
      | Obs.Sink.Emulation e ->
        put (name_or e.em_op) "mmio-emulated"
          (if e.em_write then "write" else "read")
      | Obs.Sink.Denial d -> put (name_or d.dn_op) "denial" d.dn_reason
      | Obs.Sink.Svc_switch _ -> ())
    p.P.p_events;
  !acc

(* Standalone coverage of one generated case: compile and run it
   through a private pipeline context and drop the artifacts after.
   Raises whatever compilation or the reference runs raise — callers
   discard such cases. *)
let of_case ?backend program dev_input =
  let app = Gen.app_of program dev_input in
  let c = P.ctx ?backend app in
  match of_ctx c with
  | cov ->
    P.evict c;
    cov
  | exception e ->
    P.evict c;
    raise e
