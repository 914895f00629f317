(* Per-function resource dependency analysis (paper, Section 4.2):
   which global variables (directly and through pointers) and which
   peripherals each function may access. *)

open Opec_ir
module SS = Set.Make (String)

type func_resources = {
  direct_globals : SS.t;
  indirect_globals : SS.t;   (** via the points-to analysis *)
  peripherals : SS.t;        (** general peripherals, by datasheet name *)
  core_peripherals : SS.t;   (** peripherals on the PPB *)
}

let empty =
  { direct_globals = SS.empty;
    indirect_globals = SS.empty;
    peripherals = SS.empty;
    core_peripherals = SS.empty }

let globals r = SS.union r.direct_globals r.indirect_globals

let union a b =
  { direct_globals = SS.union a.direct_globals b.direct_globals;
    indirect_globals = SS.union a.indirect_globals b.indirect_globals;
    peripherals = SS.union a.peripherals b.peripherals;
    core_peripherals = SS.union a.core_peripherals b.core_peripherals }

type t = (string, func_resources) Hashtbl.t

let classify_periph datasheet acc name =
  match List.find_opt (fun (p : Peripheral.t) -> String.equal p.name name) datasheet with
  | Some p when p.core -> { acc with core_peripherals = SS.add name acc.core_peripherals }
  | Some _ -> { acc with peripherals = SS.add name acc.peripherals }
  | None -> acc

(* Address-taken globals.  A [Global_addr] in value position (bound,
   stored, passed or returned) escapes the function that forms it: at
   run time the operation resolves the address through its relocation
   slot, which is NULL unless the variable is in the operation's
   resources.  So taking an address is itself a dependency, even when
   the taker never dereferences it — the dereferencing functions are
   found separately through the points-to sets. *)
let rec taken take (e : Expr.t) =
  match e with
  | Expr.Global_addr g -> take g
  | Expr.Bin (_, a, b) -> taken take a; taken take b
  | Expr.Un (_, a) -> taken take a
  | Expr.Const _ | Expr.Local _ | Expr.Func_addr _ -> ()

(* Globals are gathered as bitsets over the points-to analysis's global
   ids and named once per function. *)
let analyze_function (p : Program.t) pts (f : Func.t) =
  let sc = Points_to.scope pts f.name in
  let ng = Points_to.n_globals pts in
  let direct = Bits.create ng and indirect = Bits.create ng in
  let acc = ref empty in
  let periph o =
    match Points_to.object_desc pts o with
    | Node.Periph pr -> acc := classify_periph p.peripherals !acc pr
    | _ -> ()
  in
  let on_direct o = if o < ng then Bits.add direct o else periph o in
  let on_indirect o = if o < ng then Bits.add indirect o else periph o in
  (* resources reachable from an address expression *)
  let access e = Points_to.iter_expr pts sc e ~direct:on_direct ~indirect:on_indirect in
  let take g =
    let i = Points_to.global_id pts g in
    if i >= 0 then Bits.add direct i
    else acc := { !acc with direct_globals = SS.add g !acc.direct_globals }
  in
  let taken = taken take in
  Instr.iter_block
    (fun instr ->
      match instr with
      | Instr.Let (_, e) -> taken e
      | Instr.Load (_, _, a) ->
        access a;
        taken a
      | Instr.Store (_, a, v) ->
        access a;
        taken a;
        taken v
      | Instr.Call (_, callee, args) ->
        (match callee with Instr.Indirect e -> taken e | Instr.Direct _ -> ());
        List.iter taken args
      | Instr.If (c, _, _) | Instr.While (c, _) -> taken c
      | Instr.Return (Some e) -> taken e
      | Instr.Memcpy (d, s, n) ->
        access d;
        access s;
        taken d;
        taken s;
        taken n
      | Instr.Memset (d, v, n) ->
        access d;
        taken d;
        taken v;
        taken n
      | Instr.Alloca _ | Instr.Return None | Instr.Svc _ | Instr.Halt
      | Instr.Nop -> ())
    f.body;
  let names bits init =
    Bits.fold (fun i s -> SS.add (Points_to.global_name pts i) s) bits init
  in
  { !acc with
    direct_globals = names direct !acc.direct_globals;
    indirect_globals = names indirect SS.empty }

let analyze (p : Program.t) pts : t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace tbl f.name (analyze_function p pts f))
    p.funcs;
  tbl

let of_func (t : t) name = Option.value (Hashtbl.find_opt t name) ~default:empty

(* Merged resources of a set of functions — the resource dependency of an
   operation or an ACES compartment. *)
let of_funcs (t : t) names =
  SS.fold (fun f acc -> union acc (of_func t f)) names empty
