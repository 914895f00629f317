(* Operation partitioning (paper, Section 4.3).

   For each developer-provided entry function, a depth-first traversal of
   the call graph collects the operation's member functions, backtracking
   when it reaches another operation's entry.  The function [main] forms
   the default operation.  Operations may share functions; each
   operation's resource dependency is the merge of its members'. *)

open Opec_ir
module SS = Set.Make (String)
module R = Opec_analysis.Resource
module CG = Opec_analysis.Callgraph

exception Invalid_entry of string

let validate_entry (p : Program.t) name =
  match Program.find_func p name with
  | None -> raise (Invalid_entry (name ^ " is not defined"))
  | Some f ->
    if f.Func.varargs then
      raise (Invalid_entry (name ^ " has variable-length arguments"));
    if f.Func.irq then
      raise (Invalid_entry (name ^ " is within an interrupt handling routine"))

(* Sort peripherals needed by one operation in ascending order of start
   address and merge adjacent ones so one MPU region can protect several
   (Section 4.3).  Merging trades precision for entries, so it only
   applies to backends with a window budget: an unbudgeted backend
   (CHERI) keeps one precise grant per peripheral instead. *)
let merge_peripheral_ranges ?(backend = Opec_machine.Backend.Mpu)
    (p : Program.t) periphs =
  let ranges =
    List.filter_map
      (fun (pe : Peripheral.t) ->
        if SS.mem pe.name periphs then Some (pe.base, Peripheral.limit pe)
        else None)
      p.peripherals
    |> List.sort compare
  in
  let rec merge = function
    | (b1, l1) :: (b2, l2) :: rest when l1 >= b2 ->
      merge ((b1, max l1 l2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  match (Opec_machine.Backend.descriptor backend).Opec_machine.Backend.d_entry_budget with
  | None -> ranges
  | Some _ -> merge ranges

let partition ?backend (p : Program.t) (cg : CG.t) (resources : R.t)
    (input : Dev_input.t) =
  List.iter (validate_entry p) input.Dev_input.entries;
  let entry_set = SS.of_list input.Dev_input.entries in
  let all_entries = SS.add p.main entry_set in
  let make index entry =
    let funcs = CG.reachable_stopping cg ~entry ~stops:all_entries in
    let res = R.of_funcs resources funcs in
    { Operation.index;
      name = (if String.equal entry p.main then "default" else entry);
      entry;
      funcs;
      resources = res;
      periph_ranges = merge_peripheral_ranges ?backend p res.R.peripherals }
  in
  let ops =
    List.mapi (fun i e -> make (i + 1) e) input.Dev_input.entries
  in
  make 0 p.main :: ops

(* Writable globals accessed by two or more operations get shadow copies
   ("external"); those accessed by exactly one live directly in that
   operation's data section ("internal") — Section 4.4. *)
type classification = {
  internal : (string * Operation.t) list;   (** var, owning operation *)
  external_ : string list;
  direct : (string * string list) list;
      (** shared globals granted in place: var, the operations that may
          write it (see {!grant_direct}) *)
  unused : string list;  (** writable globals no operation touches *)
  heap : string list;    (** heap arenas: separate section, never shadowed *)
}

let classify_globals (p : Program.t) ops =
  let internal = ref [] and external_ = ref [] and unused = ref [] in
  let heap = ref [] in
  (* each operation's resource union, computed once rather than once per
     global *)
  let accessible =
    List.map (fun op -> (op, Operation.accessible_globals op)) ops
  in
  let users g =
    List.filter_map
      (fun (op, globals) -> if SS.mem g globals then Some op else None)
      accessible
  in
  List.iter
    (fun (g : Global.t) ->
      if g.heap then heap := g.name :: !heap
      else if not g.const then
        match users g.name with
        | [] -> unused := g.name :: !unused
        | [ op ] -> internal := (g.name, op) :: !internal
        | _ :: _ :: _ -> external_ := g.name :: !external_)
    p.globals;
  { internal = List.rev !internal;
    external_ = List.rev !external_;
    direct = [];
    unused = List.rev !unused;
    heap = List.rev !heap }

(* Shared globals granted in place (DESIGN.md, deviations).  OPEC shadows
   a shared global only because an MPU region cannot grant one variable.
   A backend whose single entry grants the master's exact span needs no
   shadow for a global without pointer fields (a shadow fill localizes
   those) and without a sanitize rule (the check reads the shadow before
   it is published): every operation that may write it gets a write
   grant over the master, and readers use the read-only background.  On
   a budgeted backend each writer must still have a free entry; the
   choice is greedy in declaration order, and all-or-nothing per
   variable. *)
type grant_rule = {
  descriptor : Opec_machine.Backend.descriptor;
  sanitized : SS.t;
  writes : Operation.t -> SS.t;
  master : string -> int;
  free_entries : Operation.t -> int option;
}

let grant_direct rule (p : Program.t) ops cls =
  let globals = Program.global_map p in
  let free = Hashtbl.create 8 in
  List.iter
    (fun (op : Operation.t) -> Hashtbl.replace free op.name (rule.free_entries op))
    ops;
  let has_room (op : Operation.t) =
    match Hashtbl.find free op.name with None -> true | Some n -> n > 0
  in
  let take (op : Operation.t) =
    Hashtbl.replace free op.name (Option.map pred (Hashtbl.find free op.name))
  in
  let eligible v =
    let g = Program.String_map.find v globals in
    Global.pointer_field_offsets g = []
    && (not (SS.mem v rule.sanitized))
    && Opec_machine.Backend.grants_exactly rule.descriptor ~base:(rule.master v)
         ~len:((Global.size g + 3) / 4 * 4)
  in
  let direct, external_ =
    List.partition_map
      (fun v ->
        let writers =
          List.filter
            (fun op ->
              SS.mem v (Operation.accessible_globals op)
              && SS.mem v (rule.writes op))
            ops
        in
        if eligible v && List.for_all has_room writers then begin
          List.iter take writers;
          Either.Left (v, List.map (fun (op : Operation.t) -> op.name) writers)
        end
        else Either.Right v)
      cls.external_
  in
  { cls with external_; direct }

(* Does the operation touch any heap arena? *)
let op_uses_heap (cls : classification) (op : Operation.t) =
  List.exists
    (fun v -> Operation.SS.mem v (Operation.accessible_globals op))
    cls.heap
