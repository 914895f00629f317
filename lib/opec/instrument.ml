(* Code instrumentation (paper, Section 4.4).

   External (shared) globals are reached through the variables relocation
   table: every use of [&g] for an external [g] is rewritten to go through
   the table slot — the monitor keeps each slot pointing at the current
   operation's shadow copy.  The table lives in memory that is read-only
   at the unprivileged level, so a compromised operation cannot re-point
   it.

   The slot loads are hoisted to function entry (one load per external the
   function touches), the register-caching a compiler would do: the table
   can only change across an operation switch, and a switch triggered by a
   nested call restores the caller's table before returning, so a cached
   slot value stays valid for the whole activation.

   A function that belongs to exactly one operation runs only while that
   operation is current, so for a read-write external the slot it would
   load holds one value: the operation's shadow (or 0).  With a
   [resolver] the pass emits that address as a constant and drops the
   load (DESIGN.md, deviations).  Read-only mappings keep the table: their
   slot holds the master under the static schedule but the shadow under
   the sync ablations, so no one constant serves every monitor mode.

   The SVC instructions inserted before and after operation entry call
   sites are represented by marking the entry functions in the produced
   image: the interpreter performs the SVC trap protocol at every call to
   a marked function, which is observationally the same control transfer
   (DESIGN.md, deviations). *)

open Opec_ir
module SS = Set.Make (String)

type site = { fn : string; var : string; addr : int }

type stats = {
  reloc_sites : int;
  svc_sites : int;
  resolved : site list;
}

type decision =
  | Resolved of int
  | Not_external
  | Owners of int
  | Read_only of string

type resolver = string -> string -> decision

let resolver ~(layout : Layout.t) ~(ops : Operation.t list)
    ~(metas : (string * Metadata.op_meta) list) ~syncsets : resolver =
  (* function -> its operations, most recent first *)
  let owners = Hashtbl.create 64 in
  List.iter
    (fun (op : Operation.t) ->
      Operation.SS.iter
        (fun f ->
          Hashtbl.replace owners f
            (op :: Option.value (Hashtbl.find_opt owners f) ~default:[]))
        op.Operation.funcs)
    ops;
  let module Ss = Opec_analysis.Syncset in
  fun fn ->
    match Hashtbl.find_opt owners fn with
    | Some [ op ] ->
      let name = op.Operation.name in
      let view =
        lazy
          ( List.assoc_opt name metas,
            try Ss.ro_set syncsets name with Invalid_argument _ -> Ss.SS.empty )
      in
      fun var ->
        if not (Layout.is_external layout var) then Not_external
        else (
          match Lazy.force view with
          | None, _ -> Owners 0
          | Some _, ro when Ss.SS.mem var ro -> Read_only name
          | Some meta, _ -> Resolved (Metadata.reloc_target meta var))
    | Some l ->
      let n = List.length l in
      fun var ->
        if Layout.is_external layout var then Owners n else Not_external
    | None ->
      fun var ->
        if Layout.is_external layout var then Owners 0 else Not_external

(* One pass over the body: every [&g] of an external [g] becomes the
   resolved constant or the function's [$rel_g] temporary, decided once
   per variable.  Unchanged subterms are returned physically, so a
   function without externals costs no allocation. *)
let rewrite_function ~layout ~resolve (f : Func.t) =
  let resolve_var = Option.map (fun r -> r f.Func.name) resolve in
  (* global -> its replacement, [None] for a non-external one *)
  let rewritten = Hashtbl.create 8 in
  let table = ref SS.empty and resolved = ref [] in
  let replacement g =
    match Hashtbl.find_opt rewritten g with
    | Some r -> r
    | None ->
      let r =
        if not (Layout.is_external layout g) then None
        else
          match Option.map (fun r -> r g) resolve_var with
          | Some (Resolved addr) ->
            resolved := { fn = f.Func.name; var = g; addr } :: !resolved;
            Some (Expr.i addr)
          | Some (Not_external | Owners _ | Read_only _) | None ->
            table := SS.add g !table;
            Some (Expr.Local ("$rel_" ^ g))
      in
      Hashtbl.add rewritten g r;
      r
  in
  let rec expr (e : Expr.t) =
    match e with
    | Expr.Global_addr g -> (
      match replacement g with Some r -> r | None -> e)
    | Expr.Const _ | Expr.Local _ | Expr.Func_addr _ -> e
    | Expr.Bin (op, a, b) ->
      let a' = expr a and b' = expr b in
      if a' == a && b' == b then e else Expr.Bin (op, a', b')
    | Expr.Un (op, a) ->
      let a' = expr a in
      if a' == a then e else Expr.Un (op, a')
  in
  let rec exprs l =
    match l with
    | [] -> l
    | e :: rest ->
      let e' = expr e and rest' = exprs rest in
      if e' == e && rest' == rest then l else e' :: rest'
  in
  let rec block b =
    match b with
    | [] -> b
    | i :: rest ->
      let i' = instr i and rest' = block rest in
      if i' == i && rest' == rest then b else i' :: rest'
  and instr (i : Instr.t) =
    match i with
    | Instr.Let (x, e) ->
      let e' = expr e in
      if e' == e then i else Instr.Let (x, e')
    | Instr.Load (x, w, a) ->
      let a' = expr a in
      if a' == a then i else Instr.Load (x, w, a')
    | Instr.Store (w, a, v) ->
      let a' = expr a and v' = expr v in
      if a' == a && v' == v then i else Instr.Store (w, a', v')
    | Instr.Call (dst, callee, args) ->
      let callee' =
        match callee with
        | Instr.Direct _ -> callee
        | Instr.Indirect e ->
          let e' = expr e in
          if e' == e then callee else Instr.Indirect e'
      in
      let args' = exprs args in
      if callee' == callee && args' == args then i
      else Instr.Call (dst, callee', args')
    | Instr.If (c, a, b) ->
      let c' = expr c and a' = block a and b' = block b in
      if c' == c && a' == a && b' == b then i else Instr.If (c', a', b')
    | Instr.While (c, body) ->
      let c' = expr c and body' = block body in
      if c' == c && body' == body then i else Instr.While (c', body')
    | Instr.Return (Some e) ->
      let e' = expr e in
      if e' == e then i else Instr.Return (Some e')
    | Instr.Memcpy (a, b, n) ->
      let a' = expr a and b' = expr b and n' = expr n in
      if a' == a && b' == b && n' == n then i else Instr.Memcpy (a', b', n')
    | Instr.Memset (a, b, n) ->
      let a' = expr a and b' = expr b and n' = expr n in
      if a' == a && b' == b && n' == n then i else Instr.Memset (a', b', n')
    | Instr.Alloca _ | Instr.Return None | Instr.Svc _ | Instr.Halt
    | Instr.Nop -> i
  in
  let body = block f.Func.body in
  let prologue =
    List.filter_map
      (fun g ->
        Option.map
          (fun slot -> Instr.Load ("$rel_" ^ g, Instr.W32, Expr.i slot))
          (Layout.reloc_slot layout g))
      (SS.elements !table)
  in
  let f =
    if body == f.Func.body then f else { f with Func.body = prologue @ body }
  in
  (f, SS.cardinal !table, !resolved)

(* The prologue [rewrite_function] emits: one [$rel_g] load per table
   variable, ahead of the original body. *)
let table_loads (f : Func.t) =
  let rec prologue acc = function
    | Instr.Load (x, Instr.W32, Expr.Const slot) :: rest
      when String.length x > 5 && String.sub x 0 5 = "$rel_" ->
      prologue ((String.sub x 5 (String.length x - 5), Int64.to_int slot) :: acc)
        rest
    | _ -> List.rev acc
  in
  prologue [] f.Func.body

let count_svc_sites (p : Program.t) entries =
  let entry_set = SS.of_list entries in
  List.fold_left
    (fun acc (f : Func.t) ->
      Instr.fold_block
        (fun acc instr ->
          match instr with
          | Instr.Call (_, Instr.Direct g, _) when SS.mem g entry_set ->
            acc + 1
          | _ -> acc)
        acc f.body)
    0 p.funcs

let instrument ?resolve (p : Program.t) (layout : Layout.t) ~entries =
  let loads = ref 0 and resolved = ref [] in
  let funcs =
    List.map
      (fun f ->
        let f, n, sites = rewrite_function ~layout ~resolve f in
        loads := !loads + n;
        resolved := List.rev_append sites !resolved;
        f)
      p.funcs
  in
  let resolved =
    List.sort
      (fun a b -> compare (a.fn, a.var) (b.fn, b.var))
      !resolved
  in
  ( { p with Program.funcs },
    { reloc_sites = !loads; svc_sites = count_svc_sites p entries; resolved } )
