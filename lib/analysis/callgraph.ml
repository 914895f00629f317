(* Whole-program call graph with resolved indirect-call edges (paper,
   Section 4.1), plus the traversals the operation partitioning needs. *)

open Opec_ir
module SS = Set.Make (String)

type icall_info = {
  site_func : string;           (** function containing the icall *)
  resolved_by : [ `Points_to | `Types | `Unresolved ];
  targets : string list;
}

type t = {
  direct : (string, SS.t) Hashtbl.t;   (** caller -> direct callees *)
  indirect : (string, SS.t) Hashtbl.t; (** caller -> icall targets *)
  icalls : icall_info list;
}

let add_edge tbl caller callee =
  let cur = Option.value (Hashtbl.find_opt tbl caller) ~default:SS.empty in
  Hashtbl.replace tbl caller (SS.add callee cur)

let build (p : Program.t) (pts : Points_to.t) =
  let direct = Hashtbl.create 64 in
  let indirect = Hashtbl.create 64 in
  List.iter
    (fun (f : Func.t) ->
      Instr.iter_block
        (fun instr ->
          match instr with
          | Instr.Call (_, Instr.Direct g, _) -> add_edge direct f.name g
          | Instr.Call (_, Instr.Indirect _, _)
          | Instr.Let _ | Instr.Load _ | Instr.Store _ | Instr.Alloca _
          | Instr.If _ | Instr.While _ | Instr.Return _ | Instr.Memcpy _
          | Instr.Memset _ | Instr.Svc _ | Instr.Halt | Instr.Nop -> ())
        f.body)
    p.funcs;
  (* indirect edges: points-to first, type-based analysis as fallback *)
  let icalls =
    List.map
      (fun (site : Points_to.icall_site) ->
        let targets = Points_to.icall_targets pts site in
        let resolved_by, targets =
          if targets <> [] then (`Points_to, targets)
          else
            match Type_resolve.candidates p ~arity:site.ic_arity with
            | [] -> (`Unresolved, [])
            | cands -> (`Types, cands)
        in
        List.iter (fun g -> add_edge indirect site.ic_func g) targets;
        { site_func = site.ic_func; resolved_by; targets })
      (Points_to.icall_sites pts)
  in
  { direct; indirect; icalls }

let callees t f =
  SS.union
    (Option.value (Hashtbl.find_opt t.direct f) ~default:SS.empty)
    (Option.value (Hashtbl.find_opt t.indirect f) ~default:SS.empty)

(* All functions reachable from [entry] (inclusive). *)
let reachable t entry =
  let rec go visited f =
    if SS.mem f visited then visited
    else SS.fold (fun g acc -> go acc g) (callees t f) (SS.add f visited)
  in
  go SS.empty entry

(* DFS from [entry], backtracking when reaching any function in [stops]
   other than the entry itself — the operation membership rule of
   Section 4.3. *)
let reachable_stopping t ~entry ~stops =
  let stops = SS.remove entry stops in
  let rec go visited f =
    if SS.mem f visited || SS.mem f stops then visited
    else SS.fold (fun g acc -> go acc g) (callees t f) (SS.add f visited)
  in
  go SS.empty entry
