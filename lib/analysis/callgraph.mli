(** Whole-program call graph with resolved indirect-call edges and the
    traversals operation partitioning needs (Sections 4.1, 4.3). *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

type icall_info = {
  site_func : string;  (** function containing the icall *)
  resolved_by : [ `Points_to | `Types | `Unresolved ];
  targets : string list;
}

type t = {
  direct : (string, SS.t) Hashtbl.t;    (** caller -> direct callees *)
  indirect : (string, SS.t) Hashtbl.t;  (** caller -> icall targets *)
  icalls : icall_info list;             (** Table 3's rows *)
}

(** Build the graph: direct edges from call sites, indirect edges from
    the points-to analysis with the type-based fallback for unresolved
    sites. *)
val build : Opec_ir.Program.t -> Points_to.t -> t

val callees : t -> string -> SS.t

(** All functions reachable from [entry], inclusive. *)
val reachable : t -> string -> SS.t

(** DFS from [entry], backtracking at any function in [stops] other than
    the entry itself — the operation membership rule of Section 4.3. *)
val reachable_stopping : t -> entry:string -> stops:SS.t -> SS.t
