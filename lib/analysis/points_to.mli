(** Inclusion-based (Andersen-style) points-to analysis — the stand-in
    for SVF (Section 4.1).

    Field- and flow-insensitive, with an on-the-fly call graph: an
    indirect call site gets its parameter/return copy edges the moment
    its callee set gains a function.  Sound and over-approximate, the
    property the paper depends on.  Constant MMIO addresses are modeled
    as peripheral objects, so datasheet identification of peripheral
    accesses falls out of the same propagation.

    Nodes are interned to dense ids while constraints are generated, and
    the solver is a worklist with difference propagation over bitsets of
    object ids.  Objects [0, n_globals) are the program's globals in
    declaration order. *)

open Opec_ir

type icall_site = {
  ic_func : string;   (** function containing the indirect call *)
  ic_index : int;
  ic_node : int;      (** the callee expression's set (-1: empty) *)
  ic_arity : int;
}

type t

(** A function's interned locals, for id queries over its
    expressions. *)
type scope

(** Solve the whole program. *)
val solve : Program.t -> t

(** Worklist pops the solver took to reach the fixpoint. *)
val pops : t -> int

(** Function targets the analysis found for one indirect call site,
    sorted. *)
val icall_targets : t -> icall_site -> string list

val icall_sites : t -> icall_site list

(** Every non-empty points-to set as (node, sorted members), sorted by
    node, in {!Node.to_string} spelling. *)
val bindings : t -> (string * string list) list

(** Objects a local may point to. *)
val points_to : t -> func:string -> local:string -> Node.t list

(** Function objects a local may point to, sorted. *)
val local_funcs : t -> func:string -> local:string -> string list

(** {1 Queries by id} *)

(** Number of global objects (declared globals, then any undeclared
    name the program mentions). *)
val n_globals : t -> int

val global_name : t -> int -> string

(** Every global's name, indexed by id (shared: do not mutate). *)
val global_names : t -> string array

(** A global's id, -1 for a name that is not a global. *)
val global_id : t -> string -> int

(** The descriptor of an object id. *)
val object_desc : t -> int -> Node.t

(** A function's locals ([None] when the program never names it). *)
val scope : t -> string -> scope option

(** [iter_expr t scope e ~direct ~indirect] calls [direct o] for every
    object [o] the expression [e] names (a global, a function, a
    peripheral window) and [indirect o] for every object in the
    points-to set of a local it reads. *)
val iter_expr :
  t -> scope option -> Expr.t -> direct:(int -> unit) -> indirect:(int -> unit) -> unit

(** Locals are numbered densely per function, in the order the
    constraints first name them; every local the function assigns is
    named. *)
val n_locals : scope option -> int

(** A local's index, -1 when the constraints never named it. *)
val local_index : t -> scope option -> string -> int


(** [add_expr_globals t scope e dst] adds to [dst], a bitset over global
    ids, every global the expression [e] may point into. *)
val add_expr_globals : t -> scope option -> Expr.t -> Bits.t -> unit

(** [periph_globals t name dst] adds to [dst] every global whose address
    was stored into the named peripheral window. *)
val periph_globals : t -> string -> Bits.t -> unit
