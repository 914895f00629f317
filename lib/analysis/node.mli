(** Abstract memory objects and pointer variables of the points-to
    analysis.  The solver works on interned integer ids; a descriptor
    names a node for printing and name-based queries. *)

type t =
  | Global of string
  | Func of string
  | Stack of string * string        (** function, alloca'd local *)
  | Periph of string                (** a peripheral window, seeded from
                                        constant MMIO addresses *)
  | Local of string * string        (** function, local *)
  | Param of string * int           (** function, parameter position *)
  | Temp of string * string * int   (** function, ["$store"]/["$cpy"],
                                        counter: a synthetic copy node *)
  | Ret of string
  | Icall of string * int           (** the callee expression of an
                                        indirect call site (function,
                                        site index) *)
  | Icall_arg of string * int * int (** an argument of that site *)
  | Icall_ret of string * int       (** its returned value *)

(** The tagged-string spelling: ["G:g"], ["F:f"], ["S:f::x"], ["P:p"],
    ["L:f::x"], ["L:f::$param0"], ["R:f"], ["I:f#0"], ["I:f#0$arg1"],
    ["I:f#0$ret"]. *)
val to_string : t -> string

(** Globals, functions, stack slots, and peripherals are objects; locals
    and return nodes are pointer variables. *)
val is_object : t -> bool
