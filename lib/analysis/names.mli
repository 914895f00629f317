(** Hash tables from names to non-negative ints (open addressing, no
    allocation on lookup).  A key may carry an int tag, such as the id
    of the function a local belongs to; plain keys have tag 0. *)

type t

(** A table sized for about [n] names. *)
val create : int -> t

(** The value bound to a name, -1 when unbound. *)
val find : t -> string -> int

(** Bind a name, replacing any earlier binding.  The value must be
    non-negative. *)
val replace : t -> string -> int -> unit

(** {!find} and {!replace} for a tagged name. *)

val find_in : t -> int -> string -> int
val replace_in : t -> int -> string -> int -> unit

(** Replace every bound value [v] by [f v] (which must be non-negative). *)
val map : t -> (int -> int) -> unit
