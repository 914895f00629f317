(** Fixed-width bitsets over dense ids, 63 ids per native int word.
    Binary operations take operands of the same width. *)

type t = int array

(** Ids per word. *)
val bpw : int

(** Words needed for [n] ids. *)
val words : int -> int

(** The empty set over ids [0, n). *)
val create : int -> t

val copy : t -> t
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val is_empty : t -> bool
val equal : t -> t -> bool

(** In-place [dst := dst op src]. *)
val union_into : dst:t -> t -> unit

val inter_into : dst:t -> t -> unit
val diff_into : dst:t -> t -> unit
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [iter_word f w i] calls [f], in increasing order, on the members of
    the word [w] whose low bit stands for id [i]. *)
val iter_word : (int -> unit) -> int -> int -> unit

(** Members in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
