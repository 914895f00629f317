(** The access-decision memo every enforcement backend shares: six
    permission bits per aligned block, direct-mapped, retired by a
    stamp.  Each backend state owns one; the bus looks decisions up in
    the active backend's.  decision.ml states the stamp invariant. *)

(** [on] is the enable bit, [shift] the log2 of the block grain (at most
    5); an entry of [memo] counts only while its stamp is [stamp]. *)
type t = private {
  mutable on : bool;
  mutable stamp : int;
  mutable shift : int;
  mutable memo : int array;
}

(** A captured decision: enable bit, stamp, grain and memo table. *)
type image

val entries : int
val max_shift : int

(** Off, on a fresh stamp, at the 32-byte grain. *)
val create : unit -> t

val set_on : t -> bool -> unit

(** [narrow shift x] lowers [shift] until [2{^shift}] divides [x]. *)
val narrow : int -> int -> int

(** After an in-place change: a stamp no image holds, and the grain. *)
val changed : t -> int -> unit

(** For an image of the current registers; the live state moves onto
    the image's new table. *)
val capture : t -> image

(** Hand an image's decision back in O(1); the caller reinstates the
    image's registers. *)
val restore : t -> image -> unit

(** The memo slot of [addr]'s block. *)
val slot : t -> int -> int
