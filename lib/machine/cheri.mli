(** CHERI-style capability protection (CompartOS model): per-compartment
    capability tables with byte-granular bounds, no entry budget, and
    bounds-precision (compressed-capability representability) as the
    only constraint. *)

type cap = {
  cap_base : int;
  cap_len : int;
  cap_r : bool;
  cap_w : bool;
  cap_x : bool;
}

(** The capability table, read-only outside this module: every change
    goes through {!clear}, {!add}, {!grant}, {!enable} or {!restore},
    which keep [dec] (the enable bit and the decision memo) in step. *)
type t = private { mutable caps : cap list; dec : Decision.t }

exception Invalid_cap of string

val mantissa_bits : int

val log2_ceil : int -> int

val representable_align : int -> int
(** Alignment base and length of a capability of the given length must
    satisfy under the compressed (CHERI-concentrate) encoding. *)

val representable : base:int -> len:int -> bool

val round_bounds : base:int -> len:int -> int * int
(** Smallest representable [(base, len)] containing the request. *)

val create : unit -> t

val cap : ?r:bool -> ?w:bool -> ?x:bool -> base:int -> len:int -> unit -> cap
(** @raise Invalid_cap on empty or unrepresentable bounds. *)

val clear : t -> unit
val add : t -> cap -> unit
val grant : t -> cap list -> unit
val enable : t -> unit
val caps : t -> cap list
val cap_count : t -> int
val cap_matches : cap -> int -> bool

(** Reinstate a saved table (as from {!caps}) and the decision captured
    with it. *)
val restore : t -> cap list -> Decision.image -> unit

(** The six permission bits of [addr]'s block (see {!Decision}). *)
val block_bits : t -> int -> int

val pp_cap : Format.formatter -> cap -> unit
val pp : Format.formatter -> t -> unit
