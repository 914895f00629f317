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

(** A compartment's capability table, never changed once built. *)
type t = private { caps : cap list }

exception Invalid_cap of string

val mantissa_bits : int

val log2_ceil : int -> int

val representable_align : int -> int
(** Alignment base and length of a capability of the given length must
    satisfy under the compressed (CHERI-concentrate) encoding. *)

val representable : base:int -> len:int -> bool

val round_bounds : base:int -> len:int -> int * int
(** Smallest representable [(base, len)] containing the request. *)

val cap : ?r:bool -> ?w:bool -> ?x:bool -> base:int -> len:int -> unit -> cap
(** @raise Invalid_cap on empty or unrepresentable bounds. *)

val make : cap list -> t

val cap_matches : cap -> int -> bool

(** The six permission bits of [addr]'s block (see {!Backend}). *)
val block_bits : t -> int -> int

val pp_cap : Format.formatter -> cap -> unit

(** [on] is the enable bit, which the state beside the table holds. *)
val pp : on:bool -> Format.formatter -> t -> unit
