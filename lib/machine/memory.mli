(** Flat little-endian byte memories for flash and SRAM. *)

type t

(** [size] zeroed bytes at [base]. *)
val create : base:int -> size:int -> t

(** The same span, backed only by the bytes written so far: it grows on
    write, and unwritten bytes read as 0. *)
val grown : base:int -> size:int -> t

val size : t -> int
val limit : t -> int
val contains : t -> int -> bool
val in_range : t -> int -> int -> bool

(** [read t addr bytes] / [write t addr bytes v]: little-endian accesses
    of 1..8 bytes; out-of-range accesses raise {!Fault.Bus}. *)
val read : t -> int -> int -> int64

val write : t -> int -> int -> int64 -> unit

(** Range-check-free 1- or 4-byte accesses carrying the value as a
    native int, so a word access boxes nothing: for callers that have
    already established {!in_range} (the bus region fast paths) on a
    memory made by {!create}.  Out-of-range addresses and other widths
    are undefined behaviour — never call these on an unvalidated
    address. *)
val get_unchecked : t -> int -> int -> int

(** {!get_unchecked} for any memory, {!grown} ones included: the caller
    still establishes {!in_range}. *)
val get : t -> int -> int -> int

val set_unchecked : t -> int -> int -> int -> unit

(** [blit_out t addr len]: a copy of [len] bytes from [addr], for tests. *)
val blit_out : t -> int -> int -> Bytes.t
