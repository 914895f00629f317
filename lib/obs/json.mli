(** JSON string escaping, the one escaper every JSON writer in the tree
    uses.  Output is a valid RFC 8259 string body for any input bytes:
    quote and backslash are backslash-escaped, control bytes become
    [\u00XX], valid UTF-8 passes through, and each byte of an invalid
    UTF-8 sequence becomes [\u00XX]. *)

(** Append the escaped body of [s] (no surrounding quotes). *)
val add_escaped : Buffer.t -> string -> unit

(** The escaped body of [s] (no surrounding quotes). *)
val escape : string -> string

(** [s] as a complete JSON string literal, quotes included. *)
val quote : string -> string
