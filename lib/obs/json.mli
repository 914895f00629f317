(** JSON documents: a value type, one compact printer and one strict
    parser.  Every JSON document the tree writes or reads goes through
    this module. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in print order *)

(** Compact RFC 8259 text: no whitespace, members in list order.  Valid
    for any string bytes: quote and backslash are backslash-escaped,
    control bytes become [\u00XX], valid UTF-8 passes through, and each
    byte of an invalid UTF-8 sequence becomes [\u00XX].  Floats take
    their shortest round-trip form (always with a [.] or an exponent);
    non-finite floats print as [null]. *)
val to_string : t -> string

(** Parse exactly one RFC 8259 document, surrounding whitespace
    allowed.  Strings must be valid UTF-8 with no raw control bytes;
    numbers follow the RFC grammar and read as [Int] when they have no
    fraction or exponent and fit an [int], as [Float] otherwise.  The
    error names the fault and its byte offset. *)
val parse : string -> (t, string) result
