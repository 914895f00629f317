(** Structured diagnostics for the policy-verification linter.

    Every finding carries a stable code (["L001"]..), a severity, a
    location in the artifact being checked (a function, an operation, an
    MPU region slot, ...), and a human-readable message.  Codes are part
    of the tool's contract: tests and CI match on them, so a checker
    never changes its code once shipped. *)

type severity = Error | Warning | Info

type loc =
  | Program                                  (** the whole image *)
  | Function of string
  | Operation of string
  | Icall of { func : string; index : int }  (** indirect call site *)
  | Region of { op : string; slot : string } (** MPU region of an operation *)
  | Address of int                           (** a raw address (trace oracle) *)

type t = { code : string; severity : severity; loc : loc; message : string }

val v : code:string -> severity -> loc -> string -> t

(** [vf ~code sev loc fmt ...] formats the message in place. *)
val vf :
  code:string -> severity -> loc -> ('a, Format.formatter, unit, t) format4 -> 'a

val is_error : t -> bool

(** Orders by severity (errors first), then code, then location. *)
val compare : t -> t -> int

val pp_severity : Format.formatter -> severity -> unit
val pp_loc : Format.formatter -> loc -> unit

(** One line: [L003 error [operation lock/region P4] message]. *)
val pp : Format.formatter -> t -> unit

(** One diagnostic as a JSON object. *)
val to_json : t -> Opec_obs.Json.t
