(** Checker registry and linter driver.

    [run] executes every registered checker over a compiled image and
    returns the sorted diagnostics.  Static checkers always run; the
    dynamic trace oracle (L007) needs an execution trace, so it only
    runs when [~dynamic:true], drawing that trace from the optional
    [source]: either a [Live] world to replay on, or a [Recorded]
    baseline trace — typically the compile-once pipeline's memoized
    traced run, which costs no extra execution. *)

(** Produces the board's devices, input already prepared (e.g. an
    application's [make_world] followed by [prepare]). *)
type world = unit -> Opec_machine.Device.t list

(** An already recorded memory-traced baseline run: the vanilla
    layout's address map, the event stream, and the exception that
    ended the run (if any). *)
type recorded = {
  map : Opec_exec.Address_map.t;
  events : Opec_exec.Trace.event list;
  failure : exn option;
}

type source = Live of world | Recorded of recorded

type checker = {
  code : string;       (** stable diagnostic code, ["L001"].. *)
  name : string;       (** short kebab-case name *)
  doc : string;        (** one-line description *)
  dynamic : bool;      (** needs to execute the program *)
  run : source option -> Opec_core.Image.t -> Diag.t list;
}

(** The registry, in code order.  Extend by adding a checker here and a
    row to the README table; codes are never reused. *)
val checkers : checker list

val find_checker : string -> checker option

(** Run the registry over an image; [dynamic] defaults to [false]. *)
val run : ?dynamic:bool -> ?source:source -> Opec_core.Image.t -> Diag.t list

val errors : Diag.t list -> Diag.t list

(** Render a report: one line per diagnostic plus a summary.  Info
    diagnostics are hidden unless [all] is set. *)
val render : ?all:bool -> Format.formatter -> Diag.t list -> unit
