(** Operation partitioning (Section 4.3): DFS from each entry function
    with backtracking at other entries; [main] forms the default
    operation; operations may share functions. *)

open Opec_ir

exception Invalid_entry of string

(** Entries must exist and be neither variadic nor interrupt handlers. *)
val validate_entry : Program.t -> string -> unit

(** Sort an operation's needed peripherals by start address and merge
    adjacent ranges so one protection window can cover several.  An
    unbudgeted backend (CHERI) skips the merge and keeps one precise
    range per peripheral. *)
val merge_peripheral_ranges :
  ?backend:Opec_machine.Backend.kind ->
  Program.t ->
  Opec_analysis.Resource.SS.t ->
  (int * int) list

(** Form the operation list (default operation first). *)
val partition :
  ?backend:Opec_machine.Backend.kind ->
  Program.t ->
  Opec_analysis.Callgraph.t ->
  Opec_analysis.Resource.t ->
  Dev_input.t ->
  Operation.t list

(** Writable globals accessed by one operation are internal to it; by
    two or more, external (shadow-copied) or, after {!grant_direct},
    direct (granted in place); by none, unused. *)
type classification = {
  internal : (string * Operation.t) list;
  external_ : string list;
  direct : (string * string list) list;
      (** shared globals granted in place, with the operations that may
          write them; always [[]] from {!classify_globals} *)
  unused : string list;
  heap : string list;  (** heap arenas: separate section, never shadowed *)
}

val classify_globals : Program.t -> Operation.t list -> classification

(** What {!grant_direct} needs to know about the backend and the
    program. *)
type grant_rule = {
  descriptor : Opec_machine.Backend.descriptor;
  sanitized : Set.Make(String).t;  (** globals with a sanitize rule *)
  writes : Operation.t -> Set.Make(String).t;
      (** the operation's may-write set *)
  master : string -> int;  (** a shared global's master address *)
  free_entries : Operation.t -> int option;
      (** protection entries the paper's plan leaves free; [None] when
          the backend has no budget *)
}

(** Move to [direct] every shared global, in declaration order, that has
    no pointer field and no sanitize rule, whose master span (rounded up
    to a word) the backend grants exactly
    ({!Opec_machine.Backend.grants_exactly}), and whose every writer
    still has a free entry; each writer's free count drops by one.  The
    rest stay external. *)
val grant_direct :
  grant_rule -> Program.t -> Operation.t list -> classification ->
  classification

(** Does the operation's resource dependency include a heap arena?  Such
    operations get the heap section mapped read-write (Section 5.2). *)
val op_uses_heap : classification -> Operation.t -> bool
