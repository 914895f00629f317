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
    two or more, external (shadow-copied); by none, unused. *)
type classification = {
  internal : (string * Operation.t) list;
  external_ : string list;
  unused : string list;
  heap : string list;  (** heap arenas: separate section, never shadowed *)
}

val classify_globals : Program.t -> Operation.t list -> classification

(** Does the operation's resource dependency include a heap arena?  Such
    operations get the heap section mapped read-write (Section 5.2). *)
val op_uses_heap : classification -> Operation.t -> bool
