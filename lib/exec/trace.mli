(** Execution trace at function granularity — the stand-in for the
    paper's GDB single-stepping (Section 6.4). *)

type event =
  | Call of string      (** function entered *)
  | Return of string    (** function returned *)
  | Op_enter of string  (** operation switch: entering an entry function *)
  | Op_exit of string   (** operation switch: leaving an entry function *)
  | Access of { addr : int; write : bool }
      (** one MPU-visible memory access (recorded only when {!t.mem} is
          set) — the raw material of the lint trace-oracle *)

type t = {
  mutable rev_events : event list;
      (** reverse emission order — internal; mutate only through
          {!record}/{!clear} or the {!events} cache goes stale *)
  mutable fwd_cache : event list option;
      (** memoized execution-order view — internal *)
  mutable enabled : bool;
  mutable mem : bool;  (** also record individual memory accesses *)
}

val create : unit -> t
val record : t -> event -> unit

(** [record] of a [Call], [Return], [Op_enter] or [Op_exit] event,
    allocating nothing when tracing is off. *)
val call : t -> string -> unit

val return : t -> string -> unit
val op_enter : t -> string -> unit
val op_exit : t -> string -> unit

(** Record a memory access; a no-op unless both [enabled] and [mem] are
    set, so function-granularity tracing stays cheap. *)
val record_access : t -> addr:int -> write:bool -> unit

(** Events in execution order.  The reversed view is computed once per
    burst of records and cached until the next {!record} or {!clear},
    so repeated consumers pay O(1) after the first call. *)
val events : t -> event list

val clear : t -> unit

(** Functions executed anywhere in the trace, sorted and deduplicated. *)
val executed_functions : t -> string list

(** Segment the trace into task instances: each call to a function in
    [entries] opens a task that spans until the matching return.
    Returns [(entry, executed functions)] per instance; tasks still open
    at the end of the run (e.g. the main loop) are included. *)
val tasks : entries:string list -> t -> (string * string list) list

(** {!tasks} over an already-captured event list in execution order —
    avoids re-copying a trace that was already drained out of the
    interpreter (e.g. the pipeline's memoized [b_events]). *)
val tasks_of :
  entries:string list -> event list -> (string * string list) list

(** Per-global write observation over a mem-traced event stream:
    attribute each recorded write to the innermost active context
    (functions matching [contexts] push on call and pop on return;
    [default] applies outside all of them) and resolve its address to a
    named region with [resolve].  Returns the distinct
    [(context, region)] pairs in first-observation order — the dynamic
    ground truth the sync-schedule soundness oracle (lint L011, fuzz
    sync-soundness) compares against the static may-write sets. *)
val writes_by_context :
  contexts:(string -> bool) ->
  default:string ->
  resolve:(int -> string option) ->
  event list ->
  (string * string) list

val pp_event : Format.formatter -> event -> unit
