(** The process-wide domain pool: a work-stealing scheduler over
    stdlib [Domain]s.

    [map f xs] applies [f] to every element, dealing the calls across
    per-participant deques and letting idle participants steal half of
    a busy victim's deque, so one slow element cannot idle the rest of
    the pool.  Results come back in input order, so pool-based
    evaluation is deterministic; the first exception raised by [f] (in
    input order) is re-raised in the caller with its backtrace after
    the pool has drained and every helper domain is joined.

    Every parallel consumer in the tree shares this one scheduler: a
    nested [map] from inside a pool worker runs inline on that worker's
    domain instead of spawning a second pool, so stacked parallel
    consumers (a fleet task running an attack campaign, say) can never
    oversubscribe the machine. *)

(** {1 Pool size} *)

val size : unit -> int
(** Default participants per run, caller included (initially the
    recommended domain count minus one, at least 1). *)

val set_size : int -> unit
(** Set the default participant count for subsequent runs ([-j]). *)

val max_used : unit -> int
(** High-water mark of participants any run in this process actually
    used — the truthful value for the bench JSONs' ["domains"]. *)

(** {1 Scheduler events} *)

type event_kind =
  | Enqueued
  | Stolen of int  (** victim participant the unit was taken from *)
  | Started
  | Finished
  | Failed of string  (** [Printexc.to_string] of the unit's exception *)

type event = {
  ev_unit : int;  (** index of the unit in the submitted list *)
  ev_domain : int;  (** participant id; 0 is the calling domain *)
  ev_kind : event_kind;
  ev_ns : int64;  (** nanoseconds since the run began *)
}

(** {1 Parallel evaluation} *)

val map :
  ?domains:int -> ?on_event:(event -> unit) -> ('a -> 'b) -> 'a list -> 'b list

val map_result :
  ?domains:int ->
  ?on_event:(event -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn) result list
(** Like {!map}, but a raising element becomes [Error] in its own slot
    instead of failing the run — the fleet scheduler's entry point,
    where task failures belong in the report. *)

(** {1 Introspection (tests)} *)

val live_peak_reset : unit -> unit
val live_peak_value : unit -> int
(** Peak number of simultaneously live pool participants since the
    last reset — the no-oversubscription regression probe. *)
