(** Per-operation aggregation over a telemetry stream: switch-latency
    histograms, a source→destination switch matrix, and per-phase cycle
    and byte totals (paper, Section 6.3). *)

val hist_buckets : int

(** Power-of-two latency histogram: bucket [i] counts spans costing
    [2{^i} .. 2{^i+1}-1] cycles. *)
type hist = {
  buckets : int array;
  mutable samples : int;
  mutable total : int;
  mutable min : int;
  mutable max : int;
}

val hist_create : unit -> hist

(** Record one sample. *)
val hist_add : hist -> int -> unit

val hist_mean : hist -> float

(** [hist_percentile h q] estimates the [q]-quantile ([0. .. 1.], e.g.
    [0.99] for p99) of the samples: the power-of-two bucket holding the
    q-th sample, interpolated linearly inside the bucket and clamped to
    the observed [min]/[max].  [0L] on an empty histogram. *)
val hist_percentile : hist -> float -> int64

type phase_total = {
  mutable pt_cycles : int;
  mutable pt_bytes : int;
  mutable pt_samples : int;
}

val phase_index : Sink.phase -> int
val phase_of_index : int -> Sink.phase
val n_phases : int

type op_agg = {
  op_name : string;
  mutable enters : int;
  mutable exits : int;
  mutable threads : int;
  op_latency : hist;
  op_phases : phase_total array;  (** indexed by {!phase_index} *)
  mutable op_synced_bytes : int;
  mutable op_swaps : int;
  mutable op_emulations : int;
  mutable op_denials : int;
}

(** A table keyed by operation name.  Lookups try physical equality
    first (the monitor passes each operation's one interned name), then
    [String.equal], then a hash table; equal names always find the same
    entry. *)
type 'a names

type t = {
  ops : op_agg names;
  matrix : int ref names names;  (** src -> dst -> count; see {!matrix_rows} *)
  all_latency : hist;
  totals : phase_total array;
  mutable switch_spans : int;   (** Enter + Exit + Thread spans *)
  mutable init_spans : int;
  mutable swap_events : int;
  mutable emulation_events : int;
  mutable denial_events : int;
  mutable svc_marks : int;
  mutable switch_cycles : int;
  mutable init_cycles : int64;  (** boxed on update, but one Init span per run *)
  mutable synced_bytes : int;
}

val create : unit -> t
val add : t -> Sink.event -> unit
val of_events : Sink.event list -> t

(** Total telemetry events consumed (spans + swaps + emulations +
    denials + SVC marks). *)
val event_count : t -> int

(** Cycles spent in monitor spans of any kind (switches + init). *)
val monitor_cycles : t -> int64

val phase_cycles : t -> Sink.phase -> int64
val phase_bytes : t -> Sink.phase -> int

(** Operations sorted by total switch cycles spent on their behalf,
    descending (ties by name). *)
val ops_by_cost : t -> op_agg list

(** [(src, dst, count)] rows of the switch matrix, sorted. *)
val matrix_rows : t -> (string * string * int) list
