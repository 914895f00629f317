(** Traffic-driven load scenarios: server-shaped drivers pushing
    sustained event streams through a protected image, reporting the
    operation-switch latency distribution (mean / p50 / p99 / p999)
    per enforcement backend.  Telemetry streams into an
    {!Opec_obs.Agg}, so memory stays constant at any event count. *)

type kind =
  | Request_storm     (** request/response stream, one op crossing each *)
  | Sensor_burst      (** sample bursts with a flush op at boundaries *)
  | Interrupt_preempt (** preemptive thread switches between two ops *)
  | Tcp_echo_slice    (** the bundled TCP-Echo app under scaled traffic *)

val all : kind list
val name : kind -> string
val of_name : string -> kind option

type result = {
  r_scenario : string;
  r_backend : string;
  r_stimuli : int;        (** injected requests / samples / yields / frames *)
  r_telemetry : int;      (** monitor telemetry events consumed by the sink *)
  r_events : int;         (** stimuli + telemetry: the run's event total *)
  r_switch_spans : int;
  r_cycles : int64;       (** guest cycles executed *)
  r_wall_s : float;
  r_p50 : int64;
  r_p99 : int64;
  r_p999 : int64;
  r_max : int64;
  r_mean : float;
  r_check : (unit, string) Stdlib.result;  (** end-to-end output check *)
  r_stats : Opec_monitor.Stats.t;  (** the monitor's counters after the run *)
}

(** Run one scenario.  A pilot run calibrates events-per-stimulus, then
    the full run is sized to [target_events] (default 100k; ignored by
    [Tcp_echo_slice], which drives a fixed 500-frame slice).  The
    device scripts are deterministic: same scenario, backend, and
    target produce identical event streams and cycle counts. *)
val run :
  ?backend:Opec_machine.Backend.kind -> ?target_events:int -> kind -> result

val pp_result : Format.formatter -> result -> unit

(** One JSON object for [opec load --json]. *)
val result_json : result -> Opec_obs.Json.t
