(** opec.obs — structured, cycle-timestamped monitor telemetry:
    sink/event model, per-operation aggregation, and exporters. *)

module Sink = Sink
module Agg = Agg
module Export = Export
module Json = Json
