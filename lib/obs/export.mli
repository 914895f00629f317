(** Telemetry exporters: human text, machine JSON, and Chrome
    trace-event JSON (loadable in Perfetto / chrome://tracing).

    All output is deterministic for a given event stream; JSON is
    compact, and [render] ends it with a newline.  Chrome traces report
    cycles through the microsecond [ts]/[dur] fields — absolute times
    read as a 1 MHz core, relative widths are exact. *)

val text : ?events:bool -> Sink.event list -> string
val json : Sink.event list -> string
val chrome : Sink.event list -> string

type format = Text | Json | Chrome

val format_name : format -> string
val render : format -> Sink.event list -> string
