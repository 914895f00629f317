(** OPEC-Monitor: privileged runtime enforcing operation isolation. *)

module Stats = Stats
module Enforce = Enforce
module Monitor = Monitor
module Runner = Runner
module Threads = Threads
