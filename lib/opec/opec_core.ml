(** OPEC-Compiler: operation partitioning, global-data shadowing layout,
    MPU planning, instrumentation, and image generation — the paper's
    primary contribution (compile-time half). *)

module Config = Config
module Dev_input = Dev_input
module Operation = Operation
module Partition = Partition
module Layout = Layout
module Instrument = Instrument
module Metadata = Metadata
module Policy = Policy
module Image = Image
module Backend_plan = Backend_plan
module Compiler = Compiler
