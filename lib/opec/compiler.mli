(** The OPEC-Compiler pipeline (Figure 5): call-graph generation →
    resource dependency analysis → operation partitioning → image
    generation.

    The pipeline is exposed in stages so the artifact store
    (lib/pipeline) can memoize each intermediate result; {!compile} is
    the one-shot composition. *)

(** Compile a program with the developer inputs into a protected image.
    [sort_sections:false] selects declaration-order section placement
    (ablation); [resolve_relocs:false] sends every shared-global use
    through the relocation table, as the paper's Section 4.4 does,
    instead of resolving it at compile time in functions that belong to
    one operation. *)
val compile :
  ?board:Opec_machine.Memmap.board ->
  ?backend:Opec_machine.Backend.kind ->
  ?sort_sections:bool ->
  ?resolve_relocs:bool ->
  Opec_ir.Program.t ->
  Dev_input.t ->
  Image.t

(** Stage 0: static well-formedness ({!Opec_ir.Program.validate}). *)
val front : Opec_ir.Program.t -> Opec_ir.Program.t

(** Stage 1d': static sync schedules — the may-read/may-write dataflow
    and exposed-read (kill) analyses folded over the partition into
    per-switch copy sets, read-only master mappings, and dead-publish
    filters.  [input] supplies the sanitize rules, whose targets are
    pinned into the schedules.  The program must already be
    validated. *)
val syncsets_of :
  points_to:Opec_analysis.Points_to.t ->
  callgraph:Opec_analysis.Callgraph.t ->
  ops:Operation.t list ->
  input:Dev_input.t ->
  Opec_ir.Program.t ->
  Opec_analysis.Syncset.t

(** Stage 1d alone: image generation (global classification, layout,
    metadata, instrumentation, assembly) from precomputed analysis
    artifacts.  The program must already be validated; [syncsets]
    defaults to a private {!syncsets_of} computation. *)
val back :
  ?board:Opec_machine.Memmap.board ->
  ?backend:Opec_machine.Backend.kind ->
  ?sort_sections:bool ->
  ?resolve_relocs:bool ->
  ?syncsets:Opec_analysis.Syncset.t ->
  points_to:Opec_analysis.Points_to.t ->
  callgraph:Opec_analysis.Callgraph.t ->
  resources:Opec_analysis.Resource.t ->
  ops:Operation.t list ->
  Opec_ir.Program.t ->
  Dev_input.t ->
  Image.t

(** Image generations performed since start (or the last reset) — the
    call-count probe evaluation sweeps use to assert each workload is
    compiled exactly once.  Domain-safe. *)
val compile_count : unit -> int

val reset_compile_count : unit -> unit

(** Render the image's operation policy file. *)
val policy : Image.t -> string
