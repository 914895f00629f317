(** The final program image (Figure 6): instrumented code, read-only
    data and operation metadata in flash; public data, relocation table,
    stack, and operation data sections in SRAM — plus the size
    accounting the evaluation reports. *)

open Opec_ir

type t = {
  program : Program.t;  (** instrumented program *)
  source : Program.t;   (** the original, for baseline builds *)
  board : Opec_machine.Memmap.board;
  backend : Opec_machine.Backend.kind;  (** enforcement backend the plan targets *)
  input : Dev_input.t;
  ops : Operation.t list;
  layout : Layout.t;
  metas : (string * Metadata.op_meta) list;
  map : Opec_exec.Address_map.t;
  entries : string list;  (** operation entries (excluding main) *)
  code_base : int;
  code_bytes : int;       (** application + monitor code span *)
  flash_used : int;
  sram_used : int;
  stats : Instrument.stats;
  callgraph : Opec_analysis.Callgraph.t;
  resources : Opec_analysis.Resource.t;
  points_to : Opec_analysis.Points_to.t;
  syncsets : Opec_analysis.Syncset.t;
  syncset_bytes : int;  (** flash bytes of the embedded sync schedule *)
}

(** Flash footprint of a sync schedule under the {!Config} byte model.
    Variables in [direct] (globals the backend grants in place, which no
    switch copies) are left out of every list. *)
val syncset_flash_bytes :
  direct:string list -> Opec_analysis.Syncset.t -> int

val assemble :
  ?backend:Opec_machine.Backend.kind ->
  board:Opec_machine.Memmap.board ->
  input:Dev_input.t ->
  ops:Operation.t list ->
  layout:Layout.t ->
  metas:(string * Metadata.op_meta) list ->
  stats:Instrument.stats ->
  callgraph:Opec_analysis.Callgraph.t ->
  resources:Opec_analysis.Resource.t ->
  points_to:Opec_analysis.Points_to.t ->
  syncsets:Opec_analysis.Syncset.t ->
  source:Program.t ->
  Program.t ->
  t

val meta_of : t -> string -> Metadata.op_meta option
val op_of_entry : t -> string -> Operation.t option
val default_op : t -> Operation.t

(** Write initial values into the machine (masters, internal homes,
    read-only data, relocation slots); shadows are filled by the
    monitor's initialization (Section 5.1). *)
val load : t -> Opec_machine.Bus.t -> unit

(** Size accounting for Figure 9 / Tables 1-2. *)

val baseline_flash : t -> int
val baseline_sram : t -> int
val flash_used_delta : t -> int

(** Overheads as a percentage of the board's capacity, the way the paper
    computes Figure 9. *)
val flash_overhead_pct : t -> float

val sram_overhead_pct : t -> float

(** Monitor text plus metadata — the only privileged bytes. *)
val privileged_code_bytes : t -> int

val total_code_bytes : t -> int
