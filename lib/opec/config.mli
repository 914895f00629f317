(** Fixed parameters of the OPEC prototype: monitor footprint, stack
    geometry, MPU slot assignment, and the metadata/instrumentation
    byte-cost model the evaluation's size accounting uses. *)

(** Flash bytes of the linked-in OPEC-Monitor text (Table 1 reports
    8344–8646 across the seven applications). *)
val monitor_code_size : int

(** Application stack bytes: one MPU region with 8 sub-regions, so a
    power of two (Section 5.2). *)
val stack_size : int

val stack_subregion_size : int

(** MPU slots reserved for general peripherals (regions 4..7); ranges
    beyond the budget are virtualized at runtime. *)
val peripheral_region_count : int

val peripheral_region_first : int

(** Fixed region numbers of the per-operation plan (Section 5.2). *)
val region_background : int

val region_code : int
val region_stack : int
val region_opdata : int

(** Metadata byte model: fixed MPU-configuration block plus per-entry
    costs (Section 4.4). *)
val metadata_fixed_bytes : int

val metadata_periph_entry_bytes : int
val metadata_sanitize_entry_bytes : int
val metadata_stack_arg_entry_bytes : int
val metadata_reloc_entry_bytes : int

(** Code bytes per operation-switch site (the SVC sequence), in the
    4-bytes-per-instruction code model.  A relocation-table load needs
    no extra term: it is an IR [Load], charged with the code span. *)
val svc_site_bytes : int

(** Sync-schedule byte model: one header per embedded scheduled list
    (out/enter per operation, resume per pair), one slot reference per
    scheduled variable. *)
val syncset_header_bytes : int

val syncset_entry_bytes : int
