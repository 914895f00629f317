(* Fixed parameters of the OPEC prototype. *)

(* Flash bytes occupied by the linked-in OPEC-Monitor.  The paper reports
   8344–8646 bytes of privileged code across the seven applications
   (Table 1); the constant models the monitor text section, to which each
   image adds its per-operation metadata. *)
let monitor_code_size = 8344

(* Application stack: one MPU region with 8 sub-regions (Section 5.2).
   Must be a power of two so the region base can be aligned to its size. *)
let stack_size = 8 * 1024
let stack_subregion_size = stack_size / 8

(* MPU regions reserved for general peripherals (region numbers 4..7). *)
let peripheral_region_count = 4
let peripheral_region_first = 4

(* Fixed region numbers (Section 5.2). *)
let region_background = 0
let region_code = 1
let region_stack = 2
let region_opdata = 3

(* Metadata bytes per operation, modeling the paper's operation metadata:
   MPU configurations, stack information, sanitization values, peripheral
   list, and the relocation-table descriptor. *)
let metadata_fixed_bytes = 8 * 8 (* eight MPU slot configurations *)
let metadata_periph_entry_bytes = 8
let metadata_sanitize_entry_bytes = 12
let metadata_stack_arg_entry_bytes = 8
let metadata_reloc_entry_bytes = 4

(* Extra code bytes per operation-switch site (the SVC sequence),
   matching the 4-bytes-per-instruction code model. *)
let svc_site_bytes = 16

(* Static sync-schedule bytes embedded with the operation metadata: one
   header per scheduled list (an out or enter set per operation, a
   resume set per (src, dst) pair) plus one slot reference per scheduled
   variable. *)
let syncset_header_bytes = 8
let syncset_entry_bytes = 4
