(** Per-operation metadata (Section 4.4): MPU configurations, stack
    information, sanitization values, the peripheral allow list, and the
    relocation entries — stored in flash and costed into the image's
    flash overhead. *)

type op_meta = {
  op : Operation.t;
  section : Layout.section option;
  uses_heap : bool;  (** map the heap section read-write for this op *)
  shadow_slots : (string * int) list;  (** shared var -> shadow addr *)
  grants : (string * int * int) list;
      (** (var, master, bytes) of each direct global the operation may
          write: one read-write grant over its master, rounded up to a
          word.  Counted in the fixed configuration block, like every
          protection entry. *)
  sanitize : Dev_input.sanitize_rule list;
  stack_info : Dev_input.stack_info option;
  periph_regions : Opec_machine.Mpu.region list;
  bytes : int;  (** modeled metadata footprint *)
}

val bytes_of :
  shadow_count:int -> periph_region_count:int -> sanitize_count:int ->
  stack_args:int -> int

(** The MPU regions covering the operation's merged peripheral ranges,
    which the MPU and PMP plans install. *)
val peripheral_regions : Operation.t -> Opec_machine.Mpu.region list

(** Build the metadata table; [cls] marks the heap-using operations. *)
val build :
  ?cls:Partition.classification -> Layout.t -> Dev_input.t ->
  Operation.t list -> (string * op_meta) list

(** The relocation target of a shared variable for the operation when
    the variable is not mapped read-only: its shadow from
    [shadow_slots], or 0 (NULL) when the operation has none.  The
    monitor's relocation table and the compile-time resolution of
    {!Instrument} both derive from it. *)
val reloc_target : op_meta -> string -> int

val total_bytes : (string * op_meta) list -> int
