(** SRAM layout with global-data shadowing (Section 4.4).

    Each operation gets an exclusive data section (internal globals plus
    shadows of its shared globals), confined by one MPU region, so bases
    are aligned to power-of-two region sizes; sections are placed in
    descending size order to limit fragmentation.  Masters of shared
    variables live in the public section; the relocation table holds one
    pointer per shared variable. *)

open Opec_ir

type slot = { var : string; addr : int; size : int }

type section = {
  owner : string;     (** operation name, or ["public"] *)
  base : int;
  used : int;         (** bytes occupied by variables *)
  span : int;         (** bytes reserved under the target backend's
                          window encoding (a power of two for MPU and
                          PMP) *)
  slots : slot list;
}

type t = {
  op_sections : (string * section) list;
  public : section;
  heap_section : section option;  (** heap arenas (Section 5.2) *)
  externals : string list;             (** shared (shadowed) variables *)
  direct : string list;
      (** shared variables granted in place
          ({!Partition.grant_direct}): a master, no shadow, no slot *)
  reloc_base : int;
  reloc_slots : (string * int) list;   (** shared var -> table slot addr *)
  slot_index : (string, int) Hashtbl.t;  (** [reloc_slots] as a table *)
  stack_base : int;
  stack_top : int;
  data_base : int;
  data_limit : int;
  var_home : (string, int) Hashtbl.t;
  shadow_addr : (string, (string * int) list) Hashtbl.t;
}

val align : int -> int -> int

(** Pack variables into a section at [base], large ones first. *)
val pack_section : owner:string -> base:int -> (string * int) list -> section

val slot_addr : section -> string -> int option

val log2_ceil : int -> int

(** The public data section, at the base of SRAM: the masters of every
    shared global (shadowed or granted in place) in declaration order,
    then the unused writable globals.  {!build} places it the same
    way. *)
val public_section : Program.t -> Partition.classification -> section

(** Build the layout.  [sort_sections:false] keeps declaration order —
    the placement ablation.  [backend] supplies the window-encoding
    constraints (alignment, span) section placement must satisfy; the
    default MPU descriptor reproduces the original power-of-two plan
    bit for bit. *)
val build :
  ?sort_sections:bool ->
  ?backend:Opec_machine.Backend.kind ->
  Program.t ->
  Operation.t list ->
  Partition.classification ->
  t

val section_of : t -> string -> section option
val reloc_slot : t -> string -> int option

(** Address of [var]'s shadow in [op]'s section, if the operation
    accesses it. *)
val shadow_of : t -> op:string -> var:string -> int option

(** Master address (public section) of a shared variable, or the single
    home of an internal one. *)
val master_of : t -> string -> int option

val is_external : t -> string -> bool

(** SRAM bytes the plan consumes, including MPU-alignment fragments. *)
val sram_bytes : t -> int
