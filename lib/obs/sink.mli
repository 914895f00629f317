(** Structured, cycle-timestamped monitor telemetry (paper, Section 6.3).

    The monitor and interpreter emit {!event}s into a {!t}; emission
    sites guard on {!field-active} so the {!null} sink costs one flag
    test and allocates nothing.  Timestamps are {!Opec_machine.Cpu}
    cycle counts, kept as the counter's own [int] so a stamp allocates
    nothing — recording charges no cycles, so instrumented runs are
    cycle-identical to plain ones. *)

module M = Opec_machine

(** One leg of the operation-switch protocol (Sections 5.2–5.3). *)
type phase =
  | Sanitize    (** developer-rule checks before shadows propagate *)
  | Sync        (** global synchronization through the public section *)
  | Relocate    (** stack-argument relocation / copy-back *)
  | Mpu_config  (** MPU plan installation *)

val phase_name : phase -> string

(** All phases, in protocol order. *)
val phases : phase list

(** A timed leg of one switch.  [ph_bytes] is the delta of the
    monitor's [synced_bytes] counter across the leg, so summing
    [ph_bytes] over every sample of every span reconciles exactly with
    [Stats.synced_bytes]. *)
type phase_sample = {
  ph : phase;
  ph_start : int;
  ph_end : int;
  ph_bytes : int;
}

type switch_kind =
  | Enter   (** operation entry (SVC trap in) *)
  | Exit    (** operation return (SVC trap out) *)
  | Thread  (** cooperative context switch (Section 7) *)
  | Init    (** one-time shadow fill + first MPU arm (Section 5.1) *)

val kind_name : switch_kind -> string

(** Does the kind count toward [Stats.switches]?  [Init] does not. *)
val kind_is_switch : switch_kind -> bool

(** One execution of the switch protocol.  [sp_src]/[sp_dst] are
    operation names; [""] means no operation on that side. *)
type span = {
  sp_kind : switch_kind;
  sp_src : string;
  sp_dst : string;
  sp_start : int;
  sp_end : int;
  sp_phases : phase_sample list;  (** in protocol order *)
}

val span_cycles : span -> int

(** MPU region identity, for peripheral-rotation events. *)
type region_id = { rg_base : int; rg_size_log2 : int }

val region_id_of : M.Mpu.region -> region_id

type event =
  | Switch of span
  | Region_swap of {
      rs_op : string;
      rs_slot : int;                  (** MPU slot rotated *)
      rs_evicted : region_id option;  (** previous occupant, if any *)
      rs_installed : region_id;
      rs_at : int;
    }
  | Emulation of {
      em_op : string;
      em_write : bool;
      em_info : M.Fault.info;
      em_at : int;
    }
  | Denial of {
      dn_op : string;
      dn_reason : string;
      dn_info : M.Fault.info option;  (** present for fault-derived denials *)
      dn_at : int;
    }
  | Svc_switch of {
      sv_kind : switch_kind;  (** [Enter] or [Exit] *)
      sv_entry : string;      (** the operation entry function *)
      sv_at : int;
    }
      (** The interpreter's own record of a completed SVC switch — an
          independent stream [Interp.switches] is checked against. *)

type t = private {
  active : bool;
  emit : event -> unit;
}

(** The disabled sink: [active = false], emits nothing. *)
val null : t

val make : (event -> unit) -> t

(** An in-memory collecting sink. *)
module Memory : sig
  type buffer

  val create : unit -> buffer
  val sink : buffer -> t

  (** Events in emission order. *)
  val events : buffer -> event list

  val count : buffer -> int
  val clear : buffer -> unit
end

val pp_phase : Format.formatter -> phase -> unit
val pp_region_id : Format.formatter -> region_id -> unit
val pp_event : Format.formatter -> event -> unit
