(* Structured, cycle-timestamped monitor telemetry (paper, Section 6.3).

   The monitor and the interpreter emit events into a sink; the null
   sink keeps the disabled path to a single flag test with no event
   allocation, so telemetry-off runs execute exactly the code they run
   today.  Timestamps are the [Cpu] cycle counter's own [int], read
   without boxing: recording charges no cycles, so an instrumented run
   is cycle-identical to a plain one and every span duration is exact,
   not sampled. *)

module M = Opec_machine

(* One leg of the switch protocol (Sections 5.2–5.3). *)
type phase =
  | Sanitize    (** developer-rule checks before shadows propagate *)
  | Sync        (** global synchronization through the public section *)
  | Relocate    (** stack-argument relocation / copy-back *)
  | Mpu_config  (** MPU plan installation *)

let phase_name = function
  | Sanitize -> "sanitize"
  | Sync -> "sync"
  | Relocate -> "relocate"
  | Mpu_config -> "mpu-config"

let phases = [ Sanitize; Sync; Relocate; Mpu_config ]

(* A timed leg of one switch: start/end cycle stamps plus the bytes the
   monitor moved during it (the [synced_bytes] counter delta, so the sum
   over all samples of all spans reconciles exactly with [Stats]). *)
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

let kind_name = function
  | Enter -> "enter"
  | Exit -> "exit"
  | Thread -> "thread"
  | Init -> "init"

(* Counts as an operation switch for [Stats.switches] reconciliation?
   [Init] happens once, before the first switch, and is excluded. *)
let kind_is_switch = function
  | Enter | Exit | Thread -> true
  | Init -> false

(* One execution of the switch protocol.  [sp_src]/[sp_dst] are
   operation names; [""] means no operation on that side (the very
   first entry, or an exit that unwinds the last frame). *)
type span = {
  sp_kind : switch_kind;
  sp_src : string;
  sp_dst : string;
  sp_start : int;
  sp_end : int;
  sp_phases : phase_sample list;  (** in protocol order *)
}

let span_cycles s = s.sp_end - s.sp_start

(* MPU region identity, for rotation events. *)
type region_id = { rg_base : int; rg_size_log2 : int }

let region_id_of (r : M.Mpu.region) =
  { rg_base = r.M.Mpu.base; rg_size_log2 = r.M.Mpu.size_log2 }

type event =
  | Switch of span
  | Region_swap of {
      rs_op : string;
      rs_slot : int;                    (** MPU slot rotated *)
      rs_evicted : region_id option;    (** previous occupant, if any *)
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
      (* the interpreter's own record of a completed switch trap — the
         independent stream [Interp.switches] is checked against *)
      sv_kind : switch_kind;  (** [Enter] or [Exit] *)
      sv_entry : string;      (** the operation entry function *)
      sv_at : int;
    }

(* The sink proper.  Immutable on purpose: the shared [null] value must
   never become active behind an emitter's back. *)
type t = {
  active : bool;
  emit : event -> unit;
}

let null = { active = false; emit = ignore }
let make emit = { active = true; emit }

(* An in-memory collecting sink — the pipeline's and the tests' buffer. *)
module Memory = struct
  type buffer = { mutable rev_events : event list; mutable count : int }

  let create () = { rev_events = []; count = 0 }

  let sink b =
    make (fun e ->
        b.rev_events <- e :: b.rev_events;
        b.count <- b.count + 1)

  let events b = List.rev b.rev_events
  let count b = b.count
  let clear b =
    b.rev_events <- [];
    b.count <- 0
end

let pp_phase fmt p = Format.pp_print_string fmt (phase_name p)

let pp_region_id fmt r =
  Fmt.pf fmt "0x%08X+%dB" r.rg_base (1 lsl r.rg_size_log2)

let pp_event fmt = function
  | Switch s ->
    Fmt.pf fmt "@[switch[%s] %s -> %s @@%d (%d cycles%a)@]"
      (kind_name s.sp_kind)
      (if s.sp_src = "" then "-" else s.sp_src)
      (if s.sp_dst = "" then "-" else s.sp_dst)
      s.sp_start (span_cycles s)
      (fun fmt phs ->
        List.iter
          (fun p ->
            Fmt.pf fmt "; %s=%dc/%dB" (phase_name p.ph)
              (p.ph_end - p.ph_start) p.ph_bytes)
          phs)
      s.sp_phases
  | Region_swap r ->
    Fmt.pf fmt "swap[%s] slot %d %a -> %a @@%d" r.rs_op r.rs_slot
      (Fmt.option ~none:(Fmt.any "empty") pp_region_id)
      r.rs_evicted pp_region_id r.rs_installed r.rs_at
  | Emulation e ->
    Fmt.pf fmt "emulate[%s] %s %a @@%d" e.em_op
      (if e.em_write then "store" else "load")
      M.Fault.pp_info e.em_info e.em_at
  | Denial d ->
    Fmt.pf fmt "deny[%s] %s @@%d" d.dn_op d.dn_reason d.dn_at
  | Svc_switch s ->
    Fmt.pf fmt "svc[%s] %s @@%d" (kind_name s.sv_kind) s.sv_entry s.sv_at
