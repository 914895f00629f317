(* The enforcement-backend abstraction.

   OPEC's isolation guarantee is substrate-independent: what the design
   needs from hardware is (1) an unprivileged default-deny map with a
   read-only background view, (2) per-operation read-write windows over
   the stack prefix / data section / heap / permitted peripherals, and
   (3) a fault the monitor can classify.  Each substrate meets those
   with different *constraints*; the two that shape the memory layout
   are reified as a descriptor the partition and layout passes consult
   instead of hard-coding the ARMv7-M rules:

   - entry budget: MPU 8 regions, PMP 16 entries, POE 8 keys, CHERI
     unbounded;
   - alignment rule: MPU/PMP naturally-aligned powers of two, POE a
     small tagging granule, CHERI byte-granular under bounds precision.

   Match priority (MPU highest-numbered wins, PMP lowest wins, POE first
   match, CHERI any grant) and the fault model (MPU/PMP rotate windows,
   POE recycles keys, CHERI grants are always resident) are the
   planner's code, in [Opec_core.Backend_plan]. *)

type kind = Mpu | Pmp | Cheri | Poe

let all_kinds = [ Mpu; Pmp; Cheri; Poe ]

let kind_name = function
  | Mpu -> "mpu"
  | Pmp -> "pmp"
  | Cheri -> "cheri"
  | Poe -> "poe"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "mpu" -> Some Mpu
  | "pmp" -> Some Pmp
  | "cheri" -> Some Cheri
  | "poe" | "mpk" -> Some Poe
  | _ -> None

type alignment =
  | Pow2 of { min_log2 : int }
      (** naturally aligned power-of-two windows of at least
          [2^min_log2] bytes *)
  | Granule of { bytes : int }
      (** byte-granular windows up to a tagging granule *)
  | Precision of { mantissa_bits : int }
      (** byte-granular for small windows; large windows need
          representable (compressed-capability) bounds *)

type descriptor = {
  d_kind : kind;
  d_entry_budget : int option;  (** simultaneously-resident windows/keys *)
  d_alignment : alignment;
  d_range_granule : int option;
      (** one entry grants any range whose base and length are multiples
          of this (PMP TOR: 4 bytes; CHERI: 1, within bounds precision);
          [None] when every window takes the aligned encoding above *)
}

let descriptor = function
  | Mpu ->
    { d_kind = Mpu;
      d_entry_budget = Some Mpu.region_count;
      d_alignment = Pow2 { min_log2 = Mpu.min_size_log2 };
      d_range_granule = None }
  | Pmp ->
    { d_kind = Pmp;
      d_entry_budget = Some Pmp.entry_count;
      d_alignment = Pow2 { min_log2 = 3 };
      d_range_granule = Some 4 }
  | Cheri ->
    { d_kind = Cheri;
      d_entry_budget = None;
      d_alignment = Precision { mantissa_bits = Cheri.mantissa_bits };
      d_range_granule = Some 1 }
  | Poe ->
    { d_kind = Poe;
      d_entry_budget = Some Poe.key_count;
      d_alignment = Granule { bytes = Poe.granule };
      d_range_granule = None }

let round_up a n = (n + a - 1) / a * a

(* The (alignment, span) a window of [bytes] bytes costs under the
   backend's encoding: the base must be [alignment]-aligned and the
   window reserves [span] bytes.  For power-of-two backends this is
   exactly {!Mpu.region_size_for} (so the MPU layout is bit-identical to
   the pre-abstraction plan); capability and key backends pack tighter. *)
let region_fit d bytes =
  match d.d_alignment with
  | Pow2 { min_log2 } ->
    let rec go k = if 1 lsl k >= bytes then k else go (k + 1) in
    let k = go min_log2 in
    (1 lsl k, 1 lsl k)
  | Granule { bytes = g } ->
    let span = max g (round_up g bytes) in
    (g, span)
  | Precision _ ->
    (* widening the span can raise the representable alignment, so
       iterate to the fixpoint, mirroring {!Cheri.round_bounds} *)
    let rec go a =
      let span = max 1 (round_up a bytes) in
      let a' = Cheri.representable_align span in
      if a' <= a then (max a 1, span) else go a'
    in
    go (max 1 (Cheri.representable_align (max bytes 1)))

(* Can one entry grant exactly [base, base + len), no byte more?  Only a
   backend with range entries can: a PMP TOR entry on its 4-byte
   granule, or a CHERI capability whose bounds are representable
   without widening. *)
let grants_exactly d ~base ~len =
  match d.d_range_granule with
  | None -> false
  | Some g ->
    len > 0 && base mod g = 0 && len mod g = 0
    &&
    match d.d_alignment with
    | Precision _ -> Cheri.representable ~base ~len
    | Pow2 _ | Granule _ -> true

(* --- runtime state ------------------------------------------------------- *)

type state =
  | Mpu_state of Mpu.t
  | Pmp_state of Pmp.t
  | Cheri_state of Cheri.t
  | Poe_state of Poe.t

let create = function
  | Mpu -> Mpu_state (Mpu.create ())
  | Pmp -> Pmp_state (Pmp.create ())
  | Cheri -> Cheri_state (Cheri.create ())
  | Poe -> Poe_state (Poe.create ())

let kind_of = function
  | Mpu_state _ -> Mpu
  | Pmp_state _ -> Pmp
  | Cheri_state _ -> Cheri
  | Poe_state _ -> Poe

let decision = function
  | Mpu_state m -> m.Mpu.dec
  | Pmp_state p -> p.Pmp.dec
  | Cheri_state c -> c.Cheri.dec
  | Poe_state p -> p.Poe.dec

(* Register equality: every backend's decision memo is a cache, not
   state. *)
let equal a b =
  (decision a).Decision.on = (decision b).Decision.on
  &&
  match (a, b) with
  | Mpu_state x, Mpu_state y -> x.Mpu.regions = y.Mpu.regions
  | Pmp_state x, Pmp_state y -> x.Pmp.entries = y.Pmp.entries
  | Cheri_state x, Cheri_state y -> x.Cheri.caps = y.Cheri.caps
  | Poe_state x, Poe_state y ->
    x.Poe.overlays = y.Poe.overlays && x.Poe.por = y.Poe.por
    && x.Poe.por_x = y.Poe.por_x
  | (Mpu_state _ | Pmp_state _ | Cheri_state _ | Poe_state _), _ -> false

let block_bits st addr =
  match st with
  | Mpu_state m -> Mpu.block_bits m addr
  | Pmp_state p -> Pmp.block_bits p addr
  | Cheri_state c -> Cheri.block_bits c addr
  | Poe_state p -> Poe.block_bits p addr

(* One access decided from the registers, bypassing the memo. *)
let check st ~privileged ~addr ~(access : Fault.access) =
  let bit = match access with Read -> 1 | Write -> 2 | Execute -> 4 in
  if (not (decision st).Decision.on)
     || block_bits st addr land (if privileged then bit lsl 3 else bit) <> 0
  then Ok ()
  else Error { Fault.addr; access; privileged }

let enable st = Decision.set_on (decision st) true

let pp fmt = function
  | Mpu_state m -> Mpu.pp fmt m
  | Pmp_state p ->
    Fmt.pf fmt "@[<v>PMP@,%a@]"
      Fmt.(
        list ~sep:(any "@,") (fun fmt (i, e) ->
            Fmt.pf fmt "  entry %d: %a" i Pmp.pp_entry e))
      (List.filteri
         (fun _ (_, e) -> e.Pmp.mode <> Pmp.Off)
         (List.init Pmp.entry_count (fun i -> (i, Pmp.get p i))))
  | Cheri_state c -> Cheri.pp fmt c
  | Poe_state p -> Poe.pp fmt p
