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

(* --- runtime state -------------------------------------------------------

   A protection state is an immutable value: registers, enable bit, and
   the decision memo that belongs to those registers for the state's
   whole life.  A switch installs another value and a rotation builds a
   new one, so no entry can go stale.

   A decision is the six permission bits of the address's block: read,
   write and execute at the unprivileged level in bits 0-2, at the
   privileged level in bits 3-5.  The block is [1 lsl shift] bytes,
   where [shift] (at most 5) is the grain: the largest power of two up
   to 32 dividing every boundary of the registers, so the decision is
   constant over a block.  Legal MPU regions and POE windows give 32,
   PMP TOR entries 4, CHERI bounds whatever they allow.

   [memo] is direct-mapped by block, one word per entry,
   [(block lsl 6) lor bits]: a lookup is one load, and a fill on another
   domain cannot tear an entry.  Every slot starts out holding block
   -1's entry, a true decision like any other, so a lookup needs no
   emptiness test (an all-ones "empty" word would read as block -1 with
   every permission). *)

type regs =
  | Mpu_regs of Mpu.t
  | Pmp_regs of Pmp.t
  | Cheri_regs of Cheri.t
  | Poe_regs of Poe.t

type state = { regs : regs; on : bool; shift : int; memo : int array }

(* [Bus.check_as] inlines [slot], with its mask of 127. *)
let memo_entries = 128
let max_shift = 5

let kind_of st =
  match st.regs with
  | Mpu_regs _ -> Mpu
  | Pmp_regs _ -> Pmp
  | Cheri_regs _ -> Cheri
  | Poe_regs _ -> Poe

(* [shift] lowered until [1 lsl shift] divides both [a] and [b]. *)
let rec narrow shift a b =
  if (a lor b) land ((1 lsl shift) - 1) = 0 then shift
  else narrow (shift - 1) a b

(* A region's or entry's boundaries (its base, its end and, for an MPU
   region of 256 bytes and up, its sub-region splits at multiples of 32
   past the base) are multiples of every power of two up to 32 dividing
   both its base and its size. *)
let grain = function
  | Mpu_regs m ->
    Array.fold_left
      (fun s -> function
        | None -> s
        | Some (r : Mpu.region) -> narrow s r.base (1 lsl r.size_log2))
      max_shift m.Mpu.regions
  | Pmp_regs p ->
    Array.fold_left
      (fun s (e : Pmp.entry) ->
        match e.mode with
        | Pmp.Off -> s
        | Pmp.Napot { base; size_log2 } -> narrow s base (1 lsl size_log2)
        | Pmp.Tor { base; limit } -> narrow s base limit)
      max_shift p.Pmp.entries
  | Cheri_regs c ->
    List.fold_left
      (fun s (c : Cheri.cap) -> narrow s c.cap_base c.cap_len)
      max_shift c.Cheri.caps
  (* [Poe.overlay] keeps every window on the 32-byte granule *)
  | Poe_regs _ -> max_shift

let block_bits regs addr =
  match regs with
  | Mpu_regs m -> Mpu.block_bits m addr
  | Pmp_regs p -> Pmp.block_bits p addr
  | Cheri_regs c -> Cheri.block_bits c addr
  | Poe_regs p -> Poe.block_bits p addr

let make ~on regs =
  let shift = grain regs in
  let empty = (-1 lsl 6) lor block_bits regs (-1 lsl shift) in
  { regs; on; shift; memo = Array.make memo_entries empty }

let create kind =
  make ~on:false
    (match kind with
    | Mpu -> Mpu_regs (Mpu.make [])
    | Pmp -> Pmp_regs (Pmp.make [])
    | Cheri -> Cheri_regs (Cheri.make [])
    | Poe -> Poe_regs (Poe.make ~keys:[] []))

(* The memo is a cache, not state. *)
let equal a b = a.on = b.on && a.regs = b.regs

(* Neighbouring blocks take neighbouring slots, and the top address bits
   move the first blocks of flash, SRAM, the peripheral window and the
   PPB onto distinct slots at every grain. *)
let slot st addr =
  ((addr asr st.shift) lxor (addr lsr 26)) land (memo_entries - 1)

(* A memo miss: decide from the registers and fill the slot, unless the
   block's number does not fit in an entry. *)
let fill st addr =
  let bits = block_bits st.regs addr in
  let blk = addr asr st.shift in
  let e = (blk lsl 6) lor bits in
  if e asr 6 = blk then Array.unsafe_set st.memo (slot st addr) e;
  bits

(* One access decided from the registers, bypassing the memo. *)
let check st ~privileged ~addr ~(access : Fault.access) =
  let bit = match access with Read -> 1 | Write -> 2 | Execute -> 4 in
  if (not st.on)
     || block_bits st.regs addr land (if privileged then bit lsl 3 else bit) <> 0
  then Ok ()
  else Error { Fault.addr; access; privileged }

let pp fmt { regs; on; _ } =
  match regs with
  | Mpu_regs m -> Mpu.pp ~on fmt m
  | Pmp_regs p ->
    Fmt.pf fmt "@[<v>PMP@,%a@]"
      Fmt.(
        list ~sep:(any "@,") (fun fmt (i, e) ->
            Fmt.pf fmt "  entry %d: %a" i Pmp.pp_entry e))
      (List.filter
         (fun (_, e) -> e.Pmp.mode <> Pmp.Off)
         (List.mapi (fun i e -> (i, e)) (Array.to_list p.Pmp.entries)))
  | Cheri_regs c -> Cheri.pp ~on fmt c
  | Poe_regs p -> Poe.pp ~on fmt p
