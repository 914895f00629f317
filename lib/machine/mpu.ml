(* The ARMv7-M Memory Protection Unit (paper, Section 2.2).

   Modeled constraints, all load-bearing for OPEC's design:
   - 8 regions, numbered 0..7; on overlap the highest-numbered enabled
     region that matches decides the access permission;
   - region size is a power of two, at least 32 bytes;
   - region base must be aligned to the region size;
   - regions of 256 bytes or more are split into 8 equal sub-regions, each
     of which can be disabled individually; an address falling in a
     disabled sub-region is treated as if the region did not match, so a
     lower-numbered overlapping region confines it;
   - with the default memory map enabled (PRIVDEFENA), privileged accesses
     that match no region use the background map; unprivileged accesses
     that match no region fault. *)

type perm = No_access | Read_only | Read_write

type region = {
  base : int;
  size_log2 : int;       (** region covers [2^size_log2] bytes, >= 5 *)
  srd : int;             (** 8-bit sub-region disable mask *)
  privileged : perm;
  unprivileged : perm;
  executable : bool;
}

(* Slots 0..7, never written once built: a change builds a new value. *)
type t = { regions : region option array }

exception Invalid_region of string

let region_count = 8
let min_size_log2 = 5 (* 32 bytes *)
let subregion_min_log2 = 8 (* SRD is only implemented for >= 256-byte regions *)

let region ?(srd = 0) ?(executable = false) ~base ~size_log2 ~privileged
    ~unprivileged () =
  if size_log2 < min_size_log2 || size_log2 > 32 then
    raise (Invalid_region (Printf.sprintf "size 2^%d out of range" size_log2));
  let size = 1 lsl size_log2 in
  if base land (size - 1) <> 0 then
    raise
      (Invalid_region
         (Printf.sprintf "base 0x%08X not aligned to size 0x%X" base size));
  if srd < 0 || srd > 0xFF then raise (Invalid_region "srd out of range");
  { base; size_log2; srd; privileged; unprivileged; executable }

(* Smallest legal region (size, log2) able to cover [bytes] bytes. *)
let region_size_for bytes =
  let rec go log2 = if 1 lsl log2 >= bytes then log2 else go (log2 + 1) in
  let log2 = go min_size_log2 in
  (1 lsl log2, log2)

let check_slot slot =
  if slot < 0 || slot >= region_count then
    raise (Invalid_region (Printf.sprintf "region number %d" slot))

(* Later pairs win a slot, as later register writes would. *)
let make pairs =
  let regions = Array.make region_count None in
  List.iter
    (fun (slot, r) ->
      check_slot slot;
      regions.(slot) <- Some r)
    pairs;
  { regions }

let with_region t slot r =
  check_slot slot;
  let regions = Array.copy t.regions in
  regions.(slot) <- Some r;
  { regions }

(* Does [r] match [addr], taking disabled sub-regions into account?
   [addr - base] is non-negative once the base test passes and sizes are
   powers of two, so the sub-region index is a shift, not a divide. *)
let region_matches r addr =
  let off = addr - r.base in
  off >= 0
  && off lsr r.size_log2 = 0
  && (r.srd = 0
     || r.size_log2 < subregion_min_log2
     || r.srd land (1 lsl (off lsr (r.size_log2 - 3))) = 0)

(* The read, write and execute bits of [perm] (see {!Backend});
   execute also needs read, and [x] (the region is not XN). *)
let perm_bits perm ~x =
  match perm with
  | No_access -> 0
  | Read_only -> if x then 0b101 else 0b001
  | Read_write -> if x then 0b111 else 0b011

(* The highest-numbered region at or below slot [n] that matches
   [addr]: the one that decides the access.  Returns the slot's own
   option, so it allocates nothing. *)
let rec matching regions addr n =
  if n < 0 then None
  else
    match regions.(n) with
    | Some r as m when region_matches r addr -> m
    | Some _ | None -> matching regions addr (n - 1)

(* The six permission bits of [addr]'s block (see {!Backend}).  No
   matching region: PRIVDEFENA's background map, for privileged code
   only (privileged execute included). *)
let block_bits t addr =
  match matching t.regions addr (region_count - 1) with
  | None -> 0b111_000
  | Some r ->
    let x = r.executable in
    perm_bits r.unprivileged ~x lor (perm_bits r.privileged ~x lsl 3)

let pp_perm fmt p =
  Fmt.string fmt
    (match p with No_access -> "NA" | Read_only -> "RO" | Read_write -> "RW")

let pp_region fmt r =
  Fmt.pf fmt "base=0x%08X size=2^%d srd=%02X priv=%a unpriv=%a%s" r.base
    r.size_log2 r.srd pp_perm r.privileged pp_perm r.unprivileged
    (if r.executable then " X" else "")

let pp ~on fmt t =
  Fmt.pf fmt "@[<v>MPU %s@,%a@]"
    (if on then "enabled" else "disabled")
    Fmt.(list ~sep:(any "@,") (fun fmt (i, r) ->
      match r with
      | None -> Fmt.pf fmt "  region %d: <unused>" i
      | Some r -> Fmt.pf fmt "  region %d: %a" i pp_region r))
    (Array.to_list (Array.mapi (fun i r -> (i, r)) t.regions))
