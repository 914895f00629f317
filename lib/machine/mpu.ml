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

type t = {
  mutable enabled : bool;
  regions : region option array;  (** slots 0..7 *)
  mutable stamp : int;
  mutable uniform : bool;
  memo : int array;
}

exception Invalid_region of string

let region_count = 8
let min_size_log2 = 5 (* 32 bytes *)
let subregion_min_log2 = 8 (* SRD is only implemented for >= 256-byte regions *)

(* The decision memo.  With legal regions (32-byte-aligned bases, sizes
   from 32 bytes, sub-regions from 256), every boundary that can change
   a decision is a multiple of 32, so a decision is constant over an
   aligned 32-byte block.  [memo] holds [tag; stamp; bits] triples,
   direct-mapped by block: [bits] are the block's read, write and
   execute permissions, unprivileged in bits 0-2 and privileged in bits
   3-5.  An entry counts only while its stamp equals [t.stamp], and
   every change to the regions or the enable bit moves [t.stamp], which
   retires all entries at once.  [uniform] is false while some region
   breaks the 32-byte geometry (only a hand-built record can); then
   every check decides from the regions. *)
let memo_entries = 64

let create () =
  { enabled = false;
    regions = Array.make region_count None;
    stamp = 0;
    uniform = true;
    memo = Array.make (3 * memo_entries) (-1) }

let legal_geometry = function
  | None -> true
  | Some r ->
    r.size_log2 >= min_size_log2 && r.size_log2 <= 32 && r.base land 31 = 0

let changed t =
  t.stamp <- t.stamp + 1;
  t.uniform <- Array.for_all legal_geometry t.regions

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

let set t slot r =
  if slot < 0 || slot >= region_count then
    raise (Invalid_region (Printf.sprintf "region number %d" slot));
  t.regions.(slot) <- r;
  changed t

let get t slot = t.regions.(slot)

let enable t =
  t.enabled <- true;
  changed t

let disable t =
  t.enabled <- false;
  changed t

let clear t =
  Array.fill t.regions 0 region_count None;
  changed t

let regions t = Array.copy t.regions

(* Register equality: the memo is a cache, not state. *)
let equal a b = a.enabled = b.enabled && a.regions = b.regions

let restore t regions ~enabled =
  Array.blit regions 0 t.regions 0 region_count;
  t.enabled <- enabled;
  changed t

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

let perm_allows perm access =
  match (perm, (access : Fault.access)) with
  | Read_write, (Read | Write) -> true
  | Read_only, Read -> true
  | Read_only, Write -> false
  | No_access, (Read | Write) -> false
  | (Read_write | Read_only | No_access), Execute ->
    (* execute additionally requires read permission and !XN; checked in
       [check] where the region is known *)
    perm <> No_access

(* The highest-numbered region at or below slot [n] that matches
   [addr]: the one that decides the access.  Returns the slot's own
   option, so it allocates nothing. *)
let rec matching regions addr n =
  if n < 0 then None
  else
    match regions.(n) with
    | Some r as m when region_matches r addr -> m
    | Some _ | None -> matching regions addr (n - 1)

(* The six permission bits of [addr]'s block (see [memo]).  No matching
   region: PRIVDEFENA's background map, for privileged code only
   (privileged execute included). *)
let block_bits t addr =
  match matching t.regions addr (region_count - 1) with
  | None -> 0b111_000
  | Some r ->
    let bits perm =
      (if perm_allows perm Fault.Read then 1 else 0)
      lor (if perm_allows perm Fault.Write then 2 else 0)
      lor if r.executable && perm_allows perm Fault.Read then 4 else 0
    in
    bits r.unprivileged lor (bits r.privileged lsl 3)

let bits t addr =
  if not t.uniform then block_bits t addr
  else
    let blk = addr asr 5 in
    let e = 3 * (blk land (memo_entries - 1)) in
    let memo = t.memo in
    if memo.(e) = blk && memo.(e + 1) = t.stamp then memo.(e + 2)
    else begin
      let b = block_bits t addr in
      memo.(e) <- blk;
      memo.(e + 1) <- t.stamp;
      memo.(e + 2) <- b;
      b
    end

let allows t ~privileged ~addr ~(access : Fault.access) =
  (not t.enabled)
  ||
  let bit = match access with Read -> 1 | Write -> 2 | Execute -> 4 in
  bits t addr land (if privileged then bit lsl 3 else bit) <> 0

(* Check a single access: the first (highest-numbered) matching region
   decides it.  Returns [Ok ()] or the faulting info.  Only the fault
   paths allocate: this runs per bus access. *)
let check t ~privileged ~addr ~access =
  if allows t ~privileged ~addr ~access then Ok ()
  else Error { Fault.addr; access; privileged }

let pp_perm fmt p =
  Fmt.string fmt
    (match p with No_access -> "NA" | Read_only -> "RO" | Read_write -> "RW")

let pp_region fmt r =
  Fmt.pf fmt "base=0x%08X size=2^%d srd=%02X priv=%a unpriv=%a%s" r.base
    r.size_log2 r.srd pp_perm r.privileged pp_perm r.unprivileged
    (if r.executable then " X" else "")

let pp fmt t =
  Fmt.pf fmt "@[<v>MPU %s@,%a@]"
    (if t.enabled then "enabled" else "disabled")
    Fmt.(list ~sep:(any "@,") (fun fmt (i, r) ->
      match r with
      | None -> Fmt.pf fmt "  region %d: <unused>" i
      | Some r -> Fmt.pf fmt "  region %d: %a" i pp_region r))
    (Array.to_list (Array.mapi (fun i r -> (i, r)) t.regions))
