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
}

exception Invalid_region of string

let region_count = 8
let min_size_log2 = 5 (* 32 bytes *)
let subregion_min_log2 = 8 (* SRD is only implemented for >= 256-byte regions *)

let create () = { enabled = false; regions = Array.make region_count None }

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
  t.regions.(slot) <- r

let get t slot = t.regions.(slot)
let enable t = t.enabled <- true
let disable t = t.enabled <- false

let clear t = Array.fill t.regions 0 region_count None

(* Does [r] match [addr], taking disabled sub-regions into account? *)
let region_matches r addr =
  let size = 1 lsl r.size_log2 in
  if addr < r.base || addr >= r.base + size then false
  else if r.size_log2 < subregion_min_log2 || r.srd = 0 then true
  else
    let sub = (addr - r.base) / (size / 8) in
    r.srd land (1 lsl sub) = 0

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

(* Decide an access from region [n] down: the first (highest-numbered)
   matching region decides it. *)
let rec decide t ~privileged ~addr ~(access : Fault.access) n =
  if n < 0 then
    (* PRIVDEFENA behaviour: the background map, for privileged code
       only (privileged execute included) *)
    if privileged then Ok () else Error { Fault.addr; access; privileged }
  else
    match t.regions.(n) with
    | Some r when region_matches r addr ->
      let perm = if privileged then r.privileged else r.unprivileged in
      let allowed =
        match access with
        | Execute -> r.executable && perm_allows perm Fault.Read
        | Read | Write -> perm_allows perm access
      in
      if allowed then Ok () else Error { Fault.addr; access; privileged }
    | Some _ | None -> decide t ~privileged ~addr ~access (n - 1)

(* Check a single access.  Returns [Ok ()] or the faulting info.  Only
   the fault paths allocate: this runs per bus access. *)
let check t ~privileged ~addr ~access =
  if not t.enabled then Ok ()
  else decide t ~privileged ~addr ~access (region_count - 1)

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
