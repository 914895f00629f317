(* RISC-V Physical Memory Protection (PMP), the alternative protection
   unit the paper names for porting OPEC to other platforms (Section 7).

   Differences from the ARM MPU that matter to OPEC:
   - 16 entries instead of 8 regions;
   - the LOWEST-numbered matching entry decides (the MPU's is the
     highest), so specific windows go before the background entry;
   - NAPOT encoding: naturally aligned power-of-two regions of at least
     8 bytes (plus TOR top-of-range entries, modeled as base/limit);
   - permissions are R/W/X bits; machine-mode (privileged) accesses pass
     unless the entry is locked, supervisor/user accesses need the bits. *)

type mode =
  | Off
  | Napot of { base : int; size_log2 : int }
  | Tor of { base : int; limit : int }  (** [base, limit) *)

type entry = {
  mode : mode;
  r : bool;
  w : bool;
  x : bool;
  locked : bool;  (** enforced even on privileged (machine-mode) accesses *)
}

(* Entries 0..15, never written once built: a change builds a new value. *)
type t = { entries : entry array }

exception Invalid_entry of string

let entry_count = 16

let napot ?(locked = false) ~base ~size_log2 ~r ~w ~x () =
  if size_log2 < 3 || size_log2 > 32 then
    raise (Invalid_entry (Printf.sprintf "NAPOT size 2^%d out of range" size_log2));
  if base land ((1 lsl size_log2) - 1) <> 0 then
    raise
      (Invalid_entry
         (Printf.sprintf "NAPOT base 0x%08X not aligned to 2^%d" base size_log2));
  { mode = Napot { base; size_log2 }; r; w; x; locked }

(* TOR bounds sit on the 4-byte grain the real PMP address registers
   encode, so a TOR state's decisions are constant per aligned word. *)
let tor ?(locked = false) ~base ~limit ~r ~w ~x () =
  if limit < base then raise (Invalid_entry "TOR limit below base");
  if base land 3 <> 0 || limit land 3 <> 0 then
    raise
      (Invalid_entry
         (Printf.sprintf "TOR bounds [0x%08X,0x%08X) not 4-byte aligned" base
            limit));
  { mode = Tor { base; limit }; r; w; x; locked }

let off = { mode = Off; r = false; w = false; x = false; locked = false }

let check_index i =
  if i < 0 || i >= entry_count then
    raise (Invalid_entry (Printf.sprintf "entry number %d" i))

(* Later pairs win an entry, as later register writes would. *)
let make pairs =
  let entries = Array.make entry_count off in
  List.iter
    (fun (i, e) ->
      check_index i;
      entries.(i) <- e)
    pairs;
  { entries }

let with_entry t i e =
  check_index i;
  let entries = Array.copy t.entries in
  entries.(i) <- e;
  { entries }

let matches e addr =
  match e.mode with
  | Off -> false
  | Napot { base; size_log2 } ->
    addr >= base && addr < base + (1 lsl size_log2)
  | Tor { base; limit } -> addr >= base && addr < limit

(* The six permission bits of [addr]'s block (see {!Backend}): the
   lowest-numbered matching entry decides.  Machine-mode accesses pass
   unless that entry is locked; with no match, machine mode passes and
   lower privileges fault. *)
let block_bits t addr =
  let rec first i =
    if i >= entry_count then 0b111_000
    else
      let e = t.entries.(i) in
      if not (matches e addr) then first (i + 1)
      else
        let u =
          (if e.r then 1 else 0) lor (if e.w then 2 else 0)
          lor if e.x then 4 else 0
        in
        u lor ((if e.locked then u else 0b111) lsl 3)
  in
  first 0

let pp_entry fmt e =
  let perms =
    Printf.sprintf "%s%s%s%s"
      (if e.r then "r" else "-")
      (if e.w then "w" else "-")
      (if e.x then "x" else "-")
      (if e.locked then "L" else "")
  in
  match e.mode with
  | Off -> Fmt.pf fmt "off"
  | Napot { base; size_log2 } ->
    Fmt.pf fmt "NAPOT base=0x%08X size=2^%d %s" base size_log2 perms
  | Tor { base; limit } ->
    Fmt.pf fmt "TOR [0x%08X,0x%08X) %s" base limit perms
