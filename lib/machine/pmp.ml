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

type t = { entries : entry array; mutable enforcing : bool }

exception Invalid_entry of string

let entry_count = 16

let create () =
  { entries =
      Array.make entry_count
        { mode = Off; r = false; w = false; x = false; locked = false };
    enforcing = false }

let napot ?(locked = false) ~base ~size_log2 ~r ~w ~x () =
  if size_log2 < 3 || size_log2 > 32 then
    raise (Invalid_entry (Printf.sprintf "NAPOT size 2^%d out of range" size_log2));
  if base land ((1 lsl size_log2) - 1) <> 0 then
    raise
      (Invalid_entry
         (Printf.sprintf "NAPOT base 0x%08X not aligned to 2^%d" base size_log2));
  { mode = Napot { base; size_log2 }; r; w; x; locked }

let tor ?(locked = false) ~base ~limit ~r ~w ~x () =
  if limit < base then raise (Invalid_entry "TOR limit below base");
  { mode = Tor { base; limit }; r; w; x; locked }

let set t i e =
  if i < 0 || i >= entry_count then
    raise (Invalid_entry (Printf.sprintf "entry number %d" i));
  t.entries.(i) <- e

let get t i = t.entries.(i)
let enable t = t.enforcing <- true

let matches e addr =
  match e.mode with
  | Off -> false
  | Napot { base; size_log2 } ->
    addr >= base && addr < base + (1 lsl size_log2)
  | Tor { base; limit } -> addr >= base && addr < limit

let entry_allows e (access : Fault.access) =
  match access with
  | Fault.Read -> e.r
  | Fault.Write -> e.w
  | Fault.Execute -> e.x

(* Check one access: the lowest-numbered matching entry decides.
   Machine-mode accesses pass unless the deciding entry is locked; with
   no match, machine mode passes and lower privileges fault. *)
let rec decide t ~privileged ~addr ~(access : Fault.access) i =
  if i >= entry_count then
    if privileged then Ok () else Error { Fault.addr; access; privileged }
  else
    let e = t.entries.(i) in
    if not (matches e addr) then decide t ~privileged ~addr ~access (i + 1)
    else if (privileged && not e.locked) || entry_allows e access then Ok ()
    else Error { Fault.addr; access; privileged }

(* Only the deny paths allocate: this runs per bus access. *)
let check t ~privileged ~addr ~access =
  if not t.enforcing then Ok () else decide t ~privileged ~addr ~access 0

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
