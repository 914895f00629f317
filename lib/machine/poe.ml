(* An Arm POE / MPK-style permission-overlay-key protection model
   (Complets: keying embedded compartments with permission overlays).

   What matters to OPEC, contrasted with the ARM MPU:
   - memory is tagged per window with a *key* (0..7); a per-context
     permission register ([por]) says what the unprivileged level may do
     through each key.  Windows are byte-granular up to a small tagging
     granule — no power-of-two rounding;
   - the scarce resource is the *key count*, not a region budget: any
     number of windows can be tagged, but only [key_count] distinct
     permission classes exist at once.  A window whose key has been
     reclaimed ([no_key]) faults at the unprivileged level, and the
     monitor responds with *key recycling* — retag, don't evict;
   - the first matching window decides (windows never overlap in OPEC's
     plan; specific windows are pushed before the background).

   Privileged code ignores overlays (POR restricts EL0 only), mirroring
   PRIVDEFENA on the MPU. *)

type perm = Mpu.perm = No_access | Read_only | Read_write

type overlay = {
  ov_base : int;
  ov_limit : int;  (** [ov_base, ov_limit) *)
  ov_key : int;  (** 0..key_count-1, or {!no_key} *)
}

(* Never changed once built: key recycling builds a new value. *)
type t = {
  overlays : overlay list;  (** first match wins *)
  por : perm array;  (** per-key unprivileged data permission *)
  por_x : bool array;  (** per-key unprivileged execute permission *)
}

exception Invalid_overlay of string

let key_count = 8
let no_key = -1

(* Tagging granule: overlays are tracked per 32-byte line (matching the
   MPU's smallest sub-region granularity, far finer than its region
   rounding). *)
let granule = 32

let check_key key =
  if key < 0 || key >= key_count then
    raise (Invalid_overlay (Printf.sprintf "key %d out of range" key))

let overlay ?(key = no_key) ~base ~limit () =
  if limit <= base then raise (Invalid_overlay "empty overlay window");
  if base mod granule <> 0 || limit mod granule <> 0 then
    raise
      (Invalid_overlay
         (Printf.sprintf "window [0x%08X,0x%08X) not %d-byte aligned" base
            limit granule));
  if key <> no_key then check_key key;
  { ov_base = base; ov_limit = limit; ov_key = key }

let make ~keys overlays =
  let por = Array.make key_count No_access in
  let por_x = Array.make key_count false in
  List.iter
    (fun (key, perm, x) ->
      check_key key;
      por.(key) <- perm;
      por_x.(key) <- x)
    keys;
  { overlays; por; por_x }

let find t addr =
  List.find_opt
    (fun ov -> addr >= ov.ov_base && addr < ov.ov_limit)
    t.overlays

(* The monitor's key-recycling step: strip [key] from every window
   holding it (the victims) and tag [window], one of [t]'s, with it. *)
let recycle t window key =
  check_key key;
  let victims = List.filter (fun ov -> ov.ov_key = key) t.overlays in
  let retag ov =
    if ov = window then { ov with ov_key = key }
    else if ov.ov_key = key then { ov with ov_key = no_key }
    else ov
  in
  ({ t with overlays = List.map retag t.overlays }, victims)

(* The six permission bits of [addr]'s block (see {!Backend}): the
   first overlay covering the address decides via its key's POR entry;
   a keyless window (or no window at all) faults at the unprivileged
   level.  Privileged accesses bypass overlays. *)
let block_bits t addr =
  match find t addr with
  | Some ov when ov.ov_key <> no_key ->
    Mpu.perm_bits t.por.(ov.ov_key) ~x:t.por_x.(ov.ov_key) lor 0b111_000
  | Some _ | None -> 0b111_000

let pp_overlay fmt ov =
  Fmt.pf fmt "[0x%08X,0x%08X) key=%s" ov.ov_base ov.ov_limit
    (if ov.ov_key = no_key then "-" else string_of_int ov.ov_key)

let pp ~on fmt t =
  Fmt.pf fmt "@[<v>POE %s@,keys: %a@,%a@]"
    (if on then "enforcing" else "off")
    Fmt.(
      list ~sep:(any " ") (fun fmt (i, p, x) ->
          Fmt.pf fmt "%d:%a%s" i Mpu.pp_perm p (if x then "x" else "")))
    (Array.to_list (Array.mapi (fun i p -> (i, p, t.por_x.(i))) t.por))
    Fmt.(list ~sep:(any "@,") pp_overlay)
    t.overlays
