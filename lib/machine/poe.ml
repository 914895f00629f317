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
  mutable ov_key : int;  (** 0..key_count-1, or {!no_key} *)
}

type t = {
  mutable overlays : overlay list;  (** first match wins *)
  por : perm array;  (** per-key unprivileged data permission *)
  por_x : bool array;  (** per-key unprivileged execute permission *)
  dec : Decision.t;  (** the enable bit and the decision memo *)
}

type registers = {
  r_overlays : overlay list;
  r_por : perm array;
  r_por_x : bool array;
}

exception Invalid_overlay of string

let key_count = 8
let no_key = -1

(* Tagging granule: overlays are tracked per 32-byte line (matching the
   MPU's smallest sub-region granularity, far finer than its region
   rounding). *)
let granule = 32

let create () =
  { overlays = [];
    por = Array.make key_count No_access;
    por_x = Array.make key_count false;
    dec = Decision.create () }

let overlay ?(key = no_key) ~base ~limit () =
  if limit <= base then raise (Invalid_overlay "empty overlay window");
  if base mod granule <> 0 || limit mod granule <> 0 then
    raise
      (Invalid_overlay
         (Printf.sprintf "window [0x%08X,0x%08X) not %d-byte aligned" base
            limit granule));
  if key <> no_key && (key < 0 || key >= key_count) then
    raise (Invalid_overlay (Printf.sprintf "key %d out of range" key));
  { ov_base = base; ov_limit = limit; ov_key = key }

(* [overlay] keeps every window on the 32-byte granule, so the grain is
   always the coarsest. *)
let changed t = Decision.changed t.dec Decision.max_shift

let clear t =
  t.overlays <- [];
  Array.fill t.por 0 key_count No_access;
  Array.fill t.por_x 0 key_count false;
  changed t

let add t ov =
  t.overlays <- t.overlays @ [ ov ];
  changed t

let set_key t key ?(x = false) perm =
  if key < 0 || key >= key_count then
    raise (Invalid_overlay (Printf.sprintf "key %d out of range" key));
  t.por.(key) <- perm;
  t.por_x.(key) <- x;
  changed t

let enable t = Decision.set_on t.dec true
let overlays t = t.overlays

(* Key recycling retags overlays in place, so saved registers and the
   live state never share an overlay record. *)
let copy_overlays = List.map (fun ov -> { ov with ov_key = ov.ov_key })

let registers t =
  { r_overlays = copy_overlays t.overlays;
    r_por = Array.copy t.por;
    r_por_x = Array.copy t.por_x }

let restore t r image =
  t.overlays <- copy_overlays r.r_overlays;
  Array.blit r.r_por 0 t.por 0 key_count;
  Array.blit r.r_por_x 0 t.por_x 0 key_count;
  Decision.restore t.dec image

let find t addr =
  List.find_opt
    (fun ov -> addr >= ov.ov_base && addr < ov.ov_limit)
    t.overlays

(* Retag every window currently holding [key] to {!no_key} and return
   them — the victim half of the monitor's key-recycling step. *)
let reclaim_key t key =
  let victims =
    List.filter (fun ov -> ov.ov_key = key) t.overlays
  in
  List.iter (fun ov -> ov.ov_key <- no_key) victims;
  changed t;
  victims

(* Tag [ov], one of [t]'s windows, with [key] — the other half. *)
let retag t ov key =
  ov.ov_key <- key;
  changed t

(* The six permission bits of [addr]'s block (see {!Decision}): the
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

let pp fmt t =
  Fmt.pf fmt "@[<v>POE %s@,keys: %a@,%a@]"
    (if t.dec.on then "enforcing" else "off")
    Fmt.(
      list ~sep:(any " ") (fun fmt (i, p, x) ->
          Fmt.pf fmt "%d:%a%s" i Mpu.pp_perm p (if x then "x" else "")))
    (Array.to_list (Array.mapi (fun i p -> (i, p, t.por_x.(i))) t.por))
    Fmt.(list ~sep:(any "@,") pp_overlay)
    t.overlays
