(* A CHERI-style capability protection model (CompartOS: CHERI-based
   linkage compartmentalization for embedded systems).

   What matters to OPEC, contrasted with the ARM MPU:
   - no fixed region budget: a compartment holds a *table* of
     capabilities, one per object it may touch, not 8 slots;
   - no power-of-two alignment: bounds are byte-granular for small
     objects.  The only constraint is *bounds precision*: compressed
     capabilities (CHERI-concentrate) encode bounds with a limited
     mantissa, so large objects must be representable — base and length
     aligned to 2^(log2ceil(len) - mantissa_bits);
   - no eviction faults: every grant is resident, so the monitor never
     rotates windows at runtime.  A fault is always a real violation.

   Privileged code runs with the omnipotent default capability (the
   monitor's almighty root), mirroring PRIVDEFENA on the MPU and
   machine-mode pass-through on the PMP. *)

type cap = {
  cap_base : int;
  cap_len : int;
  cap_r : bool;
  cap_w : bool;
  cap_x : bool;
}

(* A compartment's capability table, never changed once built. *)
type t = { caps : cap list }

exception Invalid_cap of string

(* CHERI-concentrate mantissa width.  Real encodings use ~12-14 bits of
   mantissa for a 32-bit address space; 12 keeps every object below 4
   KiB byte-precise, which is where OPEC's sections live. *)
let mantissa_bits = 12

let log2_ceil n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n <= 1 then 0 else go 0

(* Alignment both bounds of a [len]-byte capability must satisfy to be
   representable under the compressed encoding. *)
let representable_align len =
  if len <= 1 lsl mantissa_bits then 1
  else 1 lsl (log2_ceil len - mantissa_bits)

let representable ~base ~len =
  let a = representable_align len in
  base mod a = 0 && len mod a = 0

(* Smallest representable bounds containing [base, base+len) — the CRAP
   (representable-alignment) rounding a CHERI compiler/loader performs.
   Widening the length can raise the required alignment, so iterate to
   the fixpoint. *)
let round_bounds ~base ~len =
  let rec go a =
    let base' = base / a * a in
    let limit' = (base + len + a - 1) / a * a in
    let len' = limit' - base' in
    let a' = representable_align len' in
    if a' <= a then (base', len') else go a'
  in
  go (max 1 (representable_align len))

(* Build a capability, refusing unrepresentable bounds (callers round
   with {!round_bounds} first when widening is acceptable). *)
let cap ?(r = true) ?(w = false) ?(x = false) ~base ~len () =
  if len <= 0 then raise (Invalid_cap "empty capability");
  if not (representable ~base ~len) then
    raise
      (Invalid_cap
         (Printf.sprintf
            "bounds [0x%08X,+%d) not representable (need %d-byte alignment)"
            base len (representable_align len)));
  { cap_base = base; cap_len = len; cap_r = r; cap_w = w; cap_x = x }

let make caps = { caps }

let cap_matches c addr = addr >= c.cap_base && addr < c.cap_base + c.cap_len

(* The six permission bits of [addr]'s block (see {!Backend}): any
   capability in the table that covers the address grants its
   permissions (capabilities are grants, not a priority scheme — there
   is no "deny" capability to shadow another).  Privileged code holds
   the default capability and always passes. *)
let block_bits t addr =
  let rec grants u = function
    | [] -> u
    | c :: rest ->
      grants
        (if cap_matches c addr then
           u lor (if c.cap_r then 1 else 0) lor (if c.cap_w then 2 else 0)
           lor if c.cap_x && c.cap_r then 4 else 0
         else u)
        rest
  in
  grants 0b111_000 t.caps

let pp_cap fmt c =
  Fmt.pf fmt "cap [0x%08X,+%d) %s%s%s" c.cap_base c.cap_len
    (if c.cap_r then "r" else "-")
    (if c.cap_w then "w" else "-")
    (if c.cap_x then "x" else "-")

let pp ~on fmt t =
  Fmt.pf fmt "@[<v>CHERI %s (%d caps)@,%a@]"
    (if on then "enforcing" else "off")
    (List.length t.caps)
    Fmt.(list ~sep:(any "@,") pp_cap)
    t.caps
