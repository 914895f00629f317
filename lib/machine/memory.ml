(* Flat byte memories for flash and SRAM.  Little-endian, like Cortex-M. *)

type t = { base : int; data : Bytes.t }

let create ~base ~size = { base; data = Bytes.make size '\000' }

let size t = Bytes.length t.data
let limit t = t.base + size t
let contains t addr = addr >= t.base && addr < limit t

let in_range t addr bytes = addr >= t.base && addr + bytes <= limit t

(* [read_unchecked]/[write_unchecked] skip the range test, which
   [read]/[write] make first. *)
let read_unchecked t addr bytes =
  let off = addr - t.base in
  (* word and byte accesses accumulate in a native int (4 bytes always
     fit) so the hot path boxes a single Int64 instead of one per byte *)
  if bytes = 4 then
    Int64.of_int
      (Char.code (Bytes.unsafe_get t.data off)
      lor (Char.code (Bytes.unsafe_get t.data (off + 1)) lsl 8)
      lor (Char.code (Bytes.unsafe_get t.data (off + 2)) lsl 16)
      lor (Char.code (Bytes.unsafe_get t.data (off + 3)) lsl 24))
  else if bytes = 1 then Int64.of_int (Char.code (Bytes.unsafe_get t.data off))
  else
    let rec go i acc =
      if i < 0 then acc
      else
        go (i - 1)
          (Int64.logor
             (Int64.shift_left acc 8)
             (Int64.of_int (Char.code (Bytes.get t.data (off + i)))))
    in
    go (bytes - 1) 0L

let read t addr bytes =
  if not (in_range t addr bytes) then
    raise (Fault.Bus { addr; access = Fault.Read; privileged = true });
  read_unchecked t addr bytes

let write_unchecked t addr bytes v =
  let off = addr - t.base in
  if bytes = 4 then begin
    (* bytes 0..3 only depend on the low 32 bits, which [to_int] keeps *)
    let x = Int64.to_int v in
    Bytes.unsafe_set t.data off (Char.unsafe_chr (x land 0xFF));
    Bytes.unsafe_set t.data (off + 1) (Char.unsafe_chr ((x lsr 8) land 0xFF));
    Bytes.unsafe_set t.data (off + 2) (Char.unsafe_chr ((x lsr 16) land 0xFF));
    Bytes.unsafe_set t.data (off + 3) (Char.unsafe_chr ((x lsr 24) land 0xFF))
  end
  else if bytes = 1 then
    Bytes.unsafe_set t.data off (Char.unsafe_chr (Int64.to_int v land 0xFF))
  else
    for i = 0 to bytes - 1 do
      Bytes.set t.data (off + i)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
    done

(* 1- and 4-byte accesses with the value as a native int (4 bytes always
   fit), unchecked like the two above: the monitor's word copies move
   words in this form, so they never box an [int64]. *)
let get_unchecked t addr bytes =
  let off = addr - t.base in
  if bytes = 4 then
    Char.code (Bytes.unsafe_get t.data off)
    lor (Char.code (Bytes.unsafe_get t.data (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get t.data (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get t.data (off + 3)) lsl 24)
  else Char.code (Bytes.unsafe_get t.data off)

let set_unchecked t addr bytes x =
  let off = addr - t.base in
  Bytes.unsafe_set t.data off (Char.unsafe_chr (x land 0xFF));
  if bytes = 4 then begin
    Bytes.unsafe_set t.data (off + 1) (Char.unsafe_chr ((x lsr 8) land 0xFF));
    Bytes.unsafe_set t.data (off + 2) (Char.unsafe_chr ((x lsr 16) land 0xFF));
    Bytes.unsafe_set t.data (off + 3) (Char.unsafe_chr ((x lsr 24) land 0xFF))
  end

let write t addr bytes v =
  if not (in_range t addr bytes) then
    raise (Fault.Bus { addr; access = Fault.Write; privileged = true });
  write_unchecked t addr bytes v

let blit_out t addr len =
  let off = addr - t.base in
  Bytes.sub t.data off len

let blit_in t addr src =
  let off = addr - t.base in
  Bytes.blit src 0 t.data off (Bytes.length src)
