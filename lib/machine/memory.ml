(* Flat byte memories for flash and SRAM.  Little-endian, like Cortex-M.

   A memory spans [size] bytes, but [data] may hold only a prefix of
   them: a [grown] memory starts empty and grows on write, and the
   bytes past [data] read as 0.  Flash is grown, so it costs what the
   loader writes, not the board's megabytes; SRAM is allocated whole. *)

type t = { base : int; size : int; mutable data : Bytes.t }

let create ~base ~size = { base; size; data = Bytes.make size '\000' }
let grown ~base ~size = { base; size; data = Bytes.empty }

let size t = t.size
let limit t = t.base + t.size
let contains t addr = addr >= t.base && addr < limit t

let in_range t addr bytes = addr >= t.base && addr + bytes <= limit t

(* Make [data] hold the first [n] bytes (n <= size), at least doubling. *)
let grow t n =
  if n > Bytes.length t.data then begin
    let held = Bytes.length t.data in
    let data = Bytes.make (min t.size (max n (2 * held))) '\000' in
    Bytes.blit t.data 0 data 0 held;
    t.data <- data
  end

let held t addr bytes = addr - t.base + bytes <= Bytes.length t.data

let blit_out t addr len =
  let off = addr - t.base in
  let out = Bytes.make len '\000' in
  let held = min len (Bytes.length t.data - off) in
  if held > 0 then Bytes.blit t.data off out 0 held;
  out

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
  if held t addr bytes then read_unchecked t addr bytes
  else
    (* past the written bytes: read a zero-padded copy *)
    let data = blit_out t addr bytes in
    read_unchecked { base = addr; size = bytes; data } addr bytes

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

(* [get_unchecked] for a grown memory: bytes past [data] read 0. *)
let get t addr bytes =
  if held t addr bytes then get_unchecked t addr bytes
  else Int64.to_int (read t addr bytes)

let write t addr bytes v =
  if not (in_range t addr bytes) then
    raise (Fault.Bus { addr; access = Fault.Write; privileged = true });
  grow t (addr - t.base + bytes);
  write_unchecked t addr bytes v
