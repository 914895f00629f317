(* The access-decision memo every enforcement backend shares.

   A backend's decision for an address is the six permission bits of
   the block holding it: read, write and execute at the unprivileged
   level in bits 0-2, at the privileged level in bits 3-5.  The block is
   [1 lsl shift] bytes, where [shift] (at most 5) is the grain: the
   largest power of two up to 32 dividing every boundary of the state,
   so no boundary falls inside a block and the decision is constant
   over it.  Legal MPU regions and POE windows give 32, PMP TOR entries
   4, CHERI bounds whatever they allow.

   [memo] holds [tag; stamp; bits] triples, direct-mapped by block.  An
   entry counts only while its stamp equals [stamp].  The invariant
   that makes this sound: one stamp names one register state.  Every
   in-place change takes a fresh stamp, which no captured image holds;
   a captured image keeps the stamp of the state it was taken from, and
   restoring it reinstates exactly those registers, so its entries hold
   again.  Stamps come from one atomic counter, so they stay unique
   when machines run on several domains at once.  [on] is the enable
   bit: the bits do not depend on it. *)

type t = {
  mutable on : bool;
  mutable stamp : int;
  mutable shift : int;
  mutable memo : int array;
}

type image = { i_on : bool; i_stamp : int; i_shift : int; i_memo : int array }

(* [Bus.check_as] inlines [slot], with its mask of 63. *)
let entries = 64
let max_shift = 5
let counter = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add counter 1
let table () = Array.make (3 * entries) (-1)

let create () =
  { on = false; stamp = fresh_stamp (); shift = max_shift; memo = table () }

(* [shift] lowered until [1 lsl shift] divides [x]. *)
let rec narrow shift x =
  if x land ((1 lsl shift) - 1) = 0 then shift else narrow (shift - 1) x

let set_on d on = d.on <- on

let changed d shift =
  d.stamp <- fresh_stamp ();
  d.shift <- shift

(* The live state moves onto the image's new table, so the operation
   that runs next fills the memo its image keeps. *)
let capture d =
  let memo = table () in
  d.memo <- memo;
  { i_on = d.on; i_stamp = d.stamp; i_shift = d.shift; i_memo = memo }

let restore d i =
  d.on <- i.i_on;
  d.stamp <- i.i_stamp;
  d.shift <- i.i_shift;
  d.memo <- i.i_memo

(* Neighbouring blocks take neighbouring slots, and the top address bits
   move the first blocks of flash, SRAM, the peripheral window and the
   PPB onto distinct slots at every grain. *)
let slot d addr = ((addr asr d.shift) lxor (addr lsr 26)) land (entries - 1)
