(* Core execution state: privilege level, stack pointer, cycle counter.

   The cycle counter stands in for the DWT measurement the paper uses: the
   interpreter charges cycles for every instruction and bus access, and the
   monitor's privileged work is charged on the same counter, so
   OPEC-vs-baseline cycle ratios are computed the same way the paper
   computes its runtime overhead (Section 6.3). *)

type t = {
  mutable privileged : bool;
  mutable sp : int;
  mutable stack_base : int;   (** lowest valid stack address *)
  mutable stack_limit : int;  (** highest valid stack address + 1 *)
  mutable cycles : int;
      (* unboxed [int]: a boxed [int64] here would allocate on every
         charge, and charges happen per instruction, per expression
         node, and per bus access *)
}

let create () =
  { privileged = true; sp = 0; stack_base = 0; stack_limit = 0; cycles = 0 }

let charge t n = t.cycles <- t.cycles + n
let cycles t = Int64.of_int t.cycles

let drop_privilege t = t.privileged <- false
let raise_privilege t = t.privileged <- true

(* Run [f] at the privileged level, restoring the previous level after —
   the hardware exception-entry/exit semantics the monitor relies on. *)
let with_privilege t f =
  let saved = t.privileged in
  t.privileged <- true;
  match f () with
  | v ->
    t.privileged <- saved;
    v
  | exception e ->
    t.privileged <- saved;
    raise e

let pp fmt t =
  Fmt.pf fmt "cpu{%s sp=0x%08X cycles=%d}"
    (if t.privileged then "priv" else "unpriv")
    t.sp t.cycles
