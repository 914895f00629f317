(* Fixed-width bitsets over dense ids, 63 ids per native int word.  The
   width is set at creation; every binary operation takes operands of
   the same width. *)

type t = int array

let bpw = 63

let words n = (n + bpw - 1) / bpw
(* One-word sets, the common case, are built as literals: the generic
   [Array] builders go through the runtime for every allocation. *)
let create n = if n <= bpw then [| 0 |] else Array.make (words n) 0
let copy s = if Array.length s = 1 then [| s.(0) |] else Array.copy s

let mem s i = s.(i / bpw) land (1 lsl (i mod bpw)) <> 0

let add s i =
  let w = i / bpw in
  s.(w) <- s.(w) lor (1 lsl (i mod bpw))

let remove s i =
  let w = i / bpw in
  s.(w) <- s.(w) land lnot (1 lsl (i mod bpw))

let is_empty s = Array.for_all (fun w -> w = 0) s
let equal (a : t) (b : t) = a = b

let union_into ~dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) lor src.(i)
  done

let inter_into ~dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) land src.(i)
  done

let diff_into ~dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) land lnot src.(i)
  done

let union a b =
  if Array.length a = 1 then [| a.(0) lor b.(0) |] else Array.map2 ( lor ) a b

let inter a b =
  if Array.length a = 1 then [| a.(0) land b.(0) |] else Array.map2 ( land ) a b

let diff a b =
  if Array.length a = 1 then [| a.(0) land lnot b.(0) |]
  else Array.map2 (fun x y -> x land lnot y) a b

(* [f] on the members of one word, whose low bit is id [i] *)
let rec iter_word f bits i =
  if bits <> 0 then begin
    if bits land 1 <> 0 then f i;
    iter_word f (bits lsr 1) (i + 1)
  end

let fold f s acc =
  let acc = ref acc in
  for w = 0 to Array.length s - 1 do
    iter_word (fun i -> acc := f i !acc) s.(w) (w * bpw)
  done;
  !acc
