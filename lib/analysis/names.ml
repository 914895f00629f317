(* Open-addressing hash tables from names to non-negative ints, with
   linear probing and an inline hash: the analyses look names up far
   more often than they add them, and a probe here costs no allocation
   and no runtime call beyond the string comparison.  A key may carry an
   int tag (a function's id, for its locals); plain keys have tag 0. *)

type t = {
  mutable keys : string array;
  mutable tags : int array;
  mutable vals : int array;  (* -1 marks an empty slot *)
  mutable size : int;
}

let create n =
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap ""; tags = Array.make !cap 0; vals = Array.make !cap (-1);
    size = 0 }

let hash tag s =
  let h = ref ((tag * 0x9e3779b1) + String.length s) in
  for i = 0 to String.length s - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h lxor (!h lsr 16)

(* The slot holding the key, or the empty slot where it would go:
   probing from [i]. *)
let rec probe t tag s i =
  if t.vals.(i) < 0 || (t.tags.(i) = tag && String.equal t.keys.(i) s) then i
  else probe t tag s ((i + 1) land (Array.length t.keys - 1))

let slot t tag s = probe t tag s (hash tag s land (Array.length t.keys - 1))

let find_in t tag s = t.vals.(slot t tag s)
let find t s = find_in t 0 s

let rec replace_in t tag s v =
  let i = slot t tag s in
  if t.vals.(i) >= 0 then t.vals.(i) <- v
  else if 2 * (t.size + 1) > Array.length t.keys then begin
    let keys = t.keys and tags = t.tags and vals = t.vals in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap "";
    t.tags <- Array.make cap 0;
    t.vals <- Array.make cap (-1);
    t.size <- 0;
    Array.iteri (fun j k -> if vals.(j) >= 0 then replace_in t tags.(j) k vals.(j)) keys;
    replace_in t tag s v
  end
  else begin
    t.keys.(i) <- s;
    t.tags.(i) <- tag;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

let replace t s v = replace_in t 0 s v

let map t f = Array.iteri (fun i v -> if v >= 0 then t.vals.(i) <- f v) t.vals
