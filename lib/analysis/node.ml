(* Abstract memory objects and pointer variables of the points-to
   analysis.  The solver interns each one to a dense integer id while it
   generates constraints; a descriptor names the node only when a result
   is printed or queried by name. *)

type t =
  | Global of string
  | Func of string
  | Stack of string * string        (* function, alloca'd local *)
  | Periph of string
  | Local of string * string        (* function, local *)
  | Param of string * int           (* function, parameter position *)
  | Temp of string * string * int   (* function, "$store"/"$cpy", counter *)
  | Ret of string
  | Icall of string * int           (* function, site index *)
  | Icall_arg of string * int * int (* function, site index, argument *)
  | Icall_ret of string * int

let to_string = function
  | Global g -> "G:" ^ g
  | Func f -> "F:" ^ f
  | Stack (f, s) -> Printf.sprintf "S:%s::%s" f s
  | Periph p -> "P:" ^ p
  | Local (f, x) -> Printf.sprintf "L:%s::%s" f x
  | Param (f, i) -> Printf.sprintf "L:%s::$param%d" f i
  | Temp (f, prefix, k) -> Printf.sprintf "L:%s::%s%d" f prefix k
  | Ret f -> "R:" ^ f
  | Icall (f, k) -> Printf.sprintf "I:%s#%d" f k
  | Icall_arg (f, k, i) -> Printf.sprintf "I:%s#%d$arg%d" f k i
  | Icall_ret (f, k) -> Printf.sprintf "I:%s#%d$ret" f k

let is_object = function
  | Global _ | Func _ | Stack _ | Periph _ -> true
  | Local _ | Param _ | Temp _ | Ret _ | Icall _ | Icall_arg _ | Icall_ret _ ->
    false
