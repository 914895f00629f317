(* Structured diagnostics for the policy-verification linter. *)

type severity = Error | Warning | Info

type loc =
  | Program
  | Function of string
  | Operation of string
  | Icall of { func : string; index : int }
  | Region of { op : string; slot : string }
  | Address of int

type t = { code : string; severity : severity; loc : loc; message : string }

let v ~code severity loc message = { code; severity; loc; message }

let vf ~code severity loc fmt =
  Format.kasprintf (fun message -> { code; severity; loc; message }) fmt

let is_error d = d.severity = Error

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
    match String.compare a.code b.code with
    | 0 -> Stdlib.compare (a.loc, a.message) (b.loc, b.message)
    | c -> c)
  | c -> c

let pp_severity fmt s =
  Fmt.string fmt
    (match s with Error -> "error" | Warning -> "warning" | Info -> "info")

let pp_loc fmt = function
  | Program -> Fmt.string fmt "program"
  | Function f -> Fmt.pf fmt "function %s" f
  | Operation op -> Fmt.pf fmt "operation %s" op
  | Icall { func; index } -> Fmt.pf fmt "icall %s#%d" func index
  | Region { op; slot } -> Fmt.pf fmt "operation %s/region %s" op slot
  | Address a -> Fmt.pf fmt "address 0x%08X" a

let pp fmt d =
  Fmt.pf fmt "%s %a [%a] %s" d.code pp_severity d.severity pp_loc d.loc
    d.message

(* --- JSON ------------------------------------------------------------ *)

module Json = Opec_obs.Json

let loc_json loc =
  let str s = Json.String s in
  Json.Obj
    (match loc with
    | Program -> [ ("kind", str "program") ]
    | Function f -> [ ("kind", str "function"); ("name", str f) ]
    | Operation op -> [ ("kind", str "operation"); ("name", str op) ]
    | Icall { func; index } ->
      [ ("kind", str "icall"); ("function", str func); ("index", Json.Int index) ]
    | Region { op; slot } ->
      [ ("kind", str "region"); ("operation", str op); ("slot", str slot) ]
    | Address a -> [ ("kind", str "address"); ("address", Json.Int a) ])

let to_json d =
  Json.Obj
    [ ("code", Json.String d.code);
      ("severity", Json.String (Fmt.str "%a" pp_severity d.severity));
      ("loc", loc_json d.loc);
      ("message", Json.String d.message) ]
