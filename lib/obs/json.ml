(* JSON values, one compact printer and one strict parser: every JSON
   document the tree writes or reads goes through this module. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* String escaping.  Bytes below 0x80 need no decoding; anything above
   starts a UTF-8 sequence, copied through when it decodes and escaped
   byte by byte when it does not. *)
let add_escaped b s =
  let esc c = Printf.bprintf b "\\u%04x" (Char.code c) in
  let rec go i =
    if i < String.length s then
      match s.[i] with
      | ('"' | '\\') as c ->
        Buffer.add_char b '\\';
        Buffer.add_char b c;
        go (i + 1)
      | c when c < ' ' ->
        esc c;
        go (i + 1)
      | c when c < '\x80' ->
        Buffer.add_char b c;
        go (i + 1)
      | _ ->
        let d = String.get_utf_8_uchar s i in
        let len = Uchar.utf_decode_length d in
        if Uchar.utf_decode_is_valid d then Buffer.add_substring b s i len
        else String.iter esc (String.sub s i len);
        go (i + len)
  in
  Buffer.add_char b '"';
  go 0;
  Buffer.add_char b '"'

(* The shortest decimal that reads back as the same float.  Any decimal
   of at most 15 significant digits survives a round trip through a
   double, so %.15g finds it whenever it exists. *)
let float_repr x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  let s = go 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let seq b l r f xs =
  Buffer.add_char b l;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    xs;
  Buffer.add_char b r

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x when Float.is_finite x -> Buffer.add_string b (float_repr x)
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_escaped b s
  | List l -> seq b '[' ']' add l
  | Obj kvs ->
    seq b '{' '}'
      (fun b (k, v) ->
        add_escaped b k;
        Buffer.add_char b ':';
        add b v)
      kvs

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------ *)

exception Bad of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "%s at byte %d" m !pos))) fmt
  in
  (* past the end, [peek] reads a NUL, which no rule accepts *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip p = while p (peek ()) do incr pos done in
  let ws () = skip (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false) in
  let eat c = peek () = c && (incr pos; true) in
  let expect c = if not (eat c) then fail "expected '%c'" c in
  let literal w v = String.iter expect w; v in
  let hex4 () =
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if !pos + 4 > n || not (String.for_all hex (String.sub s !pos 4)) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 4) 4)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      if !pos >= n then fail "unterminated string";
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        let e = peek () in
        incr pos;
        (match (e, String.index_opt "\"\\/bfnrt" e) with
        | _, Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
        | 'u', None ->
          let u = hex4 () in
          let u =
            if u >= 0xD800 && u <= 0xDBFF && eat '\\' then begin
              expect 'u';
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "bad surrogate pair";
              0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else u
          in
          if not (Uchar.is_valid u) then fail "lone surrogate";
          Buffer.add_utf_8_uchar b (Uchar.of_int u)
        | _ -> fail "invalid escape");
        go ()
      | c when c < ' ' -> fail "raw control byte 0x%02x" (Char.code c)
      | _ ->
        let d = String.get_utf_8_uchar s (!pos - 1) in
        if not (Uchar.utf_decode_is_valid d) then fail "invalid UTF-8";
        Buffer.add_utf_8_uchar b (Uchar.utf_decode_uchar d);
        pos := !pos - 1 + Uchar.utf_decode_length d;
        go ()
    in
    go ()
  in
  (* RFC 8259 section 6: an optional minus, 0 or digits without a
     leading zero, an optional fraction, an optional exponent *)
  let number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      skip (function '0' .. '9' -> true | _ -> false);
      if !pos = d then fail "expected a digit"
    in
    ignore (eat '-');
    if not (eat '0') then digits ();
    let frac = eat '.' in
    if frac then digits ();
    let exp = eat 'e' || eat 'E' in
    if exp then begin
      ignore (eat '+' || eat '-');
      digits ()
    end;
    let lexeme = String.sub s start (!pos - start) in
    match int_of_string_opt lexeme with
    | Some i when not (frac || exp) -> Int i
    | _ -> Float (float_of_string lexeme)
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> Obj (items '{' '}' member)
    | '[' -> List (items '[' ']' value)
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ when !pos >= n -> fail "unexpected end of input"
    | c -> fail "unexpected %C" c
  and member () =
    ws ();
    let k = string_lit () in
    ws ();
    expect ':';
    (k, value ())
  and items : 'a. char -> char -> (unit -> 'a) -> 'a list =
   fun open_ close item ->
    expect open_;
    ws ();
    if eat close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        if eat ',' then go acc
        else if eat close then List.rev acc
        else fail "expected ',' or '%c'" close
      in
      go []
  in
  match
    let v = value () in
    ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m
