(* A small JSON value type with an RFC 8259 printer and parser.

   Strings are escaped per RFC 8259 section 7: the quote, the backslash
   and every control character are escaped, valid UTF-8 passes through,
   and any byte that is not part of a valid UTF-8 sequence is written as
   the \u00XX escape of that byte, so the output is always valid JSON
   whatever bytes a string holds.  OCaml's [%S] is not used: it emits
   [\ddd] escapes, which JSON does not have. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

let add_escaped b s =
  let n = String.length s in
  let rec go i =
    if i < n then begin
      let d = String.get_utf_8_uchar s i in
      if not (Uchar.utf_decode_is_valid d) then begin
        Printf.bprintf b "\\u%04x" (Char.code s.[i]);
        go (i + 1)
      end
      else begin
        let len = Uchar.utf_decode_length d in
        (match Uchar.to_int (Uchar.utf_decode_uchar d) with
        | 0x22 -> Buffer.add_string b "\\\""
        | 0x5c -> Buffer.add_string b "\\\\"
        | 0x0a -> Buffer.add_string b "\\n"
        | 0x0d -> Buffer.add_string b "\\r"
        | 0x09 -> Buffer.add_string b "\\t"
        | 0x08 -> Buffer.add_string b "\\b"
        | 0x0c -> Buffer.add_string b "\\f"
        | c when c < 0x20 -> Printf.bprintf b "\\u%04x" c
        | _ -> Buffer.add_substring b s i len);
        go (i + len)
      end
    end
  in
  Buffer.add_char b '"';
  go 0;
  Buffer.add_char b '"'

(* The shortest decimal form that reads back as the same float: every
   measured digit is kept, and nothing more. *)
let float_repr x =
  let rec try_prec p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else try_prec (p + 1)
  in
  let s = try_prec 1 in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x when Float.is_finite x -> Buffer.add_string b (float_repr x)
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_escaped b s
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        add b v)
      l;
    Buffer.add_char b ']'
  | Assoc kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        add_escaped b k;
        Buffer.add_string b ": ";
        add b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  (* past the end, [peek] reads a NUL, which no rule accepts *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    match v with Some v -> v | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let u = hex4 () in
          let u =
            if u >= 0xD800 && u <= 0xDBFF
               && !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
            then begin
              pos := !pos + 2;
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "bad surrogate pair";
              0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else u
          in
          if Uchar.is_valid u then Buffer.add_utf_8_uchar b (Uchar.of_int u)
          else fail "lone surrogate"
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num s.[!pos] do incr pos done;
    let lexeme = String.sub s start (!pos - start) in
    match int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lexeme with
      | Some x -> Float x
      | None -> fail "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Assoc [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; members ((k, v) :: acc)
          | '}' -> incr pos; Assoc (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; List [])
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; elements (v :: acc)
          | ']' -> incr pos; List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ when !pos >= n -> fail "unexpected end of input"
    | _ -> parse_number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let of_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  try Ok (of_string s) with Parse_error e -> Error (path ^ ": " ^ e)

(* --- access ------------------------------------------------------------- *)

let member k = function
  | Assoc kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float x -> Some x
  | _ -> None
