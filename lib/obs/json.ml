(* JSON string escaping.  Bytes below 0x80 need no decoding; anything
   above starts a UTF-8 sequence, copied through when it decodes and
   escaped byte by byte when it does not. *)

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
  go 0

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""
