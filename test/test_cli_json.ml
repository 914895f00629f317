(* JSON-output purity of the CLI: every [--json] mode must emit
   machine-parseable JSON on stdout — diagnostics and warnings belong
   on stderr.  These tests spawn the real binary and run a minimal
   JSON reader over the captured stdout; a stray prose line anywhere
   in the stream fails the parse. *)

(* The test binary runs from test/ inside the dune sandbox; the CLI
   executable lands next to it under ../bin. *)
let cli = Filename.concat (Filename.concat ".." "bin") "opec_cli.exe"

(* --- a minimal JSON parser ----------------------------------------------
   Accepts the JSON subset our writers emit (objects, arrays, strings
   with escapes, numbers, booleans, null).  Strings are held to RFC
   8259: no raw control bytes, only the standard escapes, and valid
   UTF-8.  Returns unit — the tests only care that the text IS JSON,
   not what it says. *)

exception Bad of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then raise (Bad "unexpected end");
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    let g = next () in
    if g <> c then raise (Bad (Printf.sprintf "expected %c, got %c" c g))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> raise (Bad (Printf.sprintf "unexpected %c" c))
    | None -> raise (Bad "unexpected end")
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match next () with
        | ',' -> members ()
        | '}' -> ()
        | c -> raise (Bad (Printf.sprintf "expected , or } in object, got %c" c))
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elements () =
        value ();
        skip_ws ();
        match next () with
        | ',' -> elements ()
        | ']' -> ()
        | c -> raise (Bad (Printf.sprintf "expected , or ] in array, got %c" c))
      in
      elements ()
  and string_lit () =
    expect '"';
    let rec go () =
      match next () with
      | '"' -> ()
      | '\\' ->
        (match next () with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> ()
        | 'u' ->
          for _ = 1 to 4 do
            match next () with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
            | c -> raise (Bad (Printf.sprintf "bad \\u digit %C" c))
          done
        | c -> raise (Bad (Printf.sprintf "invalid escape \\%c" c)));
        go ()
      | c when Char.code c < 0x20 ->
        raise (Bad (Printf.sprintf "raw control byte 0x%02x" (Char.code c)))
      | c when Char.code c < 0x80 -> go ()
      | _ ->
        let d = String.get_utf_8_uchar s (!pos - 1) in
        if not (Uchar.utf_decode_is_valid d) then
          raise (Bad (Printf.sprintf "invalid UTF-8 at byte %d" (!pos - 1)));
        pos := !pos - 1 + Uchar.utf_decode_length d;
        go ()
    in
    go ()
  and keyword () =
    let take w =
      if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
      then pos := !pos + String.length w
      else raise (Bad ("bad keyword at " ^ string_of_int !pos))
    in
    match peek () with
    | Some 't' -> take "true"
    | Some 'f' -> take "false"
    | _ -> take "null"
  and number () =
    let start = !pos in
    let cont () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        incr pos;
        true
      | _ -> false
    in
    while cont () do
      ()
    done;
    if !pos = start then raise (Bad "empty number")
  in
  (* one document, or one per line (JSON Lines) *)
  let rec values () =
    value ();
    skip_ws ();
    if !pos < n then values ()
  in
  skip_ws ();
  if !pos = n then raise (Bad "no JSON value");
  values ()

(* run a command, capture stdout (stderr goes to the null device), and
   return (exit_ok, stdout_text) *)
let capture cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status = Unix.WEXITED 0, Buffer.contents buf)

let check_json what text =
  match parse_json text with
  | () -> ()
  | exception Bad msg ->
    Alcotest.failf "%s: stdout is not JSON (%s): %s" what msg text

let test_cmd_json what cmd () =
  if not (Sys.file_exists cli) then
    (* dune always builds bin/ alongside test/, so this is unreachable
       in a normal run; keep the message actionable just in case *)
    Alcotest.failf "CLI binary %s not found" cli
  else begin
    let ok, out = capture cmd in
    Alcotest.(check bool) (what ^ ": exit status zero") true ok;
    check_json what out
  end

(* The parser above must itself reject what a lax writer produces:
   OCaml [%S] escapes, raw control bytes and invalid UTF-8. *)
let test_parser_strict () =
  List.iter
    (fun bad ->
      match parse_json bad with
      | () -> Alcotest.failf "parse_json accepted %S" bad
      | exception Bad _ -> ())
    [ {|"\195\169"|}; "\"\001\""; "\"\xff\""; "\"\xc3\""; {|"\u00g0"|} ];
  parse_json "\"\xc3\xa9 \\u0001 \\\" \\\\\"";
  parse_json {|{"a":["x",1,-2.5e3,true,null]}|}

(* Hostile corpus files: the guided fuzzer reports them as skipped,
   with the file's bytes in the reason — valid UTF-8 (e-acute), a
   control byte, and invalid UTF-8 must all come out as JSON. *)
let test_hostile_corpus () =
  let dir = "_cli_json_hostile" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  List.iteri
    (fun i body ->
      Out_channel.with_open_bin
        (Filename.concat dir (Printf.sprintf "corpus-%06d.sexp" i))
        (fun oc -> output_string oc body))
    [ "(repro \xc3\xa9 \"\001\")"; "(repro \xff\xc3 \xe2\x82 \"\\\"\")" ];
  test_cmd_json "fuzz-hostile"
    (Filename.quote_command cli
       [ "fuzz"; "--seeds"; "0..0"; "--corpus"; dir; "--budget"; "1"; "--out";
         "_cli_json_fuzz"; "--json" ])
    ()

let suite () =
  [ ( "cli-json",
      [ Alcotest.test_case "parse_json is strict" `Quick test_parser_strict;
        Alcotest.test_case "fuzz --json escapes hostile corpus bytes" `Slow
          test_hostile_corpus;
        Alcotest.test_case "fleet --json - is pure JSON" `Slow
          (test_cmd_json "fleet"
             (Filename.quote_command cli
                [ "fleet"; "--apps"; "none"; "--seeds"; "0..1"; "--tasks";
                  "compile"; "--json"; "-"; "-q" ]));
        Alcotest.test_case "syncsets --json is pure JSON" `Slow
          (test_cmd_json "syncsets"
             (Filename.quote_command cli [ "syncsets"; "pinlock"; "--json" ]));
        Alcotest.test_case "load --json is pure JSON" `Slow
          (test_cmd_json "load"
             (Filename.quote_command cli
                [ "load"; "request-storm"; "--events"; "2000"; "--json" ]));
        Alcotest.test_case "fuzz --corpus --json is pure JSON" `Slow
          (test_cmd_json "fuzz"
             (Filename.quote_command cli
                [ "fuzz"; "--seeds"; "0..1"; "--size"; "1"; "--corpus";
                  "_cli_json_corpus"; "--budget"; "1"; "--out";
                  "_cli_json_fuzz"; "--json" ]));
        Alcotest.test_case "fuzz --json is pure JSON" `Slow
          (test_cmd_json "fuzz-blind"
             (Filename.quote_command cli
                [ "fuzz"; "--seeds"; "0..1"; "--size"; "1"; "--out";
                  "_cli_json_fuzz"; "--json" ])) ] ) ]
