(* JSON-output purity of the CLI: every [--json] mode must emit
   machine-parseable JSON on stdout — diagnostics and warnings belong
   on stderr.  These tests spawn the real binary and parse each
   non-blank stdout line as one document with the strict
   [Opec_obs.Json.parse]; a stray prose line anywhere in the stream
   fails.  The printer/parser pair itself is checked here too. *)

module Json = Opec_obs.Json

(* The test binary runs from test/ inside the dune sandbox; the CLI
   executable lands next to it under ../bin. *)
let cli = Filename.concat (Filename.concat ".." "bin") "opec_cli.exe"

(* run a command, capture stdout (stderr goes to the null device), and
   return (exit_ok, stdout_text) *)
let capture cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic = Unix.WEXITED 0, out)

let check_json what text =
  let lines = String.split_on_char '\n' text in
  match List.filter (fun l -> String.trim l <> "") lines with
  | [] -> Alcotest.failf "%s: no JSON on stdout" what
  | docs ->
    List.iter
      (fun l ->
        match Json.parse l with
        | Ok _ -> ()
        | Error msg ->
          Alcotest.failf "%s: stdout line is not JSON (%s): %s" what msg l)
      docs

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

let json = Alcotest.testable (fun f v -> Fmt.string f (Json.to_string v)) ( = )

(* The parser must reject what a lax writer produces (OCaml [%S]
   escapes, raw control bytes, invalid UTF-8) and every number outside
   the RFC grammar. *)
let test_parser_strict () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "Json.parse accepted %S" bad
      | Error _ -> ())
    [ {|"\195\169"|}; "\"\001\""; "\"\xff\""; "\"\xc3\""; {|"\u00g0"|};
      {|"\ud800"|}; "1.2.3"; "-"; "01"; ".5"; "1e"; "+1"; "1."; "[1,]";
      "{} {}"; "" ];
  let ok text v =
    Alcotest.(check (result json string)) text (Ok v) (Json.parse text)
  in
  let open Json in
  ok "\"\xc3\xa9 \\u0001 \\\" \\\\\"" (String "\xc3\xa9 \001 \" \\");
  ok {|{"a":["x",1,-2.5e3,true,null]}|}
    (Obj [ ("a", List [ String "x"; Int 1; Float (-2500.); Bool true; Null ]) ]);
  ok {| [0, -0, 1E+2, 0.5e-1, "\ud83d\ude00"] |}
    (List [ Int 0; Int 0; Float 100.; Float 0.05; String "\xf0\x9f\x98\x80" ])

(* Generated values: valid-UTF-8 strings, finite floats. *)
let gen_value =
  let open QCheck.Gen in
  let utf8 =
    map
      (fun us ->
        let b = Buffer.create 16 in
        List.iter (fun u -> Buffer.add_utf_8_uchar b (Uchar.of_int u)) us;
        Buffer.contents b)
      (list_size (int_bound 6)
         (oneof
            [ int_bound 0x7f; int_range 0x80 0xd7ff; int_range 0xe000 0x10ffff ]))
  in
  let finite = map (fun x -> if Float.is_finite x then x else 0.5) float in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int; map (fun x -> Json.Float x) finite;
        map (fun i -> Json.Float (float_of_int i)) small_signed_int;
        map (fun s -> Json.String s) utf8 ]
  in
  let items g = list_size (int_bound 4) g in
  sized
    (fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.List l) (items (self (n / 4))));
               (1, map (fun kvs -> Json.Obj kvs) (items (pair utf8 (self (n / 4)))))
             ]))

let prop_round_trip =
  QCheck.Test.make ~name:"Json.parse (Json.to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string gen_value)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let prop_any_bytes =
  QCheck.Test.make ~name:"Json.to_string (String s) parses for any bytes"
    ~count:500 QCheck.string
    (fun s -> Result.is_ok (Json.parse (Json.to_string (Json.String s))))

let test_non_finite () =
  let floats xs = Json.List (List.map (fun x -> Json.Float x) xs) in
  Alcotest.(check string) "non-finite floats print as null"
    "[null,null,null,1.0,0.1]"
    (Json.to_string (floats [ nan; infinity; neg_infinity; 1.; 0.1 ]))

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

(* --- usage and input errors ----------------------------------------------- *)

(* run a command and return its exit code and merged stdout/stderr *)
let status cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> (n, out)
  | _ -> Alcotest.failf "%s: killed by a signal" cmd

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_status what ~code ~says cmd =
  let n, out = status cmd in
  Alcotest.(check int) (what ^ ": exit code") code n;
  if not (contains out says) then
    Alcotest.failf "%s: output lacks %S:\n%s" what says out

(* A reproducer that does not parse, or whose program is ill-formed, is
   an input error (exit 1) naming the file, never an uncaught
   exception. *)
let test_replay_bad_file () =
  let write name body =
    Out_channel.with_open_bin name (fun oc -> output_string oc body);
    name
  in
  let truncated = write "_cli_replay_truncated.sexp" "(opec-fuzz-repro (seed 1" in
  check_status "truncated reproducer" ~code:1
    ~says:(truncated ^ ": unterminated list")
    (Filename.quote_command cli [ "fuzz"; "--replay"; truncated ]);
  let ill =
    write "_cli_replay_ill_formed.sexp"
      "(opec-fuzz-repro (program ill main () ()\n\
      \ ((func main main.c false false () ((call _ (d nowhere)) (halt)))))\n\
      \ (dev-input (entries)))\n"
  in
  check_status "ill-formed reproducer" ~code:1
    ~says:(ill ^ ": main calls undefined function nowhere")
    (Filename.quote_command cli [ "fuzz"; "--replay"; ill ])

(* Negative event counts are usage errors (cmdliner's exit 124). *)
let test_negative_counts () =
  check_status "load --events=-5" ~code:124 ~says:"bad count \"-5\""
    (Filename.quote_command cli [ "load"; "request-storm"; "--events=-5" ]);
  check_status "trace --limit=-1" ~code:124 ~says:"bad count \"-1\""
    (Filename.quote_command cli [ "trace"; "PinLock"; "--limit=-1" ])

(* Negative generator sizes and mutation budgets are usage errors. *)
let test_negative_size_budget () =
  check_status "fuzz --size=-3" ~code:124 ~says:"bad count \"-3\""
    (Filename.quote_command cli [ "fuzz"; "--seeds"; "0..0"; "--size=-3" ]);
  check_status "fuzz --budget=-2" ~code:124 ~says:"bad count \"-2\""
    (Filename.quote_command cli
       [ "fuzz"; "--seeds"; "0..0"; "--corpus"; "_cli_corpus"; "--budget=-2" ]);
  check_status "fleet --size=-1" ~code:124 ~says:"bad count \"-1\""
    (Filename.quote_command cli [ "fleet"; "--seeds"; "0..0"; "--size=-1" ])

(* A worker count below one is a usage error on every parallel command. *)
let test_worker_count () =
  List.iter
    (fun cmd ->
      check_status
        (String.concat " " cmd ^ " -j 0")
        ~code:124 ~says:"bad count \"0\""
        (Filename.quote_command cli (cmd @ [ "-j"; "0" ])))
    [ [ "attack" ]; [ "fuzz"; "--seeds"; "0..0" ]; [ "fleet" ];
      [ "compare-backends" ] ]

(* The six commands that take "APP, or every workload of a registry"
   share one lookup: an unknown name gives the same message and exits 1
   on each. *)
let test_unknown_workload () =
  List.iter
    (fun cmd ->
      check_status (cmd ^ " nosuch") ~code:1
        ~says:"error: unknown application \"nosuch\"; try `opec list'"
        (Filename.quote_command cli [ cmd; "nosuch" ]))
    [ "trace"; "profile"; "syncsets"; "lint"; "attack"; "compare-backends" ]

(* An output file that cannot be written is an input error (exit 1),
   reported before the command runs: the error is all it prints. *)
let test_unwritable_out () =
  let path = Filename.concat "_cli_no_such_dir" "x.json" in
  List.iter
    (fun cmd ->
      let what = String.concat " " cmd in
      let n, out = status (Filename.quote_command cli cmd) in
      Alcotest.(check int) (what ^ ": exit code") 1 n;
      Alcotest.(check string) (what ^ ": output")
        (Printf.sprintf "error: cannot write %s: No such file or directory\n"
           path)
        out)
    [ [ "compare-backends"; "pinlock"; "--backends"; "pmp"; "--out"; path ];
      [ "trace"; "pinlock"; "--format"; "json"; "--out"; path ];
      [ "fleet"; "--apps"; "none"; "--seeds"; "0..0"; "--tasks"; "compile";
        "--json"; path; "-q" ];
      [ "fleet"; "--apps"; "none"; "--seeds"; "0..0"; "--tasks"; "compile";
        "--journal"; path; "-q" ] ]

(* [attack --all] attacks every workload, so a named APP with it is an
   input error; an unknown name still gets the lookup's message. *)
let test_attack_all_with_app () =
  check_status "attack nosuch --all" ~code:1
    ~says:"error: unknown application \"nosuch\"; try `opec list'"
    (Filename.quote_command cli [ "attack"; "nosuch"; "--all" ]);
  check_status "attack pinlock --all" ~code:1
    ~says:"error: --all attacks every workload"
    (Filename.quote_command cli [ "attack"; "pinlock"; "--all" ])

(* [compare-backends --out F] writes the [--json] document and a
   newline, the bytes a checked-in BENCH_backends.json holds. *)
let test_compare_backends_out () =
  let path = "_cli_backends.json" in
  let ok, out =
    capture
      (Filename.quote_command cli
         [ "compare-backends"; "pinlock"; "--backends"; "pmp"; "--json";
           "--out"; path ])
  in
  Alcotest.(check bool) "exit status zero" true ok;
  let written = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "--out holds the --json document and a newline"
    out written;
  Alcotest.(check bool) "one line" true
    (String.index_opt written '\n' = Some (String.length written - 1))

let suite () =
  [ ( "cli-json",
      [ Alcotest.test_case "parse_json is strict" `Quick test_parser_strict;
        QCheck_alcotest.to_alcotest prop_round_trip;
        QCheck_alcotest.to_alcotest prop_any_bytes;
        Alcotest.test_case "non-finite floats print as null" `Quick test_non_finite;
        Alcotest.test_case "fuzz --replay rejects a bad file" `Quick
          test_replay_bad_file;
        Alcotest.test_case "negative counts are usage errors" `Quick
          test_negative_counts;
        Alcotest.test_case "negative size and budget are usage errors" `Quick
          test_negative_size_budget;
        Alcotest.test_case "worker counts below one are usage errors" `Quick
          test_worker_count;
        Alcotest.test_case "unknown APP exits 1 on every workload command"
          `Quick test_unknown_workload;
        Alcotest.test_case "an unwritable output file exits 1 before the run"
          `Quick test_unwritable_out;
        Alcotest.test_case "attack rejects APP with --all" `Quick
          test_attack_all_with_app;
        Alcotest.test_case "compare-backends --out is the --json document"
          `Slow test_compare_backends_out;
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
        Alcotest.test_case "attack --json is pure JSON" `Slow
          (test_cmd_json "attack"
             (Filename.quote_command cli [ "attack"; "pinlock"; "--json" ]));
        Alcotest.test_case "compare-backends --json is pure JSON" `Slow
          (test_cmd_json "compare-backends"
             (Filename.quote_command cli
                [ "compare-backends"; "pinlock"; "--json" ]));
        Alcotest.test_case "lint --json is pure JSON" `Slow
          (test_cmd_json "lint"
             (Filename.quote_command cli [ "lint"; "pinlock"; "--json" ]));
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
