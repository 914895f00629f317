module Pool = Opec_pipeline.Pool

type failure = {
  f_seed : int;
  f_property : string;
  f_detail : string;
  f_funcs_before : int;
  f_funcs_after : int;
  f_repro : string option;
}

type report = {
  r_lo : int;
  r_hi : int;
  r_size : int;
  r_properties : string list;
  r_passed : int;
  r_failures : failure list;
}

let resolve_properties = function
  | None -> Oracle.all
  | Some names ->
    List.map
      (fun n ->
        match Oracle.find n with
        | Some p -> p
        | None ->
          invalid_arg
            (Printf.sprintf "unknown fuzz property %S (known: %s)" n
               (String.concat ", "
                  (List.map (fun p -> p.Oracle.name) Oracle.all))))
      names

let mkdir_p dir =
  let rec make d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

(* shrink against the one property that failed: the minimized program
   must fail for the same reason the original did *)
let shrink_repro ~property ~detail ~out_dir ~do_shrink ~file_label ~seed ~size
    program dev_input =
  let prop =
    match Oracle.find property with Some p -> p | None -> assert false
  in
  let test (case : Shrink.case) =
    Oracle.check_app ~properties:[ prop ]
      (Gen.app_of case.Shrink.program case.Shrink.dev_input)
    <> []
  in
  let original = { Shrink.program; dev_input } in
  let minimized, _tests =
    if do_shrink then Shrink.shrink ~test original else (original, 0)
  in
  let path =
    Filename.concat out_dir
      (Printf.sprintf "repro-%s-%s.sexp" file_label property)
  in
  mkdir_p out_dir;
  Repro.save path
    { Repro.seed; size; property; detail;
      program = minimized.Shrink.program;
      dev_input = minimized.Shrink.dev_input };
  (Shrink.func_count original, Shrink.func_count minimized, path)

let shrink_failure ~property ~size ~seed ~detail ~out_dir ~do_shrink program
    dev_input =
  let before, after, path =
    shrink_repro ~property ~detail ~out_dir ~do_shrink
      ~file_label:(Printf.sprintf "seed%d" seed)
      ~seed:(Some seed) ~size:(Some size) program dev_input
  in
  { f_seed = seed;
    f_property = property;
    f_detail = detail;
    f_funcs_before = before;
    f_funcs_after = after;
    f_repro = Some path }

let run ?domains ?(size = 2) ?properties ?(out_dir = "_fuzz")
    ?(shrink = true) ~lo ~hi () =
  if hi < lo then invalid_arg "Runner.run: empty seed range";
  let props = resolve_properties properties in
  let seeds = List.init (hi - lo + 1) (fun i -> lo + i) in
  let judge seed =
    let program, dev_input = Gen.case ~seed ~size in
    let fails =
      Oracle.check_app ~properties:props (Gen.app_of program dev_input)
    in
    (seed, program, dev_input, fails)
  in
  let results = Pool.map ?domains judge seeds in
  let failures =
    List.filter_map
      (fun (seed, program, dev_input, fails) ->
        match fails with
        | [] -> None
        | (property, detail) :: _ ->
          Some
            (shrink_failure ~property ~size ~seed ~detail ~out_dir
               ~do_shrink:shrink program dev_input))
      results
  in
  { r_lo = lo;
    r_hi = hi;
    r_size = size;
    r_properties = List.map (fun p -> p.Oracle.name) props;
    r_passed = List.length seeds - List.length failures;
    r_failures = failures }

let replay path =
  match Repro.load path with
  | r -> Ok (Oracle.check_app (Repro.to_app r))
  | exception
      (Opec_ir.Sexp.Parse_error reason | Opec_ir.Program.Ill_formed reason) ->
    Error reason

(* --- coverage-guided mode ----------------------------------------------- *)

type guided_failure = {
  gf_origin : string;   (** "seed N" or "mutant <kind> of <origin>" *)
  gf_property : string;
  gf_detail : string;
  gf_funcs_before : int;
  gf_funcs_after : int;
  gf_repro : string option;
}

type guided_report = {
  g_lo : int;
  g_hi : int;
  g_size : int;
  g_budget : int;
  g_corpus_dir : string;
  g_loaded : int;
  g_skipped : (string * string) list;
  g_executions : int;
  g_new_entries : int;
  g_mutants_kept : int;
  g_edges : int;
  g_curve : (int * int) list;  (** (execution, cumulative edges) growth points *)
  g_failures : guided_failure list;
}

(* The guided loop is sequential by design: each verdict decides
   whether the input enters the corpus that later mutations draw from,
   so the judging order IS the algorithm.  The per-case oracles still
   fan their inner work across the domain pool. *)
let run_guided ?(size = 2) ?properties ?(out_dir = "_fuzz") ?(shrink = true)
    ?budget ~corpus_dir ~lo ~hi () =
  if hi < lo then invalid_arg "Runner.run_guided: empty seed range";
  let props = resolve_properties properties in
  let budget = Option.value budget ~default:(hi - lo + 1) in
  let loaded = Corpus.load corpus_dir in
  let cov = ref Coverage.empty in
  let execs = ref 0 in
  let curve = ref [] in
  let failures = ref [] in
  let repro_count = ref 0 in
  let next_index = ref (Corpus.next_index corpus_dir) in
  let new_entries = ref 0 in
  let mutants_kept = ref 0 in
  (* the in-memory pool mutations draw from: clean judged cases *)
  let pool = ref [] in
  let judge ~origin ~persist (case : Shrink.case) =
    incr execs;
    let app = Gen.app_of case.Shrink.program case.Shrink.dev_input in
    let c = Opec_pipeline.Pipeline.ctx app in
    match Coverage.of_ctx c with
    | exception _ ->
      (* an input the toolchain rejects outright contributes nothing *)
      Opec_pipeline.Pipeline.evict c;
      false
    | case_cov ->
      let fails = Oracle.check_app ~properties:props app in
      let news = Coverage.news ~base:!cov case_cov in
      cov := Coverage.union !cov case_cov;
      if news > 0 then curve := (!execs, Coverage.cardinal !cov) :: !curve;
      (match fails with
      | (property, detail) :: _ ->
        incr repro_count;
        let before, after, path =
          shrink_repro ~property ~detail ~out_dir ~do_shrink:shrink
            ~file_label:(Printf.sprintf "guided%d" !repro_count)
            ~seed:None ~size:(Some size) case.Shrink.program
            case.Shrink.dev_input
        in
        failures :=
          { gf_origin = origin; gf_property = property; gf_detail = detail;
            gf_funcs_before = before; gf_funcs_after = after;
            gf_repro = Some path }
          :: !failures
      | [] ->
        pool := (origin, case) :: !pool;
        if news > 0 && persist then begin
          ignore
            (Corpus.save ~dir:corpus_dir ~index:!next_index ~provenance:origin
               case);
          incr next_index;
          incr new_entries
        end);
      news > 0
  in
  (* 1. replay the persisted corpus: regression seeds from prior runs *)
  List.iter
    (fun (e : Corpus.entry) ->
      ignore (judge ~origin:(Filename.basename e.Corpus.path) ~persist:false
                e.Corpus.case))
    loaded.Corpus.entries;
  (* 2. the seed range, as in blind mode, but feeding the map *)
  for seed = lo to hi do
    let program, dev_input = Gen.case ~seed ~size in
    ignore
      (judge ~origin:(Printf.sprintf "seed %d" seed) ~persist:true
         { Shrink.program; dev_input })
  done;
  (* 3. mutation budget over the pool, keeping what grows the map *)
  let rng = Rng.create (0x4f504543 + lo + (31 * hi) + size) in
  for _ = 1 to budget do
    match !pool with
    | [] -> ()
    | pool_now ->
      let parent_origin, parent =
        List.nth pool_now (Rng.below rng (List.length pool_now))
      in
      (match Mutate.mutate ~rng parent with
      | None -> ()
      | Some (kind, case') ->
        let origin =
          Printf.sprintf "mutant %s of %s" (Mutate.kind_name kind)
            parent_origin
        in
        if judge ~origin ~persist:true case' then incr mutants_kept)
  done;
  { g_lo = lo;
    g_hi = hi;
    g_size = size;
    g_budget = budget;
    g_corpus_dir = corpus_dir;
    g_loaded = List.length loaded.Corpus.entries;
    g_skipped = loaded.Corpus.skipped;
    g_executions = !execs;
    g_new_entries = !new_entries;
    g_mutants_kept = !mutants_kept;
    g_edges = Coverage.cardinal !cov;
    g_curve = List.rev !curve;
    g_failures = List.rev !failures }

let pp_guided_report f r =
  Format.fprintf f
    "@[<v>opec fuzz (guided): seeds %d..%d size %d, mutation budget %d@,"
    r.g_lo r.g_hi r.g_size r.g_budget;
  Format.fprintf f
    "corpus %s: %d loaded, %d skipped, %d new entries (%d from mutants)@,"
    r.g_corpus_dir r.g_loaded
    (List.length r.g_skipped)
    r.g_new_entries r.g_mutants_kept;
  List.iter
    (fun (path, reason) ->
      Format.fprintf f "  skipped stale %s: %s@," path reason)
    r.g_skipped;
  Format.fprintf f "%d executions, %d coverage edges, %d failure(s)@,"
    r.g_executions r.g_edges
    (List.length r.g_failures);
  (match r.g_curve with
  | [] -> ()
  | curve ->
    Format.fprintf f "growth: %s@,"
      (String.concat " "
         (List.map (fun (x, e) -> Printf.sprintf "%d:%d" x e) curve)));
  List.iter
    (fun x ->
      Format.fprintf f "  %s: %s — %s@," x.gf_origin x.gf_property x.gf_detail;
      Format.fprintf f "    shrunk %d -> %d functions%s@," x.gf_funcs_before
        x.gf_funcs_after
        (match x.gf_repro with
        | Some p -> Printf.sprintf ", reproducer %s" p
        | None -> ""))
    r.g_failures;
  Format.fprintf f "@]"

(* JSON views of the two reports, for [--json] CLI runs whose stdout
   must stay machine-parseable: one object, no trailing text.  Stale
   corpus diagnostics are NOT part of the JSON payload's prose — they
   ride in [skipped] as structured records (and the CLI mirrors them to
   stderr). *)

module Json = Opec_obs.Json

let str s = Json.String s and int i = Json.Int i
let repro_json = function None -> Json.Null | Some p -> str p

let failure_json x =
  Json.Obj
    [ ("seed", int x.f_seed); ("property", str x.f_property);
      ("detail", str x.f_detail); ("funcs_before", int x.f_funcs_before);
      ("funcs_after", int x.f_funcs_after); ("repro", repro_json x.f_repro) ]

let report_json r =
  Json.Obj
    [ ("mode", str "blind"); ("lo", int r.r_lo); ("hi", int r.r_hi);
      ("size", int r.r_size);
      ("properties", Json.List (List.map str r.r_properties));
      ("passed", int r.r_passed);
      ("failures", Json.List (List.map failure_json r.r_failures)) ]

let guided_failure_json x =
  Json.Obj
    [ ("origin", str x.gf_origin); ("property", str x.gf_property);
      ("detail", str x.gf_detail); ("funcs_before", int x.gf_funcs_before);
      ("funcs_after", int x.gf_funcs_after); ("repro", repro_json x.gf_repro) ]

let guided_report_json r =
  let skipped (path, reason) =
    Json.Obj [ ("path", str path); ("reason", str reason) ]
  in
  let point (x, e) = Json.List [ int x; int e ] in
  Json.Obj
    [ ("mode", str "guided"); ("lo", int r.g_lo); ("hi", int r.g_hi);
      ("size", int r.g_size); ("budget", int r.g_budget);
      ("corpus_dir", str r.g_corpus_dir); ("loaded", int r.g_loaded);
      ("skipped", Json.List (List.map skipped r.g_skipped));
      ("executions", int r.g_executions); ("new_entries", int r.g_new_entries);
      ("mutants_kept", int r.g_mutants_kept); ("edges", int r.g_edges);
      ("curve", Json.List (List.map point r.g_curve));
      ("failures", Json.List (List.map guided_failure_json r.g_failures)) ]

(* --- seeded-defect efficiency ------------------------------------------- *)

type efficiency = {
  e_defect : string;
  e_budget : int;
  e_blind_execs : int;        (** = budget: blind has no stopping signal *)
  e_blind_first : int option; (** execution of first rediscovery *)
  e_guided_execs : int;       (** until coverage saturation *)
  e_guided_first : int option;
}

(* Both modes get the same seed budget and judge the same cases; what
   differs is the stopping rule.  Blind generation has no signal that
   it is done, so its cost is the whole budget (every case is judged —
   rediscovery does not stop it).  The guided mode watches the
   coverage map: once the defect has fired and [saturation] consecutive
   cases add no new edge, there is no unexplored policy surface left
   and it stops.  The efficiency gate asserts the guided mode
   rediscovers every defect class while spending strictly fewer
   judgments. *)
let defect_efficiency ?(size = 2) ?(saturation = 2) ~lo ~hi () =
  if hi < lo then invalid_arg "Runner.defect_efficiency: empty seed range";
  let board = Opec_machine.Memmap.stm32f4_discovery in
  let module C = Opec_core in
  let budget = hi - lo + 1 in
  let routed d =
    match Oracle.find (Defect.caught_by d) with
    | Some p -> p
    | None -> invalid_arg "defect routed to unknown property"
  in
  (* one pass over the budget, shared by every mode and defect *)
  let cov = ref Coverage.empty in
  let per_case =
    List.init budget (fun i ->
        let seed = lo + i in
        let program, dev_input = Gen.case ~seed ~size in
        let grew =
          match Coverage.of_case program dev_input with
          | case_cov ->
            let news = Coverage.news ~base:!cov case_cov in
            cov := Coverage.union !cov case_cov;
            news > 0
          | exception _ -> false
        in
        let fired =
          List.map
            (fun d ->
              let hit =
                match C.Compiler.compile ~board program dev_input with
                | exception _ -> false
                | img -> (
                  match Defect.apply d img with
                  | None -> false
                  | Some bad -> (
                    try
                      Oracle.check_app ~image:bad ~properties:[ routed d ]
                        (Gen.app_of program dev_input)
                      <> []
                    with _ -> false))
              in
              (d, hit))
            Defect.all
        in
        (grew, fired))
  in
  List.map
    (fun d ->
      let fired_at i =
        let _, fired = List.nth per_case (i - 1) in
        List.assoc d fired
      in
      let first =
        let rec go i =
          if i > budget then None
          else if fired_at i then Some i
          else go (i + 1)
        in
        go 1
      in
      let guided_stop =
        let rec go i dry seen_fire =
          if i > budget then budget
          else
            let grew, _ = List.nth per_case (i - 1) in
            let dry = if grew then 0 else dry + 1 in
            let seen_fire = seen_fire || fired_at i in
            if seen_fire && dry >= saturation then i else go (i + 1) dry seen_fire
        in
        go 1 0 false
      in
      let guided_first =
        match first with
        | Some i when i <= guided_stop -> Some i
        | _ -> None
      in
      { e_defect = Defect.name d;
        e_budget = budget;
        e_blind_execs = budget;
        e_blind_first = first;
        e_guided_execs = guided_stop;
        e_guided_first = guided_first })
    Defect.all

let pp_report f r =
  Format.fprintf f "@[<v>opec fuzz: seeds %d..%d size %d (%s)@,"
    r.r_lo r.r_hi r.r_size
    (String.concat ", " r.r_properties);
  Format.fprintf f "%d passed, %d failed@," r.r_passed
    (List.length r.r_failures);
  List.iter
    (fun x ->
      Format.fprintf f "  seed %d: %s — %s@," x.f_seed x.f_property
        x.f_detail;
      Format.fprintf f "    shrunk %d -> %d functions%s@," x.f_funcs_before
        x.f_funcs_after
        (match x.f_repro with
        | Some p -> Printf.sprintf ", reproducer %s" p
        | None -> ""))
    r.r_failures;
  Format.fprintf f "@]"
