(* Exact compile fingerprints: one digest per compiled program over
   everything the analyses decide, checked against digests recorded in
   test/data/compile_fingerprints.txt.  A digest covers the sorted
   points-to sets, the call graph (edges, icall targets, resolution),
   every sync-schedule set and resume pair, the policy text, the
   schedule's flash bytes and the flash/SRAM contents after
   [Image.load].  The programs are the registry apps on every backend,
   the compile-sweep benchmark programs of seed 1 and the size-2
   generator cases of seeds 0..200. *)

module An = Opec_analysis
module C = Opec_core
module M = Opec_machine
module SS = Set.Make (String)

let ref_file = "data/compile_fingerprints.txt"

let digest_image (image : C.Image.t) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let names l = String.concat "," l in
  let set s = names (SS.elements s) in
  List.iter
    (fun (n, members) -> line "pts %s = %s" n (names members))
    (An.Points_to.bindings image.C.Image.points_to);
  let cg = image.C.Image.callgraph in
  let edges kind tbl =
    Hashtbl.fold (fun f s acc -> (f, s) :: acc) tbl []
    |> List.sort compare
    |> List.iter (fun (f, s) -> line "%s %s -> %s" kind f (set s))
  in
  edges "direct" cg.An.Callgraph.direct;
  edges "indirect" cg.An.Callgraph.indirect;
  List.iter
    (fun (i : An.Callgraph.icall_info) ->
      line "icall %s %s %s" i.An.Callgraph.site_func
        (match i.An.Callgraph.resolved_by with
        | `Points_to -> "points-to"
        | `Types -> "types"
        | `Unresolved -> "unresolved")
        (names i.An.Callgraph.targets))
    cg.An.Callgraph.icalls;
  let ss = image.C.Image.syncsets in
  let ops = An.Syncset.ops ss in
  List.iter
    (fun op ->
      List.iter
        (fun (what, get) -> line "%s %s = %s" what op (set (get ss op)))
        [ ("slots", An.Syncset.slots_of); ("read", An.Syncset.may_read);
          ("write", An.Syncset.may_write); ("out", An.Syncset.out_set);
          ("enter", An.Syncset.enter_set); ("relevant", An.Syncset.relevant_set);
          ("ro", An.Syncset.ro_set); ("fill", An.Syncset.fill_set);
          ("unobserved", An.Syncset.unobserved_set) ];
      List.iter
        (fun dst ->
          line "resume %s %s = %s" op dst
            (set (An.Syncset.resume_set ss ~src:op ~dst)))
        ops)
    ops;
  line "unobserved = %s" (set (An.Syncset.unobserved ss));
  line "escaped = %s" (set (An.Syncset.escaped ss));
  line "conservative = %b" (An.Syncset.conservative_resume ss);
  List.iter (fun (s, d) -> line "pair %s %s" s d) (An.Syncset.pairs ss);
  Buffer.add_string b (C.Compiler.policy image);
  line "syncset_bytes = %d" image.C.Image.syncset_bytes;
  line "flash_used = %d sram_used = %d" image.C.Image.flash_used
    image.C.Image.sram_used;
  let bus = M.Bus.create ~board:image.C.Image.board in
  C.Image.load image bus;
  let span mem base used =
    let n = min used (M.Memory.limit mem - base) in
    Buffer.add_bytes b (M.Memory.blit_out mem base n)
  in
  span bus.M.Bus.flash M.Memmap.flash_base image.C.Image.flash_used;
  span bus.M.Bus.sram M.Memmap.sram_base image.C.Image.sram_used;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (name, compile) for every fingerprinted program, in file order. *)
let programs () =
  let registry =
    List.concat_map
      (fun (app : Opec_apps.App.t) ->
        List.map
          (fun backend ->
            ( Printf.sprintf "app:%s:%s" app.Opec_apps.App.app_name
                (M.Backend.kind_name backend),
              fun () ->
                C.Compiler.compile ~board:app.Opec_apps.App.board ~backend
                  app.Opec_apps.App.program app.Opec_apps.App.dev_input ))
          M.Backend.all_kinds)
      (Opec_apps.Registry.all ())
  in
  let gen name ~seed ~size =
    ( Printf.sprintf "%s:%d" name seed,
      fun () ->
        let program, input = Opec_fuzz.Gen.case ~seed ~size in
        C.Compiler.compile program input )
  in
  registry
  @ List.init 1500 (fun i -> gen "sweep" ~seed:(1_000_000 + i) ~size:3)
  @ List.init 201 (fun seed -> gen "gen2" ~seed ~size:2)

let digests () =
  List.map (fun (name, compile) -> (name, digest_image (compile ()))) (programs ())

let read_ref () =
  In_channel.with_open_text ref_file In_channel.input_lines
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ name; d ] -> Some (name, d)
         | _ -> None)

let test_fingerprints () =
  let expected = read_ref () in
  let actual = digests () in
  Alcotest.(check int) "program count" (List.length expected) (List.length actual);
  List.iter2
    (fun (en, ed) (an, ad) ->
      if not (String.equal en an && String.equal ed ad) then
        Alcotest.failf "first differing program: %s (expected %s %s, got %s %s)"
          an en ed an ad)
    expected actual

let suite () =
  [ ( "fingerprints",
      [ Alcotest.test_case "compile fingerprints match the recorded digests"
          `Quick test_fingerprints ] ) ]
