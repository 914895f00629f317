(* Tests for the OPEC-Compiler pipeline: partitioning, classification,
   layout with shadowing, MPU planning, instrumentation, and image
   accounting. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module C = Opec_core
module SS = Set.Make (String)

let uart = Peripheral.v "UART" ~base:0x4000_4400 ~size:0x400
let gpio = Peripheral.v "GPIO" ~base:0x4002_0C00 ~size:0x400
let tim = Peripheral.v "TIM" ~base:0x4000_0000 ~size:0x400
let tim_next = Peripheral.v "TIM_NEXT" ~base:0x4000_0400 ~size:0x400

let sample_program () =
  Program.v ~name:"sample"
    ~globals:
      [ word "shared"; word "only_a" ~init:5L; word "only_b";
        words "unreached" 2; word ~const:true "k" ~init:9L ]
    ~peripherals:[ tim; tim_next; uart; gpio ]
    ~funcs:
      [ func "helper" [] [ load "x" (gv "shared"); ret (l "x") ];
        func "task_a" []
          [ call ~dst:"v" "helper" [];
            store (gv "only_a") (l "v");
            store (gv "shared") E.(l "v" + c 1);
            store (reg uart 4) (c 1);
            ret0 ];
        func "task_b" []
          [ call ~dst:"v" "helper" [];
            store (gv "only_b") (l "v");
            store (reg gpio 0x14) (c 1);
            ret0 ];
        func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
    ()

let compile ?(entries = [ "task_a"; "task_b" ]) () =
  C.Compiler.compile (sample_program ()) (C.Dev_input.v entries)

let test_partition_membership () =
  let image = compile () in
  let op name =
    match C.Image.op_of_entry image name with
    | Some op -> op
    | None -> Alcotest.failf "no op for %s" name
  in
  Alcotest.(check (list string)) "task_a funcs" [ "helper"; "task_a" ]
    (SS.elements (op "task_a").C.Operation.funcs);
  Alcotest.(check (list string)) "task_b funcs" [ "helper"; "task_b" ]
    (SS.elements (op "task_b").C.Operation.funcs);
  (* the default operation stops at the other entries *)
  let dop = C.Image.default_op image in
  Alcotest.(check (list string)) "default funcs" [ "main" ]
    (SS.elements dop.C.Operation.funcs)

let test_entry_validation () =
  let p = sample_program () in
  Alcotest.check_raises "undefined entry"
    (C.Partition.Invalid_entry "ghost is not defined") (fun () ->
      ignore (C.Compiler.compile p (C.Dev_input.v [ "ghost" ])));
  let p_varargs =
    Program.v ~name:"v" ~globals:[] ~peripherals:[]
      ~funcs:
        [ Func.v ~varargs:true "printfish" ~params:[] ~body:[ ret0 ];
          func "main" [] [ halt ] ]
      ()
  in
  Alcotest.check_raises "varargs entry"
    (C.Partition.Invalid_entry "printfish has variable-length arguments")
    (fun () ->
      ignore (C.Compiler.compile p_varargs (C.Dev_input.v [ "printfish" ])));
  let p_irq =
    Program.v ~name:"v" ~globals:[] ~peripherals:[]
      ~funcs:
        [ Func.v ~irq:true "SysTick_Handler" ~params:[] ~body:[ ret0 ];
          func "main" [] [ halt ] ]
      ()
  in
  Alcotest.check_raises "irq entry"
    (C.Partition.Invalid_entry
       "SysTick_Handler is within an interrupt handling routine") (fun () ->
      ignore (C.Compiler.compile p_irq (C.Dev_input.v [ "SysTick_Handler" ])))

let test_global_classification () =
  let image = compile () in
  let layout = image.C.Image.layout in
  Alcotest.(check (list string)) "shared is external" [ "shared" ]
    layout.C.Layout.externals;
  (* internals live in their op's section; unreached vars sit in public *)
  let sec name =
    match C.Layout.section_of layout name with
    | Some s -> s
    | None -> Alcotest.failf "no section for %s" name
  in
  Alcotest.(check bool) "only_a internal to task_a" true
    (C.Layout.slot_addr (sec "task_a") "only_a" <> None);
  Alcotest.(check bool) "only_b internal to task_b" true
    (C.Layout.slot_addr (sec "task_b") "only_b" <> None);
  Alcotest.(check bool) "unreached is in public" true
    (C.Layout.slot_addr layout.C.Layout.public "unreached" <> None);
  (* const globals are not in SRAM at all *)
  Alcotest.(check bool) "const not in public" true
    (C.Layout.slot_addr layout.C.Layout.public "k" = None)

let test_shadow_layout_invariants () =
  let image = compile () in
  let layout = image.C.Image.layout in
  (* every op section base is aligned to its MPU region size *)
  List.iter
    (fun (_name, (s : C.Layout.section)) ->
      let size = s.C.Layout.span in
      Alcotest.(check int) "aligned base" 0 (s.C.Layout.base mod size);
      Alcotest.(check bool) "region covers section" true
        (s.C.Layout.used <= size))
    layout.C.Layout.op_sections;
  (* sections do not overlap *)
  let ranges =
    List.map
      (fun (_n, (s : C.Layout.section)) ->
        (s.C.Layout.base, s.C.Layout.base + s.C.Layout.span))
      layout.C.Layout.op_sections
    |> List.sort compare
  in
  let rec no_overlap = function
    | (_, l1) :: ((b2, _) :: _ as rest) ->
      Alcotest.(check bool) "disjoint" true (l1 <= b2);
      no_overlap rest
    | [ _ ] | [] -> ()
  in
  no_overlap ranges;
  (* both sharers have distinct shadows of "shared" *)
  let sa = C.Layout.shadow_of layout ~op:"task_a" ~var:"shared" in
  let sb = C.Layout.shadow_of layout ~op:"task_b" ~var:"shared" in
  Alcotest.(check bool) "shadows exist" true (sa <> None && sb <> None);
  Alcotest.(check bool) "shadows distinct" true (sa <> sb);
  Alcotest.(check bool) "master exists too" true
    (C.Layout.master_of layout "shared" <> None)

let test_peripheral_merging () =
  (* adjacent peripherals merge into one MPU range *)
  let p =
    Program.v ~name:"m" ~globals:[]
      ~peripherals:[ tim; tim_next; uart ]
      ~funcs:
        [ func "t" []
            [ store (reg tim 0) (c 1);
              store (reg tim_next 0) (c 1);
              store (reg uart 0) (c 1);
              ret0 ];
          func "main" [] [ call "t" []; halt ] ]
      ()
  in
  let image = C.Compiler.compile p (C.Dev_input.v [ "t" ]) in
  let op = Option.get (C.Image.op_of_entry image "t") in
  Alcotest.(check (list (pair int int))) "merged adjacent + separate uart"
    [ (0x4000_0000, 0x4000_0800); (0x4000_4400, 0x4000_4800) ]
    op.C.Operation.periph_ranges

let test_mpu_plan () =
  let image = compile () in
  let op = Option.get (C.Image.op_of_entry image "task_a") in
  let meta = Option.get (C.Image.meta_of image op.C.Operation.name) in
  let regions = meta.C.Metadata.periph_regions in
  Alcotest.(check int) "uart needs one region" 1 (List.length regions);
  let r = List.hd regions in
  Alcotest.(check int) "covers the uart base" 0x4000_4400 r.M.Mpu.base;
  Alcotest.(check int) "0x400 window" 10 r.M.Mpu.size_log2

let test_instrumentation () =
  let image = compile () in
  (* the instrumented program still validates *)
  ignore (Program.validate image.C.Image.program);
  (* helper accesses the external var: its body must start with a
     relocation-slot load *)
  let helper = Program.func_exn image.C.Image.program "helper" in
  (match helper.Func.body with
  | Instr.Load (tmp, Instr.W32, Expr.Const slot) :: _ ->
    Alcotest.(check string) "reloc temp" "$rel_shared" tmp;
    Alcotest.(check bool) "slot address matches layout" true
      (C.Layout.reloc_slot image.C.Image.layout "shared"
      = Some (Int64.to_int slot))
  | _ -> Alcotest.fail "expected a relocation load prologue");
  (* no instruction mentions &shared directly any more *)
  let mentions_shared =
    Instr.fold_block
      (fun acc instr ->
        acc
        ||
        match instr with
        | Instr.Load (_, _, Expr.Global_addr "shared")
        | Instr.Store (_, Expr.Global_addr "shared", _) -> true
        | _ -> false)
      false helper.Func.body
  in
  Alcotest.(check bool) "direct access rewritten" false mentions_shared

let has_rel_prologue (f : Func.t) =
  List.exists
    (function
      | Instr.Load (tmp, _, _) ->
        String.length tmp > 5 && String.sub tmp 0 5 = "$rel_"
      | _ -> false)
    f.Func.body

(* task_a belongs to one operation and writes [shared]: its slot would
   only ever hold task_a's shadow, so the constant replaces the load *)
let test_resolved_relocation () =
  let image = compile () in
  let task_a = Program.func_exn image.C.Image.program "task_a" in
  Alcotest.(check bool) "no relocation prologue" false (has_rel_prologue task_a);
  let shadow =
    Option.get
      (C.Layout.shadow_of image.C.Image.layout ~op:"task_a" ~var:"shared")
  in
  let stores_to_shadow =
    Instr.fold_block
      (fun acc instr ->
        acc
        ||
        match instr with
        | Instr.Store (_, Expr.Const a, _) -> Int64.to_int a = shadow
        | _ -> false)
      false task_a.Func.body
  in
  Alcotest.(check bool) "&shared is task_a's shadow" true stores_to_shadow;
  Alcotest.(check bool) "site recorded" true
    (List.mem
       { C.Instrument.fn = "task_a"; var = "shared"; addr = shadow }
       image.C.Image.stats.C.Instrument.resolved);
  (* helper is in both operations and keeps its load (see
     [test_instrumentation]); it is the one table site left *)
  Alcotest.(check int) "table loads" 1
    image.C.Image.stats.C.Instrument.reloc_sites;
  (* the paper's configuration routes task_a through the table too, and
     pays for one more load: its IR instruction in the code-size model *)
  let table =
    C.Compiler.compile ~resolve_relocs:false (sample_program ())
      (C.Dev_input.v [ "task_a"; "task_b" ])
  in
  Alcotest.(check bool) "table-only keeps the prologue" true
    (has_rel_prologue (Program.func_exn table.C.Image.program "task_a"));
  Alcotest.(check int) "table-only resolves nothing" 0
    (List.length table.C.Image.stats.C.Instrument.resolved);
  Alcotest.(check int) "one load's flash saved" Program.bytes_per_instr
    (table.C.Image.flash_used - image.C.Image.flash_used)

(* A read-only mapping's slot targets the master under the static
   schedule but the shadow under the sync ablations: no single
   constant is right, so the load stays even in a one-operation
   function. *)
let test_read_only_keeps_table () =
  let p =
    Program.v ~name:"ro"
      ~globals:[ word "shared"; word "out" ]
      ~peripherals:[]
      ~funcs:
        [ func "writer" [] [ store (gv "shared") (c 7); ret0 ];
          func "reader" []
            [ load "v" (gv "shared"); store (gv "out") (l "v"); ret0 ];
          func "main" [] [ call "writer" []; call "reader" []; halt ] ]
      ()
  in
  let image = C.Compiler.compile p (C.Dev_input.v [ "writer"; "reader" ]) in
  Alcotest.(check bool) "shared is read-only in reader" true
    (Opec_analysis.Syncset.SS.mem "shared"
       (Opec_analysis.Syncset.ro_set image.C.Image.syncsets "reader"));
  let reader = Program.func_exn image.C.Image.program "reader" in
  (match reader.Func.body with
  | Instr.Load ("$rel_shared", Instr.W32, Expr.Const slot) :: _ ->
    Alcotest.(check (option int)) "slot address" (Some (Int64.to_int slot))
      (C.Layout.reloc_slot image.C.Image.layout "shared")
  | _ -> Alcotest.fail "reader should load its relocation slot");
  Alcotest.(check bool) "writer resolved" false
    (has_rel_prologue (Program.func_exn image.C.Image.program "writer"))

(* The paper's configuration (every shared-global use through the
   table) stays reproducible: its protected cycles on CoreMark and
   PinLock are pinned.  They are the ones recorded before resolution
   existed, less the relocation writes the monitor no longer makes: a
   slot no function of the current operation reads, or one whose
   target is the same in every operation that reads it. *)
let test_table_only_cycles () =
  List.iter
    (fun ((app : Opec_apps.App.t), expected) ->
      let image =
        C.Compiler.compile ~board:app.Opec_apps.App.board
          ~resolve_relocs:false app.Opec_apps.App.program
          app.Opec_apps.App.dev_input
      in
      let world = app.Opec_apps.App.make_world () in
      world.Opec_apps.App.prepare ();
      let r =
        Opec_monitor.Runner.run_protected
          ~devices:world.Opec_apps.App.devices image
      in
      Alcotest.(check int64)
        (app.Opec_apps.App.app_name ^ " table-only protected cycles")
        expected
        (Opec_exec.Interp.cycles r.Opec_monitor.Runner.interp))
    [ (Opec_apps.Registry.coremark (), 4_230_871L);
      (Opec_apps.Registry.pinlock (), 10_067_981L) ]

let test_image_accounting () =
  let image = compile () in
  Alcotest.(check bool) "flash grows vs baseline" true
    (C.Image.flash_used_delta image > 0);
  Alcotest.(check bool) "sram grows vs baseline" true
    (image.C.Image.sram_used > C.Image.baseline_sram image);
  Alcotest.(check bool) "privileged code is monitor + metadata" true
    (C.Image.privileged_code_bytes image >= C.Config.monitor_code_size)

let test_policy_rendering () =
  let image = compile () in
  let text = C.Compiler.policy image in
  let contains needle =
    let n = String.length text and m = String.length needle in
    let rec go i =
      if i + m > n then false
      else String.sub text i m = needle || go (i + 1)
    in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then Alcotest.failf "policy misses %S" needle)
    [ "task_a"; "task_b"; "UART"; "GPIO"; "shared" ]

(* property: random share patterns never produce overlapping sections and
   never put a variable's shadow outside its op section *)
let prop_layout_random =
  let gen =
    QCheck.Gen.(list_size (int_range 1 12) (int_range 1 512))
  in
  let arb = QCheck.make ~print:(fun l -> String.concat "," (List.map string_of_int l)) gen in
  QCheck.Test.make ~name:"layout invariants on random variable sizes" ~count:60
    arb (fun sizes ->
      (* task_a gets the even-indexed vars, task_b the odd ones, and
         every third var is shared by both *)
      let globals =
        List.mapi (fun i n -> bytes (Printf.sprintf "v%d" i) n) sizes
      in
      let accesses pred =
        List.concat
          (List.mapi
             (fun i _ ->
               if pred i then
                 [ store8 (gv (Printf.sprintf "v%d" i)) (c 1) ]
               else [])
             sizes)
      in
      let p =
        Program.v ~name:"r" ~globals ~peripherals:[]
          ~funcs:
            [ func "task_a" [] (accesses (fun i -> i mod 2 = 0 || i mod 3 = 0) @ [ ret0 ]);
              func "task_b" [] (accesses (fun i -> i mod 2 = 1 || i mod 3 = 0) @ [ ret0 ]);
              func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
          ()
      in
      let image = C.Compiler.compile p (C.Dev_input.v [ "task_a"; "task_b" ]) in
      let layout = image.C.Image.layout in
      let sections = List.map snd layout.C.Layout.op_sections in
      let aligned =
        List.for_all
          (fun (s : C.Layout.section) ->
            s.C.Layout.base mod s.C.Layout.span = 0
            && s.C.Layout.used <= s.C.Layout.span)
          sections
      in
      let slots_inside =
        List.for_all
          (fun (s : C.Layout.section) ->
            List.for_all
              (fun (sl : C.Layout.slot) ->
                sl.C.Layout.addr >= s.C.Layout.base
                && sl.C.Layout.addr + sl.C.Layout.size
                   <= s.C.Layout.base + s.C.Layout.span)
              s.C.Layout.slots)
          sections
      in
      aligned && slots_inside)

let suite () =
  [ ( "compiler",
      [ Alcotest.test_case "partition membership" `Quick test_partition_membership;
        Alcotest.test_case "entry validation" `Quick test_entry_validation;
        Alcotest.test_case "global classification" `Quick test_global_classification;
        Alcotest.test_case "layout invariants" `Quick test_shadow_layout_invariants;
        Alcotest.test_case "peripheral merging" `Quick test_peripheral_merging;
        Alcotest.test_case "mpu plan" `Quick test_mpu_plan;
        Alcotest.test_case "instrumentation" `Quick test_instrumentation;
        Alcotest.test_case "resolved relocation" `Quick test_resolved_relocation;
        Alcotest.test_case "read-only keeps the table" `Quick
          test_read_only_keeps_table;
        Alcotest.test_case "table-only cycles pinned" `Quick
          test_table_only_cycles;
        Alcotest.test_case "image accounting" `Quick test_image_accounting;
        Alcotest.test_case "policy rendering" `Quick test_policy_rendering;
        QCheck_alcotest.to_alcotest prop_layout_random ] ) ]
