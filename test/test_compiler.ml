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
        Alcotest.test_case "image accounting" `Quick test_image_accounting;
        Alcotest.test_case "policy rendering" `Quick test_policy_rendering;
        QCheck_alcotest.to_alcotest prop_layout_random ] ) ]
