(* Tests for the points-to analysis, icall resolution, call graph, and
   resource dependency analysis. *)

open Opec_ir
open Build
module E = Expr
module An = Opec_analysis
module SS = Set.Make (String)

let uart = Peripheral.v "UART" ~base:0x4000_4400 ~size:0x400
let tim = Peripheral.v "TIM" ~base:0x4000_0000 ~size:0x400
let dwt = Peripheral.v ~core:true "DWT" ~base:0xE000_1000 ~size:0x400

let mk ?(globals = []) funcs =
  Program.v ~name:"t" ~globals ~peripherals:[ tim; uart; dwt ] ~funcs ()

let sorted l = List.sort String.compare l

let targets_of p =
  let pts = An.Points_to.solve p in
  List.map (fun site -> An.Points_to.icall_targets pts site)
    (An.Points_to.icall_sites pts)

let test_direct_global_use () =
  let p =
    mk
      ~globals:[ word "a"; word "b" ]
      [ func "f" []
          [ load "x" (gv "a"); store (gv "b") (l "x"); ret0 ];
        func "main" [] [ call "f" []; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let res = An.Resource.analyze p pts in
  let fr = An.Resource.of_func res "f" in
  Alcotest.(check (list string)) "direct globals" [ "a"; "b" ]
    (sorted (SS.elements fr.An.Resource.direct_globals));
  let mr = An.Resource.of_func res "main" in
  Alcotest.(check (list string)) "main touches nothing" []
    (SS.elements (An.Resource.globals mr))

let test_indirect_global_use () =
  (* g is reached through a pointer passed as an argument *)
  let p =
    mk
      ~globals:[ words "g" 4 ]
      [ func "write_to" [ pp_ "p" Ty.Word ] [ store (l "p") (c 1); ret0 ];
        func "main" [] [ call "write_to" [ gv "g" ]; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let res = An.Resource.analyze p pts in
  let fr = An.Resource.of_func res "write_to" in
  Alcotest.(check (list string)) "indirect" [ "g" ]
    (SS.elements fr.An.Resource.indirect_globals)

let test_local_targets_filtered () =
  (* pointers to stack data must not be reported as globals *)
  let p =
    mk
      [ func "write_to" [ pp_ "p" Ty.Word ] [ store (l "p") (c 1); ret0 ];
        func "main" []
          [ alloca "buf" (Ty.Array (Ty.Word, 2));
            call "write_to" [ l "buf" ];
            halt ] ]
  in
  let pts = An.Points_to.solve p in
  let res = An.Resource.analyze p pts in
  let fr = An.Resource.of_func res "write_to" in
  Alcotest.(check (list string)) "no globals" []
    (SS.elements (An.Resource.globals fr))

let test_peripheral_constant () =
  let p =
    mk [ func "f" [] [ store (reg uart 4) (c 1); ret0 ];
         func "main" [] [ call "f" []; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let res = An.Resource.analyze p pts in
  let fr = An.Resource.of_func res "f" in
  Alcotest.(check (list string)) "uart found" [ "UART" ]
    (SS.elements fr.An.Resource.peripherals)

let test_peripheral_through_handle () =
  (* the datasheet address flows through a handle struct in a global,
     as STM32 HAL drivers do *)
  let p =
    mk
      ~globals:[ struct_ "h" [ ("Instance", Ty.Pointer Ty.Word) ] ]
      [ func "init" [] [ store (gv "h") (c 0x4000_4400); ret0 ];
        func "use" [ pp_ "handle" Ty.Word ]
          [ load "inst" (l "handle");
            store E.(l "inst" + c 4) (c 0xFF);
            ret0 ];
        func "main" [] [ call "init" []; call "use" [ gv "h" ]; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let res = An.Resource.analyze p pts in
  let ur = An.Resource.of_func res "use" in
  Alcotest.(check (list string)) "uart via handle" [ "UART" ]
    (SS.elements ur.An.Resource.peripherals)

let test_core_peripheral_classified () =
  let p =
    mk [ func "f" [] [ load "v" (reg dwt 4); ret (l "v") ];
         func "main" [] [ call "f" []; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let res = An.Resource.analyze p pts in
  let fr = An.Resource.of_func res "f" in
  Alcotest.(check (list string)) "core" [ "DWT" ]
    (SS.elements fr.An.Resource.core_peripherals);
  Alcotest.(check (list string)) "not general" []
    (SS.elements fr.An.Resource.peripherals)

let test_icall_points_to () =
  let p =
    mk
      ~globals:[ Global.v "cb" (Ty.Pointer Ty.Word) ]
      [ func "handler" [ pw "x" ] [ ret (l "x") ];
        func "other" [ pw "x" ] [ ret (l "x") ];
        func "main" []
          [ store (gv "cb") (fn "handler");
            load "f" (gv "cb");
            icall ~dst:"r" (l "f") [ c 1 ];
            halt ] ]
  in
  (match targets_of p with
  | [ targets ] ->
    Alcotest.(check (list string)) "only the stored handler" [ "handler" ] targets
  | l -> Alcotest.failf "expected 1 icall site, got %d" (List.length l));
  (* over-approximation: storing both makes both targets *)
  let p2 =
    mk
      ~globals:[ Global.v "cb" (Ty.Pointer Ty.Word) ]
      [ func "handler" [ pw "x" ] [ ret (l "x") ];
        func "other" [ pw "x" ] [ ret (l "x") ];
        func "main" []
          [ store (gv "cb") (fn "handler");
            store (gv "cb") (fn "other");
            load "f" (gv "cb");
            icall ~dst:"r" (l "f") [ c 1 ];
            halt ] ]
  in
  (match targets_of p2 with
  | [ targets ] ->
    Alcotest.(check (list string)) "both (flow-insensitive)"
      [ "handler"; "other" ] (sorted targets)
  | l -> Alcotest.failf "expected 1 icall site, got %d" (List.length l));
  (* a resolved target's return value flows back to the call site *)
  let p3 =
    mk
      ~globals:[ Global.v "cb" (Ty.Pointer Ty.Word); word "target" ]
      [ func "handler" [] [ ret (gv "target") ];
        func "main" []
          [ store (gv "cb") (fn "handler");
            load "f" (gv "cb");
            icall ~dst:"r" (l "f") [];
            halt ] ]
  in
  Alcotest.(check bool) "return flows back" true
    (List.mem (An.Node.Global "target")
       (An.Points_to.points_to (An.Points_to.solve p3) ~func:"main" ~local:"r"))

let test_icall_through_argument () =
  (* the function pointer travels through a call *)
  let p =
    mk
      [ func "apply" [ pp_ "f" Ty.Word; pw "x" ]
          [ icall ~dst:"r" (l "f") [ l "x" ]; ret (l "r") ];
        func "inc" [ pw "x" ] [ ret E.(l "x" + c 1) ];
        func "main" [] [ call ~dst:"r" "apply" [ fn "inc"; c 1 ]; halt ] ]
  in
  match targets_of p with
  | [ targets ] -> Alcotest.(check (list string)) "via param" [ "inc" ] targets
  | l -> Alcotest.failf "expected 1 icall site, got %d" (List.length l)

let test_type_fallback () =
  (* a pointer the points-to analysis cannot resolve (loaded from a
     peripheral register) falls back to arity-based matching among
     address-taken functions *)
  let p =
    mk
      ~globals:[ Global.v "unused_ref" (Ty.Pointer Ty.Word) ]
      [ func "two_args" [ pw "a"; pw "b" ] [ ret E.(l "a" + l "b") ];
        func "one_arg" [ pw "a" ] [ ret (l "a") ];
        func "main" []
          [ store (gv "unused_ref") (fn "one_arg");
            load "f" (reg tim 0);
            icall ~dst:"r" (l "f") [ c 1 ];
            halt ] ]
  in
  let pts = An.Points_to.solve p in
  let cg = An.Callgraph.build p pts in
  match cg.An.Callgraph.icalls with
  | [ info ] ->
    Alcotest.(check bool) "resolved by types" true
      (info.An.Callgraph.resolved_by = `Types);
    Alcotest.(check (list string)) "arity-1 address-taken candidate"
      [ "one_arg" ] info.An.Callgraph.targets
  | l -> Alcotest.failf "expected 1 icall, got %d" (List.length l)

let test_reachability_stopping () =
  let p =
    mk
      [ func "leaf" [] [ ret0 ];
        func "taskb" [] [ call "leaf" []; ret0 ];
        func "taska" [] [ call "leaf" []; call "taskb" []; ret0 ];
        func "main" [] [ call "taska" []; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let cg = An.Callgraph.build p pts in
  let all = An.Callgraph.reachable cg "taska" in
  Alcotest.(check (list string)) "unrestricted reach"
    [ "leaf"; "taska"; "taskb" ]
    (sorted (An.Callgraph.SS.elements all));
  let stopped =
    An.Callgraph.reachable_stopping cg ~entry:"taska"
      ~stops:(An.Callgraph.SS.of_list [ "taska"; "taskb" ])
  in
  Alcotest.(check (list string)) "backtracks at taskb" [ "leaf"; "taska" ]
    (sorted (An.Callgraph.SS.elements stopped))

let test_memcpy_dependency () =
  let p =
    mk
      ~globals:[ words "src" 4; words "dst" 4 ]
      [ func "f" [] [ memcpy (gv "dst") (gv "src") (c 16); ret0 ];
        func "main" [] [ call "f" []; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let res = An.Resource.analyze p pts in
  let fr = An.Resource.of_func res "f" in
  Alcotest.(check (list string)) "both sides" [ "dst"; "src" ]
    (sorted (SS.elements (An.Resource.globals fr)))

let test_memcpy_pointer_propagation () =
  (* a pointer stored into [src] must flow through memcpy into [dst]:
     a load from dst afterwards may yield &target *)
  let p =
    mk
      ~globals:[ word "target"; word "src_slot"; word "dst_slot" ]
      [ func "main" []
          [ store (gv "src_slot") (gv "target");
            memcpy (gv "dst_slot") (gv "src_slot") (c 4);
            load "p" (gv "dst_slot");
            store (l "p") (c 9);
            halt ] ]
  in
  let pts = An.Points_to.solve p in
  let set = An.Points_to.points_to pts ~func:"main" ~local:"p" in
  Alcotest.(check bool) "p may point to target" true
    (List.mem (An.Node.Global "target") set);
  (* and the resource analysis sees the write through it *)
  let res = An.Resource.analyze p pts in
  let fr = An.Resource.of_func res "main" in
  Alcotest.(check bool) "target in indirect globals" true
    (SS.mem "target" fr.An.Resource.indirect_globals)

let test_peripheral_base_plus_offset () =
  (* base+offset arithmetic must const-fold into the datasheet window *)
  let p =
    mk
      [ func "f" [] [ store E.(c 0x4000_0000 + c 0x14) (c 1); ret0 ];
        func "main" [] [ call "f" []; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let res = An.Resource.analyze p pts in
  let fr = An.Resource.of_func res "f" in
  Alcotest.(check (list string)) "TIM identified" [ "TIM" ]
    (SS.elements fr.An.Resource.peripherals)

let test_icall_arity_mismatch_unresolved () =
  (* a pointer the analysis cannot resolve, at an arity no function
     has: the type fallback must NOT invent targets *)
  let p =
    mk
      [ func "cb2" [ pw "a"; pw "b" ] [ ret E.(l "a" + l "b") ];
        func "main" [] [ set "p" (c 0); icall (l "p") [ c 1 ]; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let cg = An.Callgraph.build p pts in
  (match cg.An.Callgraph.icalls with
  | [ ic ] ->
    Alcotest.(check bool) "unresolved" true (ic.resolved_by = `Unresolved);
    Alcotest.(check (list string)) "no targets" [] ic.targets
  | l -> Alcotest.failf "expected one icall site, got %d" (List.length l));
  (* control: at a matching arity the fallback does resolve *)
  let p2 =
    mk
      [ func "cb2" [ pw "a"; pw "b" ] [ ret E.(l "a" + l "b") ];
        func "main" [] [ set "p" (c 0); icall (l "p") [ c 1; c 2 ]; halt ] ]
  in
  let pts2 = An.Points_to.solve p2 in
  let cg2 = An.Callgraph.build p2 pts2 in
  match cg2.An.Callgraph.icalls with
  | [ ic ] ->
    Alcotest.(check bool) "type fallback" true (ic.resolved_by = `Types);
    Alcotest.(check (list string)) "cb2 candidate" [ "cb2" ] ic.targets
  | l -> Alcotest.failf "expected one icall site, got %d" (List.length l)

(* --- may-read/may-write dataflow and sync schedules ---------------------- *)

module Co = Opec_core

let test_dataflow_rw_split () =
  let p =
    mk
      ~globals:[ word "a"; word "b"; word "c" ]
      [ func "f" [] [ load "x" (gv "a"); store (gv "b") (l "x"); ret0 ];
        func "g" [ pp_ "p" Ty.Word ] [ store (l "p") (c 1); ret0 ];
        func "main" [] [ call "f" []; call "g" [ gv "c" ]; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let rw = An.Dataflow.analyze p pts in
  let fr = An.Dataflow.of_func rw "f" in
  Alcotest.(check (list string)) "f reads a" [ "a" ]
    (SS.elements fr.An.Dataflow.reads);
  Alcotest.(check (list string)) "f writes b" [ "b" ]
    (SS.elements fr.An.Dataflow.writes);
  (* the write through g's pointer parameter lands on c *)
  let gr = An.Dataflow.of_func rw "g" in
  Alcotest.(check (list string)) "g writes c through its parameter" [ "c" ]
    (SS.elements gr.An.Dataflow.writes);
  Alcotest.(check (list string)) "g reads nothing" []
    (SS.elements gr.An.Dataflow.reads);
  (* the join over {f, g} is the union of both directions *)
  let both = An.Dataflow.of_funcs rw (SS.of_list [ "f"; "g" ]) in
  Alcotest.(check (list string)) "joined writes" [ "b"; "c" ]
    (SS.elements both.An.Dataflow.writes)

let test_dataflow_memcpy () =
  let p =
    mk
      ~globals:[ words "src" 4; words "dst" 4 ]
      [ func "cp" [] [ memcpy (gv "dst") (gv "src") (c 16); ret0 ];
        func "main" [] [ call "cp" []; halt ] ]
  in
  let rw = An.Dataflow.analyze p (An.Points_to.solve p) in
  let r = An.Dataflow.of_func rw "cp" in
  Alcotest.(check (list string)) "memcpy reads src" [ "src" ]
    (SS.elements r.An.Dataflow.reads);
  Alcotest.(check (list string)) "memcpy writes dst" [ "dst" ]
    (SS.elements r.An.Dataflow.writes)

let test_escaped_globals () =
  (* storing a global's address into a peripheral register gives the
     device an unbounded write capability over it *)
  let p =
    mk
      ~globals:[ word "dma_buf"; word "plain" ]
      [ func "arm" [] [ store (reg uart 0) (gv "dma_buf"); ret0 ];
        func "main" [] [ call "arm" []; store (gv "plain") (c 1); halt ] ]
  in
  let esc = An.Dataflow.escaped_globals p (An.Points_to.solve p) in
  Alcotest.(check (list string)) "dma_buf escapes" [ "dma_buf" ]
    (SS.elements esc)

let sync_sample () =
  Program.v ~name:"syncset-sample"
    ~globals:[ word "shared"; word "priv_b" ]
    ~peripherals:[]
    ~funcs:
      [ func "task_a" [] [ store (gv "shared") (c 1); ret0 ];
        func "task_b" []
          [ load "x" (gv "shared"); store (gv "priv_b") (l "x"); ret0 ];
        func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
    ()

let test_syncset_schedule () =
  let image =
    Co.Compiler.compile (sync_sample ()) (Co.Dev_input.v [ "task_a"; "task_b" ])
  in
  let ss = image.Co.Image.syncsets in
  let op_of entry =
    (List.find
       (fun (o : Co.Operation.t) -> String.equal o.entry entry)
       image.Co.Image.ops)
      .Co.Operation.name
  in
  let a = op_of "task_a" and b = op_of "task_b" in
  let elems s = SS.elements s in
  (* task_a writes the shared slot; task_b only reads it (priv_b is
     internal, so never a slot) *)
  Alcotest.(check (list string)) "out(a)" [ "shared" ]
    (elems (An.Syncset.out_set ss a));
  Alcotest.(check (list string)) "out(b)" [] (elems (An.Syncset.out_set ss b));
  (* task_b provably never writes shared: the slot maps read-only onto
     the master and drops out of every copy schedule *)
  Alcotest.(check (list string)) "ro(b)" [ "shared" ]
    (elems (An.Syncset.ro_set ss b));
  Alcotest.(check (list string)) "enter(b)" []
    (elems (An.Syncset.enter_set ss b));
  Alcotest.(check (list string)) "enter(a)" []
    (elems (An.Syncset.enter_set ss a));
  (* raw sets keep internals: task_b may write priv_b *)
  Alcotest.(check (list string)) "may_write(b)" [ "priv_b" ]
    (elems (An.Syncset.may_write ss b));
  Alcotest.(check (list string)) "may_read(b)" [ "shared" ]
    (elems (An.Syncset.may_read ss b));
  (* no SVC yields: explicit pair scheduling, with a's writes visible
     when b resumes after it *)
  Alcotest.(check bool) "precise resume" false
    (An.Syncset.conservative_resume ss);
  Alcotest.(check bool) "pairs exist" true (An.Syncset.pairs ss <> []);
  Alcotest.(check (list string)) "resume(a -> b)" []
    (elems (An.Syncset.resume_set ss ~src:a ~dst:b));
  Alcotest.(check bool) "unknown op raises" true
    (match An.Syncset.out_set ss "nonesuch" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* a sanitized slot is always published, even one the program does
     not declare *)
  let views =
    List.map
      (fun (op : Co.Operation.t) ->
        let slots = An.Syncset.slots_of ss op.name in
        { An.Syncset.ov_name = op.name; ov_entry = op.entry; ov_funcs = op.funcs;
          ov_slots = (if String.equal op.name a then SS.add "ghost" slots else slots);
          ov_killed = SS.empty })
      image.Co.Image.ops
  in
  let ss' =
    An.Syncset.compute ~ops:views ~callgraph:image.Co.Image.callgraph
      ~rw:(An.Dataflow.analyze image.Co.Image.source image.Co.Image.points_to)
      ~escaped:SS.empty ~sanitized:(SS.singleton "ghost") ~ptr_vars:SS.empty
      ~has_irq:false ~conservative_resume:false
  in
  Alcotest.(check (list string)) "out(a) with an undeclared sanitized slot"
    [ "ghost"; "shared" ] (elems (An.Syncset.out_set ss' a));
  Alcotest.(check (list string)) "ro(b) unchanged" [ "shared" ]
    (elems (An.Syncset.ro_set ss' b))

let test_kill_analysis () =
  (* entry values are dead when the operation provably overwrites the
     whole variable before reading it: through a callee's direct store,
     a covering memcpy, or a [Build.for_] fill loop — but never for an
     address-taken variable, and never after an exposed read *)
  let p =
    mk
      ~globals:
        [ word "k1"; word "e1"; words "buf" 4; words "src" 4; words "arr" 4;
          word "at"; word "hold" ]
      [ func "helper" [] [ store (gv "k1") (c 7); ret0 ];
        func "f" []
          ([ call "helper" [];
             load "x" (gv "e1");
             store (gv "e1") E.(l "x" + c 1);
             memcpy (gv "buf") (gv "src") (c 16) ]
          @ for_ "i" (c 4) [ store E.(gv "arr" + (l "i" * c 4)) (c 0) ]
          @ [ store (gv "hold") (gv "at"); store (gv "at") (c 1); ret0 ]);
        func "main" [] [ call "f" []; halt ] ]
  in
  let pts = An.Points_to.solve p in
  let rw = An.Dataflow.analyze p pts in
  let cg = An.Callgraph.build p pts in
  let ex =
    An.Dataflow.exposure p pts rw cg ~op_entries:(SS.singleton "f")
  in
  let killed = An.Dataflow.killed_of ex ~entry:"f" in
  (* k1 via the callee, buf via memcpy, arr via the fill loop, hold via
     its direct whole-word store; e1 is read first and at is
     address-taken, so neither is killed *)
  Alcotest.(check (list string)) "killed" [ "arr"; "buf"; "hold"; "k1" ]
    (SS.elements killed)

let test_syncset_dead_publish () =
  (* a slot every observer kills before reading carries no information
     across switches: its publish is dead and dropped from every out
     set, and [unobserved] names it for the dynamic oracles *)
  let p =
    Program.v ~name:"dead-publish"
      ~globals:[ word "scratch"; word "shared" ]
      ~peripherals:[]
      ~funcs:
        [ func "task_a" []
            [ store (gv "scratch") (c 5);
              load "t" (gv "scratch");
              store (gv "shared") (l "t");
              ret0 ];
          func "task_b" []
            [ store (gv "scratch") (c 9);
              load "u" (gv "scratch");
              load "s" (gv "shared");
              store (gv "scratch") E.(l "u" + l "s");
              ret0 ];
          func "main" [] [ call "task_a" []; call "task_b" []; halt ] ]
      ()
  in
  let image =
    Co.Compiler.compile p (Co.Dev_input.v [ "task_a"; "task_b" ])
  in
  let ss = image.Co.Image.syncsets in
  let op_of entry =
    (List.find
       (fun (o : Co.Operation.t) -> String.equal o.entry entry)
       image.Co.Image.ops)
      .Co.Operation.name
  in
  let a = op_of "task_a" and b = op_of "task_b" in
  let elems s = SS.elements s in
  Alcotest.(check (list string)) "out(a) publishes only shared" [ "shared" ]
    (elems (An.Syncset.out_set ss a));
  Alcotest.(check (list string)) "out(b) is empty" []
    (elems (An.Syncset.out_set ss b));
  Alcotest.(check (list string)) "unobserved(a)" [ "scratch" ]
    (elems (An.Syncset.unobserved_set ss a));
  Alcotest.(check (list string)) "unobserved(b)" [ "scratch" ]
    (elems (An.Syncset.unobserved_set ss b));
  Alcotest.(check (list string)) "global unobserved union" [ "scratch" ]
    (elems (An.Syncset.unobserved ss));
  (* b reads shared but never writes it: read-only master mapping, so
     no entry refill either *)
  Alcotest.(check (list string)) "ro(b)" [ "shared" ]
    (elems (An.Syncset.ro_set ss b));
  Alcotest.(check (list string)) "enter(b)" []
    (elems (An.Syncset.enter_set ss b))

let test_syncset_conservative_on_svc () =
  let p = sync_sample () in
  let yield =
    Func.v "yield" ~params:[]
      ~body:[ Instr.Svc Opec_monitor.Threads.yield_svc; Instr.Return None ]
  in
  let p =
    { p with Program.funcs = yield :: p.Program.funcs }
  in
  Alcotest.(check bool) "program has a raw svc" true (An.Dataflow.has_svc p);
  let image = Co.Compiler.compile p (Co.Dev_input.v [ "task_a"; "task_b" ]) in
  let ss = image.Co.Image.syncsets in
  Alcotest.(check bool) "conservative resume" true
    (An.Syncset.conservative_resume ss);
  Alcotest.(check bool) "no explicit pairs" true (An.Syncset.pairs ss = []);
  (* resume falls back to the enter set *)
  let op_of entry =
    (List.find
       (fun (o : Co.Operation.t) -> String.equal o.entry entry)
       image.Co.Image.ops)
      .Co.Operation.name
  in
  let a = op_of "task_a" and b = op_of "task_b" in
  Alcotest.(check (list string)) "resume = enter under yields"
    (SS.elements (An.Syncset.enter_set ss b))
    (SS.elements (An.Syncset.resume_set ss ~src:a ~dst:b))

let suite () =
  [ ( "analysis",
      [ Alcotest.test_case "direct globals" `Quick test_direct_global_use;
        Alcotest.test_case "indirect globals" `Quick test_indirect_global_use;
        Alcotest.test_case "locals filtered" `Quick test_local_targets_filtered;
        Alcotest.test_case "peripheral constants" `Quick test_peripheral_constant;
        Alcotest.test_case "peripheral via handle" `Quick test_peripheral_through_handle;
        Alcotest.test_case "core peripherals" `Quick test_core_peripheral_classified;
        Alcotest.test_case "icall via points-to" `Quick test_icall_points_to;
        Alcotest.test_case "icall via argument" `Quick test_icall_through_argument;
        Alcotest.test_case "type-based fallback" `Quick test_type_fallback;
        Alcotest.test_case "DFS backtracking" `Quick test_reachability_stopping;
        Alcotest.test_case "memcpy deps" `Quick test_memcpy_dependency;
        Alcotest.test_case "memcpy pointer propagation" `Quick
          test_memcpy_pointer_propagation;
        Alcotest.test_case "peripheral base+offset" `Quick
          test_peripheral_base_plus_offset;
        Alcotest.test_case "icall arity mismatch" `Quick
          test_icall_arity_mismatch_unresolved;
        Alcotest.test_case "dataflow read/write split" `Quick
          test_dataflow_rw_split;
        Alcotest.test_case "dataflow memcpy" `Quick test_dataflow_memcpy;
        Alcotest.test_case "escaped globals" `Quick test_escaped_globals;
        Alcotest.test_case "kill analysis" `Quick test_kill_analysis;
        Alcotest.test_case "syncset schedule" `Quick test_syncset_schedule;
        Alcotest.test_case "syncset dead publish" `Quick
          test_syncset_dead_publish;
        Alcotest.test_case "syncset conservative on svc" `Quick
          test_syncset_conservative_on_svc ] ) ]
