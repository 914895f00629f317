(* Tests for the IR interpreter: evaluation, control flow, calls, stack
   discipline, memory intrinsics, and resource limits. *)

open Opec_ir
open Build
module E = Expr
module M = Opec_machine
module Ex = Opec_exec

let board = M.Memmap.stm32f4_discovery

(* run [funcs ++ main] as a baseline binary and return a probe of the
   given global's final value *)
let run_and_read ?(globals = []) ?(devices = []) ~probe funcs =
  let p =
    Program.v ~name:"t" ~globals ~peripherals:[] ~funcs ()
  in
  let bus = M.Bus.create ~board in
  List.iter (M.Bus.attach bus) devices;
  let layout = Ex.Vanilla_layout.make ~board p in
  Ex.Vanilla_layout.load_initial_values bus
    ~global_addr:layout.Ex.Vanilla_layout.map.Ex.Address_map.global_addr p;
  let interp = Ex.Interp.create ~bus ~map:layout.Ex.Vanilla_layout.map p in
  Ex.Interp.run interp;
  M.Bus.read_raw bus
    (layout.Ex.Vanilla_layout.map.Ex.Address_map.global_addr probe)
    4

let test_arith_and_store () =
  let v =
    run_and_read ~globals:[ word "out" ] ~probe:"out"
      [ func "main" []
          [ set "x" (c 6);
            set "y" E.(l "x" * c 7);
            store (gv "out") (l "y");
            halt ] ]
  in
  Alcotest.(check int64) "6*7" 42L v

let test_if_while () =
  let v =
    run_and_read ~globals:[ word "out" ] ~probe:"out"
      [ func "main" []
          ([ set "acc" (c 0) ]
          @ for_ "i" (c 10)
              [ if_ E.(l "i" % c 2 == c 0)
                  [ set "acc" E.(l "acc" + l "i") ]
                  [] ]
          @ [ store (gv "out") (l "acc"); halt ]) ]
  in
  Alcotest.(check int64) "sum of evens < 10" 20L v

let test_call_and_return () =
  let v =
    run_and_read ~globals:[ word "out" ] ~probe:"out"
      [ func "add3" [ pw "a"; pw "b"; pw "d" ] [ ret E.(l "a" + l "b" + l "d") ];
        func "main" []
          [ call ~dst:"r" "add3" [ c 1; c 2; c 3 ];
            store (gv "out") (l "r");
            halt ] ]
  in
  Alcotest.(check int64) "sum" 6L v

let test_spilled_arguments () =
  (* more than four arguments travel via the stack *)
  let v =
    run_and_read ~globals:[ word "out" ] ~probe:"out"
      [ func "six" [ pw "a"; pw "b"; pw "d"; pw "e"; pw "f"; pw "g" ]
          [ ret E.(l "a" + l "b" + l "d" + l "e" + l "f" + l "g") ];
        func "main" []
          [ call ~dst:"r" "six" [ c 1; c 2; c 3; c 4; c 5; c 6 ];
            store (gv "out") (l "r");
            halt ] ]
  in
  Alcotest.(check int64) "six args" 21L v

let test_alloca_and_memset () =
  let v =
    run_and_read ~globals:[ word "out" ] ~probe:"out"
      [ func "main" []
          [ alloca "buf" (Ty.Array (Ty.Byte, 16));
            memset (l "buf") (c 0xAB) (c 16);
            load8 "b" E.(l "buf" + c 7);
            store (gv "out") (l "b");
            halt ] ]
  in
  Alcotest.(check int64) "memset byte" 0xABL v

let test_memcpy () =
  let v =
    run_and_read
      ~globals:[ string_bytes ~const:true "src" 8 "OCaml"; bytes "dst" 8; word "out" ]
      ~probe:"out"
      [ func "main" []
          [ memcpy (gv "dst") (gv "src") (c 5);
            load8 "b" E.(gv "dst" + c 1);
            store (gv "out") (l "b");
            halt ] ]
  in
  Alcotest.(check int64) "copied 'C'" (Int64.of_int (Char.code 'C')) v

let test_recursion () =
  let v =
    run_and_read ~globals:[ word "out" ] ~probe:"out"
      [ func "fib" [ pw "n" ]
          [ if_ E.(l "n" < c 2)
              [ ret (l "n") ]
              [ call ~dst:"a" "fib" [ E.(l "n" - c 1) ];
                call ~dst:"b" "fib" [ E.(l "n" - c 2) ];
                ret E.(l "a" + l "b") ] ];
        func "main" []
          [ call ~dst:"r" "fib" [ c 10 ];
            store (gv "out") (l "r");
            halt ] ]
  in
  Alcotest.(check int64) "fib 10" 55L v

let test_icall () =
  let v =
    run_and_read
      ~globals:[ Global.v "table" (Ty.Array (Ty.Pointer Ty.Word, 2)); word "out" ]
      ~probe:"out"
      [ func "double" [ pw "x" ] [ ret E.(l "x" * c 2) ];
        func "square" [ pw "x" ] [ ret E.(l "x" * l "x") ];
        func "main" []
          [ store (gv "table") (fn "double");
            store E.(gv "table" + c 4) (fn "square");
            load "f" E.(gv "table" + c 4);
            icall ~dst:"r" (l "f") [ c 9 ];
            store (gv "out") (l "r");
            halt ] ]
  in
  Alcotest.(check int64) "dispatched square" 81L v

let test_icall_to_non_function () =
  let p =
    Program.v ~name:"t" ~globals:[] ~peripherals:[]
      ~funcs:
        [ func "main" [] [ icall (c 0x1234) []; halt ] ]
      ()
  in
  let bus = M.Bus.create ~board in
  let layout = Ex.Vanilla_layout.make ~board p in
  let interp = Ex.Interp.create ~bus ~map:layout.Ex.Vanilla_layout.map p in
  Alcotest.check_raises "aborts"
    (Ex.Interp.Aborted "indirect call to non-function 0x00001234") (fun () ->
      Ex.Interp.run interp)

let test_fuel_exhaustion () =
  let p =
    Program.v ~name:"t" ~globals:[] ~peripherals:[]
      ~funcs:[ func "main" [] [ while_ (c 1) [ set "x" (c 0) ] ] ]
      ()
  in
  let bus = M.Bus.create ~board in
  let layout = Ex.Vanilla_layout.make ~board p in
  let interp = Ex.Interp.create ~fuel:10_000 ~bus ~map:layout.Ex.Vanilla_layout.map p in
  Alcotest.check_raises "fuel" Ex.Interp.Fuel_exhausted (fun () ->
      Ex.Interp.run interp)

(* Build [p] under [engine] with [fuel]; run it and return how it ended
   plus the interpreter. *)
let run_engine ?fuel engine p =
  let bus = M.Bus.create ~board in
  let layout = Ex.Vanilla_layout.make ~board p in
  let interp =
    Ex.Interp.create ?fuel ~engine ~bus ~map:layout.Ex.Vanilla_layout.map p
  in
  let outcome =
    match Ex.Interp.run interp with
    | () -> "completed"
    | exception Ex.Interp.Fuel_exhausted -> "fuel exhausted"
    | exception M.Fault.Usage msg -> "usage: " ^ msg
  in
  (outcome, interp)

(* The compiled engine charges fused superblocks in one step, with an
   exact per-instruction slow path when fuel cannot cover a block: at
   every fuel value the run must stop on the same instruction, with the
   same cycle count, as the tree walker. *)
let test_fuel_parity () =
  let p =
    Program.v ~name:"t" ~globals:[ word "out" ] ~peripherals:[]
      ~funcs:
        [ func "bump" [ pw "a" ] [ set "b" E.(l "a" + c 1); ret (l "b") ];
          func "main" []
            [ set "i" (c 0);
              set "acc" (c 0);
              while_
                E.(l "i" < c 1000)
                [ set "t" E.(l "acc" + l "i");
                  set "acc" E.(l "t" * c 3);
                  set "u" E.(l "acc" && c 0xff);
                  store (gv "out") (l "u");
                  call ~dst:"i" "bump" [ l "i" ] ];
              halt ] ]
      ()
  in
  for fuel = 1 to 400 do
    let tree, ti = run_engine ~fuel Ex.Interp.Tree p in
    let compiled, ci = run_engine ~fuel Ex.Interp.Compiled p in
    let what = Printf.sprintf "fuel %d" fuel in
    Alcotest.(check string) (what ^ ": tree runs out") "fuel exhausted" tree;
    Alcotest.(check string) (what ^ ": compiled runs out") "fuel exhausted"
      compiled;
    Alcotest.(check int64) (what ^ ": cycles") (Ex.Interp.cycles ti)
      (Ex.Interp.cycles ci)
  done

(* A read of a local that is unassigned on the path taken faults with
   the same usage message under both engines.  Cycles are not compared:
   an abort inside an expression is the engines' documented divergence
   window (the compiled engine has already charged the whole
   instruction). *)
let test_undefined_local_parity () =
  let p =
    Program.v ~name:"t" ~globals:[ word "out" ] ~peripherals:[]
      ~funcs:
        [ func "main" []
            [ set "x" (c 1);
              if_ E.(l "x" == c 0) [ set "y" (c 5) ] [];
              store (gv "out") E.(l "y" + c 1);
              halt ] ]
      ()
  in
  let tree, _ = run_engine Ex.Interp.Tree p in
  let compiled, _ = run_engine Ex.Interp.Compiled p in
  Alcotest.(check string) "tree faults" "usage: use of undefined local y" tree;
  Alcotest.(check string) "same fault" tree compiled

(* --- int64 edges --------------------------------------------------------- *)

(* The values the compiled engine's unboxed paths must carry exactly:
   the int64 extremes and the edges of the 62-bit native-int range. *)
let edge_values =
  let p62 = Int64.shift_left 1L 62 in
  [ Int64.max_int; Int64.min_int; p62; Int64.neg p62; Int64.sub p62 1L; -1L ]

let shift_counts = [ 0L; 62L; 63L; 64L; 65L ]

(* One program over [edge_values] held in locals: every binary operator
   in every operand shape (local/local, local/constant, constant/local,
   constant/constant), negation and complement, nested trees, signed
   branch tests, and 1- and 4-byte stores reloaded through constant,
   affine and shifted addresses.  Each result is also spilled to [out]
   as two 32-bit halves, so memory holds every result local's 64 bits.
   [tail] ends the run: a halt, or a division that faults. *)
let edge_program tail =
  let n = ref 0 and body = ref [] in
  let emit i = body := i :: !body in
  let record e =
    let x = Printf.sprintf "r%d" !n in
    let lo = !n * 8 in
    let hi = lo + 4 in
    incr n;
    emit (set x e);
    emit (store E.(gv "out" + c lo) (l x));
    emit (store E.(gv "out" + c hi) E.(l x >> c 32))
  in
  let leaf prefix i v =
    let x = Printf.sprintf "%s%d" prefix i in
    emit (set x (E.Const v));
    (E.Local x, E.Const v)
  in
  let vals = List.mapi (leaf "v") edge_values in
  let shifts = List.mapi (leaf "s") shift_counts in
  emit (set "zero" (c 0));
  emit (set "idx" (c 2));
  let shapes (la, ka) (lb, kb) = [ (la, lb); (la, kb); (ka, lb); (ka, kb) ] in
  let pairs xs ys f = List.iter (fun a -> List.iter (fun b -> f a b) ys) xs in
  List.iter
    (fun op ->
      pairs vals vals (fun a b ->
          List.iter (fun (x, y) -> record (E.Bin (op, x, y))) (shapes a b)))
    E.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Eq; Ne; Lt; Le; Gt; Ge ];
  List.iter
    (fun op ->
      pairs vals shifts (fun a b ->
          List.iter (fun (x, y) -> record (E.Bin (op, x, y))) (shapes a b)))
    E.[ Shl; Shr ];
  List.iter
    (fun (x, k) ->
      List.iter
        (fun op -> record (E.Un (op, x)); record (E.Un (op, k)))
        E.[ Neg; Not ])
    vals;
  pairs vals vals (fun (a, _) (b, _) ->
      record E.(((a * b) + (a - b)) * b);
      record E.((a << l "s2") ^ (b >> l "s1"));
      (* signed branch tests, and boolean connectives over them *)
      List.iter
        (fun op ->
          emit (if_ (E.Bin (op, a, b)) [ set "t" (c 1) ] [ set "t" (c 2) ]);
          record (l "t"))
        E.[ Eq; Ne; Lt; Le; Gt; Ge ];
      emit
        (if_
           E.((a < b) && (b <= a || a != b))
           [ set "t" (c 3) ]
           [ set "t" (c 4) ]);
      record (l "t");
      emit (if_ E.(a && b) [ set "t" (c 5) ] [ set "t" (c 6) ]);
      record (l "t"));
  (* narrow stores of wide values, reloaded *)
  List.iter
    (fun (a, _) ->
      emit (store (gv "buf") a);
      emit (load "w" (gv "buf"));
      record (l "w");
      emit (store E.(gv "buf" + (l "idx" * c 4)) a);
      emit (load "w" E.(gv "buf" + (l "idx" * c 4)));
      record (l "w");
      emit (store8 E.(gv "buf" + c 16 + l "idx") a);
      emit (load8 "w" E.(gv "buf" + c 16 + l "idx"));
      record (l "w");
      emit (store E.(gv "buf" + (l "idx" << c 2) + c 20) a);
      emit (load "w" E.(gv "buf" + (l "idx" << c 2) + c 20));
      record (l "w"))
    vals;
  List.iter emit tail;
  emit halt;
  let body = List.rev !body in
  ( Program.v ~name:"edges"
      ~globals:[ words "out" (2 * !n); words "buf" 16 ]
      ~peripherals:[]
      ~funcs:[ func "main" [] body ]
      (),
    2 * !n )

(* Every edge case under both engines: the same outcome, cycles, fuel
   and memory (which holds every result local), with the run ending on
   a halt or on a division by zero in each operand shape. *)
let test_int64_edges () =
  let tails =
    [ ("halt", []);
      ("div local/local by 0", [ set "q" E.(l "v0" / l "zero") ]);
      ("div local/const by 0", [ set "q" E.(l "v1" / c 0) ]);
      ("div const/local by 0", [ set "q" E.(c 7 / l "zero") ]);
      ("rem local/local by 0", [ set "q" E.(l "v2" % l "zero") ]);
      ("rem local/const by 0", [ set "q" E.(l "v3" % c 0) ]);
      ("rem const/local by 0", [ set "q" E.(c 7 % l "zero") ]) ]
  in
  List.iter
    (fun (what, tail) ->
      let p, words = edge_program tail in
      let observe engine =
        let bus = M.Bus.create ~board in
        let layout = Ex.Vanilla_layout.make ~board p in
        let map = layout.Ex.Vanilla_layout.map in
        let interp = Ex.Interp.create ~engine ~bus ~map p in
        let outcome =
          match Ex.Interp.run interp with
          | () -> "completed"
          | exception M.Fault.Usage msg -> "usage: " ^ msg
        in
        let base = map.Ex.Address_map.global_addr "out" in
        let mem =
          List.init (words + 16) (fun i ->
              if i < words then M.Bus.read_raw bus (base + (4 * i)) 4
              else
                M.Bus.read_raw bus
                  (map.Ex.Address_map.global_addr "buf" + (4 * (i - words)))
                  4)
        in
        (outcome, Ex.Interp.cycles interp, Ex.Interp.fuel interp, mem)
      in
      let t_out, t_cyc, t_fuel, t_mem = observe Ex.Interp.Tree in
      let c_out, c_cyc, c_fuel, c_mem = observe Ex.Interp.Compiled in
      Alcotest.(check string) (what ^ ": outcome") t_out c_out;
      Alcotest.(check bool) (what ^ ": faults where expected") true
        (String.equal t_out
           (if tail = [] then "completed" else "usage: division by zero"));
      Alcotest.(check int64) (what ^ ": cycles") t_cyc c_cyc;
      Alcotest.(check int) (what ^ ": fuel") t_fuel c_fuel;
      Alcotest.(check (list int64)) (what ^ ": memory") t_mem c_mem)
    tails

let test_stack_overflow () =
  let p =
    Program.v ~name:"t" ~globals:[] ~peripherals:[]
      ~funcs:
        [ func "main" []
            [ while_ (c 1) [ alloca "b" (Ty.Array (Ty.Word, 4096)) ] ] ]
      ()
  in
  let bus = M.Bus.create ~board in
  let layout = Ex.Vanilla_layout.make ~stack_size:4096 ~board p in
  let interp = Ex.Interp.create ~bus ~map:layout.Ex.Vanilla_layout.map p in
  Alcotest.check_raises "overflow" (Ex.Interp.Aborted "stack overflow")
    (fun () -> Ex.Interp.run interp)

let test_call_depth () =
  let p =
    Program.v ~name:"t" ~globals:[] ~peripherals:[]
      ~funcs:
        [ func "loop" [] [ call "loop" []; ret0 ];
          func "main" [] [ call "loop" []; halt ] ]
      ()
  in
  let bus = M.Bus.create ~board in
  let layout = Ex.Vanilla_layout.make ~board p in
  let interp = Ex.Interp.create ~bus ~map:layout.Ex.Vanilla_layout.map p in
  Alcotest.check_raises "depth" (Ex.Interp.Aborted "call depth exceeded")
    (fun () -> Ex.Interp.run interp)

let test_cycles_monotonic () =
  let run_with extra =
    let p =
      Program.v ~name:"t" ~globals:[ word "out" ] ~peripherals:[]
        ~funcs:
          [ func "main" []
              (for_ "i" (c extra) [ set "x" E.(l "i" + c 1) ] @ [ halt ]) ]
        ()
    in
    let bus = M.Bus.create ~board in
    let layout = Ex.Vanilla_layout.make ~board p in
    Ex.Vanilla_layout.load_initial_values bus
      ~global_addr:layout.Ex.Vanilla_layout.map.Ex.Address_map.global_addr p;
    let interp = Ex.Interp.create ~bus ~map:layout.Ex.Vanilla_layout.map p in
    Ex.Interp.run interp;
    Ex.Interp.cycles interp
  in
  Alcotest.(check bool) "more work costs more cycles" true
    (Int64.compare (run_with 100) (run_with 10) > 0)

let test_trace_records_calls () =
  let p =
    Program.v ~name:"t" ~globals:[] ~peripherals:[]
      ~funcs:
        [ func "leaf" [] [ ret0 ];
          func "mid" [] [ call "leaf" []; ret0 ];
          func "main" [] [ call "mid" []; halt ] ]
      ()
  in
  let bus = M.Bus.create ~board in
  let layout = Ex.Vanilla_layout.make ~board p in
  let interp =
    Ex.Interp.create ~trace:true ~bus ~map:layout.Ex.Vanilla_layout.map p
  in
  Ex.Interp.run interp;
  let events = Ex.Trace.events (Ex.Interp.trace interp) in
  Alcotest.(check bool) "call order" true
    (events
    = [ Ex.Trace.Call "main"; Ex.Trace.Call "mid"; Ex.Trace.Call "leaf";
        Ex.Trace.Return "leaf"; Ex.Trace.Return "mid" ])

let suite () =
  [ ( "interp",
      [ Alcotest.test_case "arithmetic" `Quick test_arith_and_store;
        Alcotest.test_case "if/while" `Quick test_if_while;
        Alcotest.test_case "calls" `Quick test_call_and_return;
        Alcotest.test_case "spilled args" `Quick test_spilled_arguments;
        Alcotest.test_case "alloca/memset" `Quick test_alloca_and_memset;
        Alcotest.test_case "memcpy" `Quick test_memcpy;
        Alcotest.test_case "recursion" `Quick test_recursion;
        Alcotest.test_case "icall" `Quick test_icall;
        Alcotest.test_case "icall to garbage" `Quick test_icall_to_non_function;
        Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
        Alcotest.test_case "fuel parity across engines" `Quick test_fuel_parity;
        Alcotest.test_case "undefined local parity" `Quick
          test_undefined_local_parity;
        Alcotest.test_case "int64 edges agree across engines" `Quick
          test_int64_edges;
        Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
        Alcotest.test_case "call depth" `Quick test_call_depth;
        Alcotest.test_case "cycle accounting" `Quick test_cycles_monotonic;
        Alcotest.test_case "trace" `Quick test_trace_records_calls ] ) ]
