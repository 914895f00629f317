(* Tests for the evaluation metrics: PT (equation 1), ET (equation 2),
   size accounting, trace segmentation into tasks, and the paper-level
   invariants (OPEC's PT is identically zero; ET never negative). *)

open Opec_ir
open Build
module E = Expr
module Met = Opec_metrics
module P = Opec_pipeline.Pipeline
module SS = Set.Make (String)
module Json = Opec_obs.Json

let close name expected actual =
  if Float.abs (expected -. actual) > 1e-9 then
    Alcotest.failf "%s: expected %f, got %f" name expected actual

(* --- var_size ------------------------------------------------------------ *)

let test_var_size () =
  let p =
    Program.v ~name:"t"
      ~globals:[ word "a"; words "buf" 4; word ~const:true "k" ~init:1L ]
      ~peripherals:[]
      ~funcs:[ func "main" [] [ halt ] ]
      ()
  in
  let sizes = Met.Var_size.of_program p in
  Alcotest.(check int) "writable total" 20 sizes.Met.Var_size.total_writable;
  Alcotest.(check int) "set size" 16
    (Met.Var_size.size_of_set sizes (SS.of_list [ "buf"; "k" ]));
  Alcotest.(check bool) "const not writable" false (Met.Var_size.writable sizes "k")

(* --- PT -------------------------------------------------------------------- *)

let test_pt_equation () =
  let p =
    Program.v ~name:"t"
      ~globals:[ word "n1"; words "n2" 3; word "extra" ]
      ~peripherals:[]
      ~funcs:[ func "main" [] [ halt ] ]
      ()
  in
  let sizes = Met.Var_size.of_program p in
  (* accessible = {n1(4), n2(12), extra(4)}, needed = {n1, n2}:
     PT = 4 / 20 *)
  close "PT"
    (4.0 /. 20.0)
    (Met.Overprivilege.pt_value sizes
       ~accessible:(SS.of_list [ "n1"; "n2"; "extra" ])
       ~needed:(SS.of_list [ "n1"; "n2" ]));
  (* no over-privilege -> 0 *)
  close "PT zero"
    0.0
    (Met.Overprivilege.pt_value sizes
       ~accessible:(SS.of_list [ "n1" ])
       ~needed:(SS.of_list [ "n1" ]));
  (* empty accessible set -> 0 by definition *)
  close "PT empty" 0.0
    (Met.Overprivilege.pt_value sizes ~accessible:SS.empty ~needed:SS.empty)

let test_cumulative_ratio () =
  let samples =
    [ { Met.Overprivilege.domain = "a"; pt = 0.5 };
      { Met.Overprivilege.domain = "b"; pt = 0.0 };
      { Met.Overprivilege.domain = "c"; pt = 0.25 } ]
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "sorted CDF"
    [ (0.0, 1.0 /. 3.0); (0.25, 2.0 /. 3.0); (0.5, 1.0) ]
    (Met.Overprivilege.cumulative_ratio samples)

(* --- ET -------------------------------------------------------------------- *)

let test_et_equation () =
  let p =
    Program.v ~name:"t"
      ~globals:[ word "u1"; words "u2" 3; word "unused" ]
      ~peripherals:[]
      ~funcs:[ func "main" [] [ halt ] ]
      ()
  in
  let sizes = Met.Var_size.of_program p in
  (* needed = 20 bytes, used = 16 -> ET = 1 - 16/20 *)
  close "ET"
    (1.0 -. (16.0 /. 20.0))
    (Met.Overprivilege.et_value sizes
       ~used:(SS.of_list [ "u1"; "u2" ])
       ~needed:(SS.of_list [ "u1"; "u2"; "unused" ]));
  close "ET all used" 0.0
    (Met.Overprivilege.et_value sizes
       ~used:(SS.of_list [ "u1" ])
       ~needed:(SS.of_list [ "u1" ]))

(* --- OPEC-level invariants -------------------------------------------------- *)

let opec_image () =
  let app = Opec_apps.Registry.pinlock ~rounds:2 () in
  (app, P.image (P.ctx app))

let test_opec_pt_zero () =
  let _, image = opec_image () in
  List.iter
    (fun (s : Met.Overprivilege.pt_sample) ->
      if s.Met.Overprivilege.pt <> 0.0 then
        Alcotest.failf "operation %s has PT %f" s.Met.Overprivilege.domain
          s.Met.Overprivilege.pt)
    (Met.Overprivilege.opec_pt image)

let test_et_bounds_and_dominance () =
  let app, image = opec_image () in
  let baseline = P.baseline (P.ctx app) in
  P.reraise baseline.P.b_err;
  (match baseline.P.b_check with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let task_instances = Met.Overhead.task_instances app baseline in
  Alcotest.(check bool) "tasks were observed" true (task_instances <> []);
  let opec_et = Met.Overprivilege.opec_et image ~task_instances in
  List.iter
    (fun (s : Met.Overprivilege.et_sample) ->
      if s.Met.Overprivilege.et < 0.0 || s.Met.Overprivilege.et > 1.0 then
        Alcotest.failf "ET out of bounds for %s: %f" s.Met.Overprivilege.task
          s.Met.Overprivilege.et)
    opec_et;
  (* the ACES needed-set of a task is a superset of OPEC's, so the summed
     ET under ACES should not be smaller overall *)
  let aces =
    Opec_aces.Aces.analyze Opec_aces.Strategy.Filename_no_opt
      app.Opec_apps.App.program
  in
  let aces_et = Met.Overprivilege.aces_et aces ~task_instances in
  let total ets =
    List.fold_left (fun acc (s : Met.Overprivilege.et_sample) -> acc +. s.Met.Overprivilege.et) 0.0 ets
  in
  Alcotest.(check bool) "OPEC total ET <= ACES total ET" true
    (total opec_et <= total aces_et +. 1e-9)

(* --- security eval / table metrics ------------------------------------------ *)

let test_security_eval_row () =
  let _, image = opec_image () in
  let row = Met.Security_eval.of_image ~app:"PinLock" image in
  Alcotest.(check int) "six operations" 6 row.Met.Security_eval.ops;
  Alcotest.(check bool) "avg funcs positive" true (row.Met.Security_eval.avg_funcs > 0.0);
  Alcotest.(check bool) "gvars below 100%" true
    (row.Met.Security_eval.avg_gvars_pct < 100.0);
  Alcotest.(check bool) "gvars above 0%" true
    (row.Met.Security_eval.avg_gvars_pct > 0.0)

let test_icall_eval_row () =
  let _, image = opec_image () in
  let row =
    Met.Icall_eval.of_callgraph ~app:"PinLock" ~time_s:0.0
      image.Opec_core.Image.callgraph
  in
  Alcotest.(check int) "one icall" 1 row.Met.Icall_eval.icalls;
  Alcotest.(check int) "resolved by points-to" 1 row.Met.Icall_eval.svf_resolved;
  Alcotest.(check int) "none unresolved" 0 row.Met.Icall_eval.unresolved;
  Alcotest.(check int) "single target" 1 row.Met.Icall_eval.max_targets

(* Table 3's icall columns for every registry app, exactly:
   (#Icall, #SVF, #Type, unresolved, #Avg, #Max). *)
let test_table3_icall_columns () =
  let expected =
    [ ("PinLock", (1, 1, 0, 0, 1.0, 1));
      ("Animation", (2, 2, 0, 0, 2.0, 2));
      ("FatFs-uSD", (6, 6, 0, 0, 3.0, 3));
      ("LCD-uSD", (6, 6, 0, 0, 3.0, 3));
      ("TCP-Echo", (1, 1, 0, 0, 2.0, 2));
      ("Camera", (2, 2, 0, 0, 2.0, 2));
      ("CoreMark", (1, 1, 0, 0, 1.0, 1)) ]
  in
  let apps = Opec_apps.Registry.all () in
  Alcotest.(check (list string)) "registry apps" (List.map fst expected)
    (List.map (fun (a : Opec_apps.App.t) -> a.Opec_apps.App.app_name) apps);
  List.iter2
    (fun (app : Opec_apps.App.t) (name, (icalls, svf, ty, unres, avg, mx)) ->
      let r = Met.Icall_eval.of_pipeline (Opec_pipeline.Pipeline.ctx app) in
      let col what = Printf.sprintf "%s %s" name what in
      Alcotest.(check int) (col "#Icall") icalls r.Met.Icall_eval.icalls;
      Alcotest.(check int) (col "#SVF") svf r.Met.Icall_eval.svf_resolved;
      Alcotest.(check int) (col "#Type") ty r.Met.Icall_eval.type_resolved;
      Alcotest.(check int) (col "unresolved") unres r.Met.Icall_eval.unresolved;
      Alcotest.(check (float 0.0)) (col "#Avg") avg r.Met.Icall_eval.avg_targets;
      Alcotest.(check int) (col "#Max") mx r.Met.Icall_eval.max_targets)
    apps expected

(* Figure 9's and Table 2's rows for every registry app, exactly as
   recorded in [data/overhead_pin.json]: a JSON array with one object
   per app, its Figure 9 fields and its four Table 2 policy rows. *)
let overhead_pin_file = "data/overhead_pin.json"

let overhead_pinned (app : Opec_apps.App.t) =
  let f v = Json.Float v in
  let r = Met.Overhead.fig9_of_app app in
  let t2 (t : Met.Overhead.t2_row) =
    Json.Obj
      [ ("policy", Json.String t.Met.Overhead.policy);
        ("ro", f t.Met.Overhead.ro); ("fo", f t.Met.Overhead.fo);
        ("so", f t.Met.Overhead.so); ("pac", f t.Met.Overhead.pac) ]
  in
  Json.Obj
    [ ("app", Json.String r.Met.Overhead.app);
      ("runtime_pct", f r.Met.Overhead.runtime_pct);
      ("flash_pct", f r.Met.Overhead.flash_pct);
      ("sram_pct", f r.Met.Overhead.sram_pct);
      ("table2", Json.List (List.map t2 (Met.Overhead.table2_of_app app))) ]

let test_overhead_pinned () =
  let expected =
    match
      Json.parse
        (In_channel.with_open_bin overhead_pin_file In_channel.input_all)
    with
    | Ok (Json.List rows) -> rows
    | Ok _ -> Alcotest.failf "%s: not a JSON array" overhead_pin_file
    | Error e -> Alcotest.failf "%s: %s" overhead_pin_file e
  in
  let json =
    Alcotest.testable (fun fmt v -> Fmt.string fmt (Json.to_string v)) ( = )
  in
  Alcotest.(check (list json))
    "Figure 9 and Table 2 rows equal the recorded values" expected
    (List.map overhead_pinned (Opec_apps.Registry.all ()))

(* --- trace segmentation ------------------------------------------------------ *)

let test_trace_tasks () =
  let t = Opec_exec.Trace.create () in
  List.iter (Opec_exec.Trace.record t)
    [ Opec_exec.Trace.Call "main";
      Opec_exec.Trace.Call "taska"; Opec_exec.Trace.Call "helper";
      Opec_exec.Trace.Return "helper"; Opec_exec.Trace.Return "taska";
      Opec_exec.Trace.Call "taskb"; Opec_exec.Trace.Return "taskb" ];
  let tasks = Opec_exec.Trace.tasks ~entries:[ "main"; "taska"; "taskb" ] t in
  let find e = List.assoc e tasks in
  Alcotest.(check (list string)) "taska funcs" [ "helper"; "taska" ] (find "taska");
  Alcotest.(check (list string)) "taskb funcs" [ "taskb" ] (find "taskb");
  (* main is still open at the end and includes the nested entries *)
  Alcotest.(check bool) "main contains taska" true
    (List.mem "taska" (find "main"))

let test_report_table () =
  let text =
    Met.Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) "header + sep + rows" 4 (List.length lines);
  (* all lines align to the same width *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l ->
        Alcotest.(check int) "width" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "empty table"

let suite () =
  [ ( "metrics",
      [ Alcotest.test_case "var sizes" `Quick test_var_size;
        Alcotest.test_case "PT equation" `Quick test_pt_equation;
        Alcotest.test_case "cumulative ratio" `Quick test_cumulative_ratio;
        Alcotest.test_case "ET equation" `Quick test_et_equation;
        Alcotest.test_case "OPEC PT is zero" `Quick test_opec_pt_zero;
        Alcotest.test_case "ET bounds and dominance" `Quick test_et_bounds_and_dominance;
        Alcotest.test_case "security eval row" `Quick test_security_eval_row;
        Alcotest.test_case "icall eval row" `Quick test_icall_eval_row;
        Alcotest.test_case "Table 3 icall columns pinned" `Quick
          test_table3_icall_columns;
        Alcotest.test_case "Figure 9 and Table 2 rows pinned" `Quick
          test_overhead_pinned;
        Alcotest.test_case "trace tasks" `Quick test_trace_tasks;
        Alcotest.test_case "report table" `Quick test_report_table ] ) ]
