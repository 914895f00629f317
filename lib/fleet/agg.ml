(* The fleet's aggregate: one fold over the result slots, in canonical
   unit order, once the pool has drained.  The slots are the report's
   per-image raw material too, so both halves of the report come from
   the same schedule-independent data and are byte-identical at any
   [-j]. *)

module Ov = Opec_metrics.Overhead

type t = {
  mutable g_units : int;
  mutable g_failed : int;  (** units whose task raised *)
  (* compile *)
  mutable g_images_compiled : int;
  mutable g_ops : int;
  mutable g_flash : int;
  mutable g_sram : int;
  mutable g_syncset_bytes : int;
  (* lint *)
  mutable g_lint_runs : int;
  mutable g_lint_errors : int;
  mutable g_lint_warnings : int;
  mutable g_lint_infos : int;
  (* attack: (defense, outcome-kind) totals across all images *)
  mutable g_attack_runs : int;
  mutable g_injections : int;
  mutable g_attack : (string * Task.outcome_counts) list;
  mutable g_opec_escapes : int;
  (* trace *)
  mutable g_trace_runs : int;
  mutable g_base_cycles : int64;
  mutable g_prot_cycles : int64;
  mutable g_overhead_cycles : int64;
  mutable g_sync_cycles : int64;
  mutable g_switches : int;
  mutable g_synced_bytes : int;
  (* fuzz *)
  mutable g_fuzz_runs : int;
  mutable g_fuzz_failures : int;
}

let add_counts a b =
  { Task.oc_blocked = a.Task.oc_blocked + b.Task.oc_blocked;
    oc_contained = a.Task.oc_contained + b.Task.oc_contained;
    oc_escaped = a.Task.oc_escaped + b.Task.oc_escaped;
    oc_crashed = a.Task.oc_crashed + b.Task.oc_crashed }

let fold_defense acc (name, oc) =
  match List.assoc_opt name acc with
  | None -> acc @ [ (name, oc) ]
  | Some prev ->
    List.map
      (fun (n, v) -> if String.equal n name then (n, add_counts prev oc) else (n, v))
      acc

(* Canonical defense order for rendering, independent of which image
   saw which defense first. *)
let sort_defenses l =
  let rank n =
    match n with
    | "vanilla" -> 0
    | "ACES1" -> 1
    | "ACES2" -> 2
    | "ACES3" -> 3
    | "OPEC" -> 4
    | _ -> 5
  in
  List.stable_sort
    (fun (a, _) (b, _) ->
      match Int.compare (rank a) (rank b) with
      | 0 -> String.compare a b
      | c -> c)
    l

let add (t : t) (r : Task.result) =
  t.g_units <- t.g_units + 1;
  match r with
  | Task.Failed _ -> t.g_failed <- t.g_failed + 1
  | Task.Compiled { c_ops; c_entries = _; c_flash; c_sram; c_syncset_bytes } ->
    t.g_images_compiled <- t.g_images_compiled + 1;
    t.g_ops <- t.g_ops + c_ops;
    t.g_flash <- t.g_flash + c_flash;
    t.g_sram <- t.g_sram + c_sram;
    t.g_syncset_bytes <- t.g_syncset_bytes + c_syncset_bytes
  | Task.Linted { l_errors; l_warnings; l_infos; l_by_code = _ } ->
    t.g_lint_runs <- t.g_lint_runs + 1;
    t.g_lint_errors <- t.g_lint_errors + l_errors;
    t.g_lint_warnings <- t.g_lint_warnings + l_warnings;
    t.g_lint_infos <- t.g_lint_infos + l_infos
  | Task.Attacked { a_injections; a_defenses; a_opec_escapes } ->
    t.g_attack_runs <- t.g_attack_runs + 1;
    t.g_injections <- t.g_injections + a_injections;
    t.g_attack <- List.fold_left fold_defense t.g_attack a_defenses;
    t.g_opec_escapes <- t.g_opec_escapes + a_opec_escapes
  | Task.Traced b ->
    t.g_trace_runs <- t.g_trace_runs + 1;
    t.g_base_cycles <- Int64.add t.g_base_cycles b.Ov.bd_base_cycles;
    t.g_prot_cycles <- Int64.add t.g_prot_cycles b.Ov.bd_prot_cycles;
    t.g_overhead_cycles <- Int64.add t.g_overhead_cycles b.Ov.bd_overhead_cycles;
    t.g_sync_cycles <- Int64.add t.g_sync_cycles b.Ov.bd_sync;
    t.g_switches <- t.g_switches + b.Ov.bd_switches;
    t.g_synced_bytes <- t.g_synced_bytes + b.Ov.bd_synced_bytes
  | Task.Fuzzed { f_properties = _; f_failures } ->
    t.g_fuzz_runs <- t.g_fuzz_runs + 1;
    t.g_fuzz_failures <- t.g_fuzz_failures + List.length f_failures

let of_results (results : Task.result list) =
  let t =
    { g_units = 0; g_failed = 0; g_images_compiled = 0; g_ops = 0;
      g_flash = 0; g_sram = 0; g_syncset_bytes = 0; g_lint_runs = 0;
      g_lint_errors = 0; g_lint_warnings = 0; g_lint_infos = 0;
      g_attack_runs = 0; g_injections = 0; g_attack = [];
      g_opec_escapes = 0; g_trace_runs = 0; g_base_cycles = 0L;
      g_prot_cycles = 0L; g_overhead_cycles = 0L; g_sync_cycles = 0L;
      g_switches = 0; g_synced_bytes = 0; g_fuzz_runs = 0;
      g_fuzz_failures = 0 }
  in
  List.iter (add t) results;
  t.g_attack <- sort_defenses t.g_attack;
  t
