(* Telemetry exporters: human text, machine JSON, and Chrome
   trace-event JSON (loadable in Perfetto / chrome://tracing).  Output
   is deterministic, so exports diff cleanly across runs. *)

(* ---- human text ---- *)

let opname = function "" -> "-" | s -> s

let text ?(events = false) (evs : Sink.event list) : string =
  let a = Agg.of_events evs in
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "switch spans     %d (enter/exit/thread)\n" a.Agg.switch_spans;
  pf "init spans       %d\n" a.Agg.init_spans;
  pf "switch cycles    %d (+ %Ld init)\n" a.Agg.switch_cycles
    a.Agg.init_cycles;
  pf "region swaps     %d\n" a.Agg.swap_events;
  pf "ppb emulations   %d\n" a.Agg.emulation_events;
  pf "denials          %d\n" a.Agg.denial_events;
  pf "svc marks        %d\n" a.Agg.svc_marks;
  pf "synced bytes     %d\n" a.Agg.synced_bytes;
  pf "\nphase breakdown (all spans incl. init):\n";
  List.iter
    (fun p ->
      let i = Agg.phase_index p in
      let c = a.Agg.totals.(i) in
      pf "  %-10s %10d cycles %10d bytes %6d legs\n" (Sink.phase_name p)
        c.Agg.pt_cycles c.Agg.pt_bytes c.Agg.pt_samples)
    Sink.phases;
  let ops = Agg.ops_by_cost a in
  if ops <> [] then begin
    pf "\nper operation:\n";
    pf "  %-20s %6s %6s %6s %10s %9s %10s %5s %5s %5s\n" "operation" "enter"
      "exit" "thr" "cycles" "mean" "bytes" "swap" "emu" "deny";
    List.iter
      (fun (o : Agg.op_agg) ->
        pf "  %-20s %6d %6d %6d %10d %9.1f %10d %5d %5d %5d\n" o.Agg.op_name
          o.Agg.enters o.Agg.exits o.Agg.threads o.Agg.op_latency.Agg.total
          (Agg.hist_mean o.Agg.op_latency)
          o.Agg.op_synced_bytes o.Agg.op_swaps o.Agg.op_emulations
          o.Agg.op_denials)
      ops
  end;
  let rows = Agg.matrix_rows a in
  if rows <> [] then begin
    pf "\nswitch matrix (src -> dst):\n";
    List.iter
      (fun (src, dst, n) ->
        pf "  %-20s -> %-20s %6d\n" (opname src) (opname dst) n)
      rows
  end;
  if a.Agg.all_latency.Agg.samples > 0 then begin
    pf "\nswitch latency (cycles, log2 buckets):\n";
    Array.iteri
      (fun i n ->
        if n > 0 then pf "  [%7d..%7d] %6d\n" (1 lsl i) ((1 lsl (i + 1)) - 1) n)
      a.Agg.all_latency.Agg.buckets;
    pf "  min %d  mean %.1f  max %d\n" a.Agg.all_latency.Agg.min
      (Agg.hist_mean a.Agg.all_latency)
      a.Agg.all_latency.Agg.max
  end;
  if events then begin
    pf "\nevents:\n";
    List.iter (fun e -> pf "  %s\n" (Fmt.str "%a" Sink.pp_event e)) evs
  end;
  Buffer.contents b

(* ---- machine JSON ---- *)

let i64 v = Json.Int (Int64.to_int v)
let int i = Json.Int i
let str s = Json.String s
let option f = function None -> Json.Null | Some v -> f v

let info_json (i : Sink.M.Fault.info) =
  let access =
    match i.Sink.M.Fault.access with
    | Sink.M.Fault.Read -> "read"
    | Sink.M.Fault.Write -> "write"
    | Sink.M.Fault.Execute -> "execute"
  in
  Json.Obj
    [ ("addr", int i.Sink.M.Fault.addr); ("access", str access);
      ("privileged", Json.Bool i.Sink.M.Fault.privileged) ]

let region_json (r : Sink.region_id) =
  Json.Obj [ ("base", int r.Sink.rg_base); ("size_log2", int r.Sink.rg_size_log2) ]

let phase_json (p : Sink.phase_sample) =
  Json.Obj
    [ ("phase", str (Sink.phase_name p.Sink.ph)); ("start", int p.Sink.ph_start);
      ("end", int p.Sink.ph_end); ("bytes", int p.Sink.ph_bytes) ]

let event_json (e : Sink.event) =
  let ev ty fields = Json.Obj (("type", str ty) :: fields) in
  match e with
  | Sink.Switch s ->
    ev "switch"
      [ ("kind", str (Sink.kind_name s.Sink.sp_kind)); ("src", str s.Sink.sp_src);
        ("dst", str s.Sink.sp_dst); ("start", int s.Sink.sp_start);
        ("end", int s.Sink.sp_end);
        ("phases", Json.List (List.map phase_json s.Sink.sp_phases)) ]
  | Sink.Region_swap r ->
    ev "region_swap"
      [ ("op", str r.rs_op); ("slot", int r.rs_slot);
        ("evicted", option region_json r.rs_evicted);
        ("installed", region_json r.rs_installed); ("at", int r.rs_at) ]
  | Sink.Emulation e ->
    ev "emulation"
      [ ("op", str e.em_op); ("write", Json.Bool e.em_write);
        ("info", info_json e.em_info); ("at", int e.em_at) ]
  | Sink.Denial d ->
    ev "denial"
      [ ("op", str d.dn_op); ("reason", str d.dn_reason);
        ("info", option info_json d.dn_info); ("at", int d.dn_at) ]
  | Sink.Svc_switch s ->
    ev "svc_switch"
      [ ("kind", str (Sink.kind_name s.sv_kind)); ("entry", str s.sv_entry);
        ("at", int s.sv_at) ]

let op_json (o : Agg.op_agg) =
  (* one decimal, the precision the text report prints *)
  let mean = Printf.sprintf "%.1f" (Agg.hist_mean o.Agg.op_latency) in
  Json.Obj
    [ ("name", str o.Agg.op_name); ("enters", int o.Agg.enters);
      ("exits", int o.Agg.exits); ("threads", int o.Agg.threads);
      ("cycles", int o.Agg.op_latency.Agg.total);
      ("mean_cycles", Json.Float (float_of_string mean));
      ("synced_bytes", int o.Agg.op_synced_bytes); ("swaps", int o.Agg.op_swaps);
      ("emulations", int o.Agg.op_emulations); ("denials", int o.Agg.op_denials) ]

let json (evs : Sink.event list) : string =
  let a = Agg.of_events evs in
  let phase p =
    let c = a.Agg.totals.(Agg.phase_index p) in
    ( Sink.phase_name p,
      Json.Obj
        [ ("cycles", int c.Agg.pt_cycles); ("bytes", int c.Agg.pt_bytes);
          ("legs", int c.Agg.pt_samples) ] )
  in
  let cell (src, dst, n) =
    Json.Obj [ ("src", str src); ("dst", str dst); ("count", int n) ]
  in
  Json.to_string
    (Json.Obj
       [ ( "summary",
           Json.Obj
             [ ("switch_spans", int a.Agg.switch_spans);
               ("init_spans", int a.Agg.init_spans);
               ("switch_cycles", int a.Agg.switch_cycles);
               ("init_cycles", i64 a.Agg.init_cycles);
               ("region_swaps", int a.Agg.swap_events);
               ("emulations", int a.Agg.emulation_events);
               ("denials", int a.Agg.denial_events);
               ("svc_marks", int a.Agg.svc_marks);
               ("synced_bytes", int a.Agg.synced_bytes) ] );
         ("phases", Json.Obj (List.map phase Sink.phases));
         ("operations", Json.List (List.map op_json (Agg.ops_by_cost a)));
         ("matrix", Json.List (List.map cell (Agg.matrix_rows a)));
         ("events", Json.List (List.map event_json evs)) ])

(* ---- Chrome trace-event JSON ---- *)

(* One tick = one cycle, reported through the microsecond [ts]/[dur]
   fields Perfetto expects; absolute durations read as if the core ran
   at 1 MHz, relative widths are exact. *)
let chrome (evs : Sink.event list) : string =
  let event ~name ~cat ~ts ph extra args =
    Json.Obj
      ([ ("name", str name); ("cat", str cat); ("ph", str ph); ("ts", int ts) ]
      @ extra
      @ [ ("pid", int 1); ("tid", int 1); ("args", Json.Obj args) ])
  in
  let complete ~name ~cat ~ts ~dur args =
    event ~name ~cat ~ts "X" [ ("dur", int dur) ] args
  in
  let instant ~name ~cat ~ts args =
    event ~name ~cat ~ts "i" [ ("s", str "t") ] args
  in
  let trace_events : Sink.event -> Json.t list = function
    | Sink.Switch s ->
      let kind = Sink.kind_name s.Sink.sp_kind in
      let src = s.Sink.sp_src and dst = s.Sink.sp_dst in
      let name = Printf.sprintf "%s %s->%s" kind (opname src) (opname dst) in
      complete ~name ~cat:"switch" ~ts:s.Sink.sp_start ~dur:(Sink.span_cycles s)
        [ ("kind", str kind); ("src", str src); ("dst", str dst) ]
      (* phase legs nest inside the span on the same track *)
      :: List.map
           (fun (p : Sink.phase_sample) ->
             complete ~name:(Sink.phase_name p.Sink.ph) ~cat:"phase"
               ~ts:p.Sink.ph_start
               ~dur:(p.Sink.ph_end - p.Sink.ph_start)
               [ ("bytes", int p.Sink.ph_bytes) ])
           s.Sink.sp_phases
    | Sink.Region_swap r ->
      [ instant
          ~name:(Printf.sprintf "swap slot %d" r.rs_slot)
          ~cat:"region-swap" ~ts:r.rs_at
          [ ("op", str r.rs_op);
            ("installed_base", int r.rs_installed.Sink.rg_base) ] ]
    | Sink.Emulation e ->
      [ instant
          ~name:(if e.em_write then "ppb store" else "ppb load")
          ~cat:"emulation" ~ts:e.em_at
          [ ("op", str e.em_op); ("addr", int e.em_info.Sink.M.Fault.addr) ] ]
    | Sink.Denial d ->
      [ instant ~name:"denial" ~cat:"denial" ~ts:d.dn_at
          [ ("op", str d.dn_op); ("reason", str d.dn_reason) ] ]
    | Sink.Svc_switch s ->
      [ instant ~name:("svc " ^ Sink.kind_name s.sv_kind) ~cat:"svc" ~ts:s.sv_at
          [ ("entry", str s.sv_entry) ] ]
  in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", str "ns");
         ("traceEvents", Json.List (List.concat_map trace_events evs)) ])

type format = Text | Json | Chrome

let format_name = function Text -> "text" | Json -> "json" | Chrome -> "chrome"

let render fmt evs =
  match fmt with
  | Text -> text evs
  | Json -> json evs ^ "\n"
  | Chrome -> chrome evs ^ "\n"
