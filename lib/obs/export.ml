(* Telemetry exporters: human text, machine JSON, and Chrome
   trace-event JSON (loadable in Perfetto / chrome://tracing).

   JSON is hand-rolled on a [Buffer] — the project deliberately carries
   no JSON dependency — and emitted deterministically so exports diff
   cleanly across runs. *)

let jstr b s =
  Buffer.add_char b '"';
  Json.add_escaped b s;
  Buffer.add_char b '"'

(* ---- human text ---- *)

let opname = function "" -> "-" | s -> s

let text ?(events = false) (evs : Sink.event list) : string =
  let a = Agg.of_events evs in
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "switch spans     %d (enter/exit/thread)\n" a.Agg.switch_spans;
  pf "init spans       %d\n" a.Agg.init_spans;
  pf "switch cycles    %Ld (+ %Ld init)\n" a.Agg.switch_cycles
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
      pf "  %-10s %10Ld cycles %10d bytes %6d legs\n" (Sink.phase_name p)
        c.Agg.pt_cycles c.Agg.pt_bytes c.Agg.pt_samples)
    Sink.phases;
  let ops = Agg.ops_by_cost a in
  if ops <> [] then begin
    pf "\nper operation:\n";
    pf "  %-20s %6s %6s %6s %10s %9s %10s %5s %5s %5s\n" "operation" "enter"
      "exit" "thr" "cycles" "mean" "bytes" "swap" "emu" "deny";
    List.iter
      (fun (o : Agg.op_agg) ->
        pf "  %-20s %6d %6d %6d %10Ld %9.1f %10d %5d %5d %5d\n" o.Agg.op_name
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
    pf "  min %Ld  mean %.1f  max %Ld\n" a.Agg.all_latency.Agg.min
      (Agg.hist_mean a.Agg.all_latency)
      a.Agg.all_latency.Agg.max
  end;
  if events then begin
    pf "\nevents:\n";
    List.iter (fun e -> pf "  %s\n" (Fmt.str "%a" Sink.pp_event e)) evs
  end;
  Buffer.contents b

(* ---- machine JSON ---- *)

let json_phase_sample b (p : Sink.phase_sample) =
  Buffer.add_string b "{\"phase\":";
  jstr b (Sink.phase_name p.Sink.ph);
  Buffer.add_string b
    (Printf.sprintf ",\"start\":%Ld,\"end\":%Ld,\"bytes\":%d}" p.Sink.ph_start
       p.Sink.ph_end p.Sink.ph_bytes)

let json_info b (i : Sink.M.Fault.info) =
  Buffer.add_string b
    (Printf.sprintf "{\"addr\":%d,\"access\":\"%s\",\"privileged\":%b}"
       i.Sink.M.Fault.addr
       (match i.Sink.M.Fault.access with
       | Sink.M.Fault.Read -> "read"
       | Sink.M.Fault.Write -> "write"
       | Sink.M.Fault.Execute -> "execute")
       i.Sink.M.Fault.privileged)

let json_region b (r : Sink.region_id) =
  Buffer.add_string b
    (Printf.sprintf "{\"base\":%d,\"size_log2\":%d}" r.Sink.rg_base
       r.Sink.rg_size_log2)

let json_event b (e : Sink.event) =
  match e with
  | Sink.Switch s ->
    Buffer.add_string b "{\"type\":\"switch\",\"kind\":";
    jstr b (Sink.kind_name s.Sink.sp_kind);
    Buffer.add_string b ",\"src\":";
    jstr b s.Sink.sp_src;
    Buffer.add_string b ",\"dst\":";
    jstr b s.Sink.sp_dst;
    Buffer.add_string b
      (Printf.sprintf ",\"start\":%Ld,\"end\":%Ld,\"phases\":[" s.Sink.sp_start
         s.Sink.sp_end);
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char b ',';
        json_phase_sample b p)
      s.Sink.sp_phases;
    Buffer.add_string b "]}"
  | Sink.Region_swap r ->
    Buffer.add_string b "{\"type\":\"region_swap\",\"op\":";
    jstr b r.rs_op;
    Buffer.add_string b (Printf.sprintf ",\"slot\":%d,\"evicted\":" r.rs_slot);
    (match r.rs_evicted with
    | None -> Buffer.add_string b "null"
    | Some rid -> json_region b rid);
    Buffer.add_string b ",\"installed\":";
    json_region b r.rs_installed;
    Buffer.add_string b (Printf.sprintf ",\"at\":%Ld}" r.rs_at)
  | Sink.Emulation e ->
    Buffer.add_string b "{\"type\":\"emulation\",\"op\":";
    jstr b e.em_op;
    Buffer.add_string b
      (Printf.sprintf ",\"write\":%b,\"info\":" e.em_write);
    json_info b e.em_info;
    Buffer.add_string b (Printf.sprintf ",\"at\":%Ld}" e.em_at)
  | Sink.Denial d ->
    Buffer.add_string b "{\"type\":\"denial\",\"op\":";
    jstr b d.dn_op;
    Buffer.add_string b ",\"reason\":";
    jstr b d.dn_reason;
    Buffer.add_string b ",\"info\":";
    (match d.dn_info with
    | None -> Buffer.add_string b "null"
    | Some i -> json_info b i);
    Buffer.add_string b (Printf.sprintf ",\"at\":%Ld}" d.dn_at)
  | Sink.Svc_switch s ->
    Buffer.add_string b "{\"type\":\"svc_switch\",\"kind\":";
    jstr b (Sink.kind_name s.sv_kind);
    Buffer.add_string b ",\"entry\":";
    jstr b s.sv_entry;
    Buffer.add_string b (Printf.sprintf ",\"at\":%Ld}" s.sv_at)

let json (evs : Sink.event list) : string =
  let a = Agg.of_events evs in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\n  \"summary\": {";
  Buffer.add_string b
    (Printf.sprintf
       "\"switch_spans\": %d, \"init_spans\": %d, \"switch_cycles\": %Ld, \
        \"init_cycles\": %Ld, \"region_swaps\": %d, \"emulations\": %d, \
        \"denials\": %d, \"svc_marks\": %d, \"synced_bytes\": %d"
       a.Agg.switch_spans a.Agg.init_spans a.Agg.switch_cycles
       a.Agg.init_cycles a.Agg.swap_events a.Agg.emulation_events
       a.Agg.denial_events a.Agg.svc_marks a.Agg.synced_bytes);
  Buffer.add_string b "},\n  \"phases\": {";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ", ";
      let c = a.Agg.totals.(Agg.phase_index p) in
      jstr b (Sink.phase_name p);
      Buffer.add_string b
        (Printf.sprintf ": {\"cycles\": %Ld, \"bytes\": %d, \"legs\": %d}"
           c.Agg.pt_cycles c.Agg.pt_bytes c.Agg.pt_samples))
    Sink.phases;
  Buffer.add_string b "},\n  \"operations\": [";
  List.iteri
    (fun i (o : Agg.op_agg) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    {\"name\": ";
      jstr b o.Agg.op_name;
      Buffer.add_string b
        (Printf.sprintf
           ", \"enters\": %d, \"exits\": %d, \"threads\": %d, \"cycles\": \
            %Ld, \"mean_cycles\": %.1f, \"synced_bytes\": %d, \"swaps\": %d, \
            \"emulations\": %d, \"denials\": %d}"
           o.Agg.enters o.Agg.exits o.Agg.threads o.Agg.op_latency.Agg.total
           (Agg.hist_mean o.Agg.op_latency)
           o.Agg.op_synced_bytes o.Agg.op_swaps o.Agg.op_emulations
           o.Agg.op_denials))
    (Agg.ops_by_cost a);
  Buffer.add_string b "\n  ],\n  \"matrix\": [";
  List.iteri
    (fun i (src, dst, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    {\"src\": ";
      jstr b src;
      Buffer.add_string b ", \"dst\": ";
      jstr b dst;
      Buffer.add_string b (Printf.sprintf ", \"count\": %d}" n))
    (Agg.matrix_rows a);
  Buffer.add_string b "\n  ],\n  \"events\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      json_event b e)
    evs;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ---- Chrome trace-event JSON ---- *)

(* One tick = one cycle, reported through the microsecond [ts]/[dur]
   fields Perfetto expects; absolute durations read as if the core ran
   at 1 MHz, relative widths are exact. *)
let chrome (evs : Sink.event list) : string =
  let b = Buffer.create 8192 in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b "    "
  in
  let complete ~name ~cat ~ts ~dur ~args =
    sep ();
    Buffer.add_string b "{\"name\": ";
    jstr b name;
    Buffer.add_string b ", \"cat\": ";
    jstr b cat;
    Buffer.add_string b
      (Printf.sprintf
         ", \"ph\": \"X\", \"ts\": %Ld, \"dur\": %Ld, \"pid\": 1, \"tid\": 1, \
          \"args\": {%s}}"
         ts dur args)
  in
  let instant ~name ~cat ~ts ~args =
    sep ();
    Buffer.add_string b "{\"name\": ";
    jstr b name;
    Buffer.add_string b ", \"cat\": ";
    jstr b cat;
    Buffer.add_string b
      (Printf.sprintf
         ", \"ph\": \"i\", \"ts\": %Ld, \"pid\": 1, \"tid\": 1, \"s\": \"t\", \
          \"args\": {%s}}"
         ts args)
  in
  let arg_str k v =
    let vb = Buffer.create 32 in
    jstr vb v;
    Printf.sprintf "\"%s\": %s" k (Buffer.contents vb)
  in
  List.iter
    (fun (e : Sink.event) ->
      match e with
      | Sink.Switch s ->
        let name =
          Printf.sprintf "%s %s->%s"
            (Sink.kind_name s.Sink.sp_kind)
            (opname s.Sink.sp_src) (opname s.Sink.sp_dst)
        in
        complete ~name ~cat:"switch" ~ts:s.Sink.sp_start
          ~dur:(Sink.span_cycles s)
          ~args:
            (String.concat ", "
               [
                 arg_str "kind" (Sink.kind_name s.Sink.sp_kind);
                 arg_str "src" s.Sink.sp_src;
                 arg_str "dst" s.Sink.sp_dst;
               ]);
        (* phase legs nest inside the span on the same track *)
        List.iter
          (fun (p : Sink.phase_sample) ->
            complete
              ~name:(Sink.phase_name p.Sink.ph)
              ~cat:"phase" ~ts:p.Sink.ph_start
              ~dur:(Int64.sub p.Sink.ph_end p.Sink.ph_start)
              ~args:(Printf.sprintf "\"bytes\": %d" p.Sink.ph_bytes))
          s.Sink.sp_phases
      | Sink.Region_swap r ->
        instant
          ~name:(Printf.sprintf "swap slot %d" r.rs_slot)
          ~cat:"region-swap" ~ts:r.rs_at
          ~args:
            (String.concat ", "
               [
                 arg_str "op" r.rs_op;
                 Printf.sprintf "\"installed_base\": %d"
                   r.rs_installed.Sink.rg_base;
               ])
      | Sink.Emulation e ->
        instant
          ~name:(if e.em_write then "ppb store" else "ppb load")
          ~cat:"emulation" ~ts:e.em_at
          ~args:
            (String.concat ", "
               [
                 arg_str "op" e.em_op;
                 Printf.sprintf "\"addr\": %d" e.em_info.Sink.M.Fault.addr;
               ])
      | Sink.Denial d ->
        instant ~name:"denial" ~cat:"denial" ~ts:d.dn_at
          ~args:
            (String.concat ", "
               [ arg_str "op" d.dn_op; arg_str "reason" d.dn_reason ])
      | Sink.Svc_switch s ->
        instant
          ~name:(Printf.sprintf "svc %s" (Sink.kind_name s.sv_kind))
          ~cat:"svc" ~ts:s.sv_at
          ~args:(arg_str "entry" s.sv_entry))
    evs;
  Printf.sprintf
    "{\n\
    \  \"displayTimeUnit\": \"ns\",\n\
    \  \"traceEvents\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (Buffer.contents b)

type format = Text | Json | Chrome

let format_of_string = function
  | "text" -> Some Text
  | "json" -> Some Json
  | "chrome" -> Some Chrome
  | _ -> None

let format_name = function Text -> "text" | Json -> "json" | Chrome -> "chrome"

let render fmt evs =
  match fmt with
  | Text -> text evs
  | Json -> json evs
  | Chrome -> chrome evs
