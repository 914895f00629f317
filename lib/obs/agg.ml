(* Per-operation aggregation over a telemetry stream: switch-latency
   histograms, a source->destination switch matrix, per-phase cycle and
   byte totals, and per-operation event counts (paper, Section 6.3). *)

(* Power-of-two latency buckets: bucket [i] counts spans whose cycle
   cost is in [2^i, 2^(i+1)).  32 buckets cover every span an [int]
   cycle counter can produce. *)
let hist_buckets = 32

type hist = {
  buckets : int array;
  mutable samples : int;
  mutable total : int;
  mutable min : int;
  mutable max : int;
}

let hist_create () =
  {
    buckets = Array.make hist_buckets 0;
    samples = 0;
    total = 0;
    min = max_int;
    max = 0;
  }

let bucket_of cycles =
  if cycles <= 1 then 0
  else
    let rec floor_log2 i v = if v <= 1 then i else floor_log2 (i + 1) (v lsr 1) in
    min (hist_buckets - 1) (floor_log2 0 cycles)

let hist_add h cycles =
  let b = bucket_of cycles in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.samples <- h.samples + 1;
  h.total <- h.total + cycles;
  if cycles < h.min then h.min <- cycles;
  if cycles > h.max then h.max <- cycles

let hist_mean h =
  if h.samples = 0 then 0.
  else float_of_int h.total /. float_of_int h.samples

(* Bounds of bucket [i]: [0,1] for bucket 0, [2^i, 2^(i+1)-1] above. *)
let bucket_bounds i = if i = 0 then (0, 1) else (1 lsl i, (1 lsl (i + 1)) - 1)

(* Quantile estimate from the power-of-two buckets: find the bucket
   holding the q-th sample and interpolate linearly inside it.  The
   observed extremes stand in for the first and last occupied buckets'
   theoretical bounds, so interpolation never invents a value outside
   [min, max] — and p0/p100 are exactly the extremes, not estimates. *)
let percentile h q =
  if h.samples = 0 then 0
  else if q <= 0. then h.min
  else if q >= 1. then h.max
  else if h.samples = 1 then h.min (* min = max = the one sample *)
  else begin
    let rank = Float.max 1. (Float.of_int h.samples *. q) in
    let rec locate i seen =
      if i >= hist_buckets then hist_buckets - 1
      else
        let seen' = seen + h.buckets.(i) in
        if Float.of_int seen' >= rank then i else locate (i + 1) seen'
    in
    let rec seen_before i acc k =
      if k >= i then acc else seen_before i (acc + h.buckets.(k)) (k + 1)
    in
    let rec first_occupied i =
      if i >= hist_buckets - 1 || h.buckets.(i) > 0 then i
      else first_occupied (i + 1)
    in
    let rec last_occupied i =
      if i <= 0 || h.buckets.(i) > 0 then i else last_occupied (i - 1)
    in
    let b = locate 0 0 in
    let lo, hi = bucket_bounds b in
    (* the observed extremes live in the outermost occupied buckets, so
       they are tighter (and always correct) endpoints *)
    let lo = if b = first_occupied 0 then h.min else lo in
    let hi = if b = last_occupied (hist_buckets - 1) then h.max else hi in
    let inside = h.buckets.(b) in
    let frac =
      if inside = 0 then 0.
      else (rank -. Float.of_int (seen_before b 0 0)) /. Float.of_int inside
    in
    let v = lo + int_of_float (frac *. float_of_int (hi - lo)) in
    let v = if v < h.min then h.min else v in
    if v > h.max then h.max else v
  end

let hist_percentile h q = Int64.of_int (percentile h q)

(* Per-phase running totals, one cell per [Sink.phase]. *)
type phase_total = {
  mutable pt_cycles : int;
  mutable pt_bytes : int;
  mutable pt_samples : int;
}

let phase_total () = { pt_cycles = 0; pt_bytes = 0; pt_samples = 0 }

let phase_index = function
  | Sink.Sanitize -> 0
  | Sink.Sync -> 1
  | Sink.Relocate -> 2
  | Sink.Mpu_config -> 3

let phase_of_index = function
  | 0 -> Sink.Sanitize
  | 1 -> Sink.Sync
  | 2 -> Sink.Relocate
  | _ -> Sink.Mpu_config

let n_phases = 4

type op_agg = {
  op_name : string;
  mutable enters : int;
  mutable exits : int;
  mutable threads : int;
  op_latency : hist;            (* Enter/Exit/Thread spans landing here *)
  op_phases : phase_total array;
  mutable op_synced_bytes : int;
  mutable op_swaps : int;
  mutable op_emulations : int;
  mutable op_denials : int;
}

(* A table keyed by operation name, looked up once or twice per event.
   The monitor passes an operation's one interned [Operation.name]
   string with every event, so a scan on physical equality over the
   first [scan_limit] names hits without hashing; a caller that builds
   equal names afresh falls back to [String.equal] over the same
   entries, and names past the first [scan_limit] to the hash table,
   which holds every entry.  The bundled apps have at most ten
   operations. *)
type 'a names = {
  mutable scan : (string * 'a) list;
  table : (string, 'a) Hashtbl.t;
}

let scan_limit = 16

let names () = { scan = []; table = Hashtbl.create 17 }

let rec find_phys name = function
  | [] -> raise_notrace Not_found
  | (k, v) :: rest -> if k == name then v else find_phys name rest

let rec find_equal name = function
  | [] -> raise_notrace Not_found
  | (k, v) :: rest -> if String.equal k name then v else find_equal name rest

let find names name make =
  match find_phys name names.scan with
  | v -> v
  | exception Not_found -> (
    match find_equal name names.scan with
    | v -> v
    | exception Not_found -> (
      match Hashtbl.find_opt names.table name with
      | Some v -> v
      | None ->
        let v = make name in
        if Hashtbl.length names.table < scan_limit then
          names.scan <- (name, v) :: names.scan;
        Hashtbl.add names.table name v;
        v))

let fold f names acc = Hashtbl.fold f names.table acc

type t = {
  ops : op_agg names;
  matrix : int ref names names; (* src -> dst -> switch count *)
  all_latency : hist;           (* every counted switch span *)
  totals : phase_total array;   (* across all operations, incl. Init *)
  mutable switch_spans : int;   (* Enter + Exit + Thread spans *)
  mutable init_spans : int;
  mutable swap_events : int;
  mutable emulation_events : int;
  mutable denial_events : int;
  mutable svc_marks : int;
  mutable switch_cycles : int;  (* total cycles inside counted spans *)
  mutable init_cycles : int64;
  mutable synced_bytes : int;
}

let create () =
  {
    ops = names ();
    matrix = names ();
    all_latency = hist_create ();
    totals = Array.init n_phases (fun _ -> phase_total ());
    switch_spans = 0;
    init_spans = 0;
    swap_events = 0;
    emulation_events = 0;
    denial_events = 0;
    svc_marks = 0;
    switch_cycles = 0;
    init_cycles = 0L;
    synced_bytes = 0;
  }

let new_op name =
  {
    op_name = name;
    enters = 0;
    exits = 0;
    threads = 0;
    op_latency = hist_create ();
    op_phases = Array.init n_phases (fun _ -> phase_total ());
    op_synced_bytes = 0;
    op_swaps = 0;
    op_emulations = 0;
    op_denials = 0;
  }

let op t name = find t.ops name new_op

let count_switch t src dst =
  incr (find (find t.matrix src (fun _ -> names ())) dst (fun _ -> ref 0))

(* The operation a span's cost is attributed to: the one being switched
   to on enter/thread, the one being left on exit. *)
let span_owner (s : Sink.span) =
  match s.Sink.sp_kind with
  | Sink.Enter | Sink.Thread | Sink.Init -> s.Sink.sp_dst
  | Sink.Exit -> s.Sink.sp_src

let add_leg cell cycles bytes =
  cell.pt_cycles <- cell.pt_cycles + cycles;
  cell.pt_bytes <- cell.pt_bytes + bytes;
  cell.pt_samples <- cell.pt_samples + 1

(* A span's phase legs, into the totals and into the owning
   operation's cells. *)
let rec add_legs t = function
  | [] -> ()
  | (p : Sink.phase_sample) :: rest ->
    add_leg t.totals.(phase_index p.Sink.ph) (p.Sink.ph_end - p.Sink.ph_start)
      p.Sink.ph_bytes;
    t.synced_bytes <- t.synced_bytes + p.Sink.ph_bytes;
    add_legs t rest

let rec add_op_legs o = function
  | [] -> ()
  | (p : Sink.phase_sample) :: rest ->
    add_leg o.op_phases.(phase_index p.Sink.ph) (p.Sink.ph_end - p.Sink.ph_start)
      p.Sink.ph_bytes;
    o.op_synced_bytes <- o.op_synced_bytes + p.Sink.ph_bytes;
    add_op_legs o rest

let add_span t (s : Sink.span) =
  let cycles = Sink.span_cycles s in
  (match s.Sink.sp_kind with
  | Sink.Init ->
    t.init_spans <- t.init_spans + 1;
    t.init_cycles <- Int64.add t.init_cycles (Int64.of_int cycles)
  | Sink.Enter | Sink.Exit | Sink.Thread ->
    t.switch_spans <- t.switch_spans + 1;
    t.switch_cycles <- t.switch_cycles + cycles;
    hist_add t.all_latency cycles;
    count_switch t s.Sink.sp_src s.Sink.sp_dst);
  add_legs t s.Sink.sp_phases;
  let owner = span_owner s in
  if owner <> "" then begin
    let o = op t owner in
    (match s.Sink.sp_kind with
    | Sink.Init -> ()
    | Sink.Enter ->
      o.enters <- o.enters + 1;
      hist_add o.op_latency cycles
    | Sink.Exit ->
      o.exits <- o.exits + 1;
      hist_add o.op_latency cycles
    | Sink.Thread ->
      o.threads <- o.threads + 1;
      hist_add o.op_latency cycles);
    add_op_legs o s.Sink.sp_phases
  end

let add t (e : Sink.event) =
  match e with
  | Sink.Switch s -> add_span t s
  | Sink.Region_swap r ->
    t.swap_events <- t.swap_events + 1;
    if r.rs_op <> "" then (
      let o = op t r.rs_op in
      o.op_swaps <- o.op_swaps + 1)
  | Sink.Emulation e ->
    t.emulation_events <- t.emulation_events + 1;
    if e.em_op <> "" then (
      let o = op t e.em_op in
      o.op_emulations <- o.op_emulations + 1)
  | Sink.Denial d ->
    t.denial_events <- t.denial_events + 1;
    if d.dn_op <> "" then (
      let o = op t d.dn_op in
      o.op_denials <- o.op_denials + 1)
  | Sink.Svc_switch _ -> t.svc_marks <- t.svc_marks + 1

let of_events events =
  let t = create () in
  List.iter (add t) events;
  t

(* Every telemetry event the aggregate has consumed — the load suite's
   "events observed" half of its throughput accounting. *)
let event_count t =
  t.switch_spans + t.init_spans + t.swap_events + t.emulation_events
  + t.denial_events + t.svc_marks

(* Cycles the monitor spent in spans of any kind (switches + init). *)
let monitor_cycles t = Int64.add (Int64.of_int t.switch_cycles) t.init_cycles

let phase_cycles t p = Int64.of_int t.totals.(phase_index p).pt_cycles
let phase_bytes t p = t.totals.(phase_index p).pt_bytes

(* Ops sorted by total span cycles spent on their behalf, descending. *)
let ops_by_cost t =
  fold (fun _ o acc -> o :: acc) t.ops []
  |> List.sort (fun a b ->
         match compare b.op_latency.total a.op_latency.total with
         | 0 -> compare a.op_name b.op_name
         | c -> c)

let matrix_rows t =
  fold
    (fun src row acc -> fold (fun dst n acc -> (src, dst, !n) :: acc) row acc)
    t.matrix []
  |> List.sort compare
