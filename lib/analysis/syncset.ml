(* Static sync schedules.

   The monitor keeps one master copy of every shared ("external") global
   in the public section and a per-operation shadow in each user's data
   section; at every operation switch it used to copy *all* of the
   switching operations' shadow slots in both directions.  The dataflow
   analysis proves most of that traffic unnecessary at partition time:

   - RO: a slot the operation reads but provably never writes needs no
     shadow at all — the MPU's background region already grants
     unprivileged reads of the public section, so the relocation table
     can point straight at the master and every copy disappears.
     Ineligible: escaped or sanitized variables, and variables with
     pointer fields (their shadow fills localize pointers, which a
     direct master read would skip);

   - KILLED: a slot the operation provably overwrites whole before its
     first read (Dataflow's exposed-read analysis) never exposes its
     entry value, so the entry refill is dead traffic.  Kills apply to
     fresh entries only — a resume mid-activation may land after the
     overwrite — and are disabled entirely under conservative
     scheduling, where yields make every point a potential resume;

   - FILL: what is left of the relevant (may-read ∪ may-write) slots
     after RO and KILLED: the slots whose shadow must actually be fresh
     when the operation starts (may-write matters too: sync is
     whole-variable, so a stale shadow that will be synced out later
     must be refreshed first);

   - OUT: the may-write slots some *other* operation can observe — at
     entry (its fill set), directly (its RO mapping), or after a
     mid-activation suspension (its relevant set, when the operation
     can suspend at all).  Writes nobody can observe are never
     published ("dead publish"); the fuzz harness excludes exactly
     those variables from its final-state comparison;

   - ENTER: the fill set intersected with the union of every other
     operation's OUT set — a shadow needs refilling only when someone
     may actually have changed the master since;

   - RESUME: on an operation exit returning to its suspended caller,
     only operations reachable from the exiting operation can have run,
     so the (src, dst) pair restricts the union to OUT sets of ops in
     reach*(src).  The resume domain is relevant-minus-RO, not the fill
     set: kills do not protect reads that follow a suspension point.

   Globals whose address escaped to a peripheral (Dataflow.escaped_globals)
   have no static write bound and stay in every set where the operation
   holds a slot; sanitized globals are pinned into fill and out so the
   monitor's exit-time range check always guards a fresh value.
   Programs containing raw SVCs (cooperative-thread yields) switch at
   points the operation-call relation cannot see, so resume scheduling
   falls back to the enter sets and kills are disabled. *)

module SS = Set.Make (String)

type op_view = {
  ov_name : string;
  ov_entry : string;
  ov_funcs : SS.t;   (** member functions, icall targets included *)
  ov_slots : SS.t;   (** shadowed (external) globals the op may access *)
  ov_killed : SS.t;  (** slots provably overwritten before any read *)
}

(* Every schedule is a bitset over a universe of global names: the
   points-to analysis's global ids, then any other name the inputs
   mention.  A getter names a set the first time it is asked for and
   keeps the answer in [cache]. *)
type t = {
  views : op_view list;
  op_names : string array;
  names : string array;                 (** universe id -> global *)
  sets : Bits.t array array;            (** per kind, per operation *)
  resume : Bits.t array option;         (** [src * nops + dst] *)
  fallback : Bits.t array;              (** conservative resume, per dst *)
  cache : SS.t array;                   (** [unset] until named *)
  mutable seen : (Bits.t * SS.t) list;  (** every distinct set named *)
  escaped : SS.t;
  conservative_resume : bool;
}

(* the per-operation kinds, as indices into [sets] *)
let k_reads = 0
and k_writes = 1
and k_out = 2
and k_enter = 3
and k_relevant = 4
and k_ro = 5
and k_fill = 6
and k_unobserved = 7

let n_kinds = 8

let nops t = Array.length t.fallback

(* a cache slot not yet filled (compared physically) *)
let unset = SS.singleton ""

let rec seen bits = function
  | [] -> None
  | (b, s) :: rest -> if Bits.equal b bits then Some s else seen bits rest

(* Name a set once per slot, and equal sets (schedules repeat) once. *)
let named t slot bits =
  let s = t.cache.(slot) in
  if s != unset then s
  else begin
    let s =
      if Bits.is_empty bits then SS.empty
      else
        match seen bits t.seen with
        | Some s -> s
        | None ->
          let s = Bits.fold (fun i s -> SS.add t.names.(i) s) bits SS.empty in
          t.seen <- (bits, s) :: t.seen;
          s
    in
    t.cache.(slot) <- s;
    s
  end

(* An operation's index: the last one of that name, -1 for none. *)
let op_index t name =
  let rec find i =
    if i < 0 || String.equal t.op_names.(i) name then i else find (i - 1)
  in
  find (Array.length t.op_names - 1)

let op_exn what t name =
  match op_index t name with
  | -1 -> invalid_arg ("Syncset: no " ^ what ^ " for operation " ^ name)
  | i -> i

let get what kind t name =
  let i = op_exn what t name in
  named t ((kind * nops t) + i) t.sets.(kind).(i)

let ops t = List.map (fun ov -> ov.ov_name) t.views
let slots_of t name =
  match List.find_opt (fun ov -> String.equal ov.ov_name name) t.views with
  | Some ov -> ov.ov_slots
  | None -> invalid_arg ("Syncset: unknown operation " ^ name)

let may_read = get "read set" k_reads
let may_write = get "write set" k_writes
let out_set = get "out set" k_out
let enter_set = get "enter set" k_enter
let relevant_set = get "relevant set" k_relevant
let ro_set = get "read-only set" k_ro
let fill_set = get "fill set" k_fill
let unobserved_set = get "unobserved set" k_unobserved
let escaped t = t.escaped
let conservative_resume t = t.conservative_resume

(* Every global some operation writes without any observer: its master
   is never refreshed by a sync-out, so an external checker must not
   compare it against the baseline's final memory. *)
let unobserved t =
  let n = nops t in
  let all = Bits.create (Array.length t.names) in
  Array.iter (fun s -> Bits.union_into ~dst:all s) t.sets.(k_unobserved);
  named t ((n_kinds * n) + (n * n) + n) all

(* Resume falls back to the conservative per-destination set — the full
   relevant-minus-RO domain against every other operation's OUT — for
   unknown pairs (a switch path the reachability relation did not
   predict) and always under conservative scheduling. *)
let resume_set t ~src ~dst =
  let n = nops t in
  let s = op_index t src and d = op_index t dst in
  match t.resume with
  | Some resume when s >= 0 && d >= 0 ->
    let pair = (s * n) + d in
    named t ((n_kinds * n) + pair) resume.(pair)
  | _ ->
    if d >= 0 then named t ((n_kinds * n) + (n * n) + d) t.fallback.(d)
    else enter_set t dst

(* (src, dst) pairs with an explicit resume schedule, in a deterministic
   order (outer list order of the constructor's [ops]). *)
let pairs t =
  if t.conservative_resume then []
  else
    List.concat_map
      (fun src -> List.map (fun dst -> (src.ov_name, dst.ov_name)) t.views)
      t.views

let compute ~(ops : op_view list) ~(callgraph : Callgraph.t)
    ~(rw : Dataflow.t) ~(escaped : SS.t) ~(sanitized : SS.t)
    ~(ptr_vars : SS.t) ~(has_irq : bool)
    ~(conservative_resume : bool) : t =
  let views = Array.of_list ops in
  let n = Array.length views in
  (* the universe: points-to global ids, then any name only the inputs
     know (an input naming no program global widens it) *)
  let pts = Dataflow.points_to rw in
  let ng = Points_to.n_globals pts in
  (* the inputs as bitsets: slots and kills per op, escaped, sanitized,
     pointer globals *)
  let convert width id =
    let of_set s =
      let b = Bits.create width in
      SS.iter (fun g -> Bits.add b (id g)) s;
      b
    in
    ( Array.map (fun ov -> of_set ov.ov_slots) views,
      Array.map (fun ov -> of_set ov.ov_killed) views,
      of_set escaped, of_set sanitized, of_set ptr_vars )
  in
  let unknown = ref [] in
  let inputs =
    convert ng (fun g ->
        match Points_to.global_id pts g with
        | -1 ->
          if not (List.mem g !unknown) then unknown := g :: !unknown;
          0
        | i -> i)
  in
  let extras = Array.of_list (List.rev !unknown) in
  let width = ng + Array.length extras in
  let names, (slots, killed, escaped_b, sanitized_b, ptr_b) =
    if extras = [||] then (Points_to.global_names pts, inputs)
    else
      ( Array.append (Points_to.global_names pts) extras,
        convert width (fun g ->
            match Points_to.global_id pts g with
            | -1 ->
              let rec find i = if String.equal extras.(i) g then ng + i else find (i + 1) in
              find 0
            | i -> i) )
  in
  let unsyncable = Bits.union escaped_b sanitized_b in
  let no_ro = Bits.union unsyncable ptr_b in
  (* per operation, one pass over its members: the may sets, and the
     operations it calls into (o -> o' when a member of o calls o''s
     entry), which also give the static "can this operation suspend
     mid-activation" bit *)
  let by_entry callee =
    (* the last operation with that entry, as a table built in order would *)
    let rec find j =
      if j < 0 then -1
      else if String.equal views.(j).ov_entry callee then j
      else find (j - 1)
    in
    find (n - 1)
  in
  let reads = Array.make n [||] and writes = Array.make n [||] in
  let succ = Array.make n [] in
  Array.iteri
    (fun i ov ->
      let r = Bits.create width and w = Bits.create width in
      let add callee =
        let j = by_entry callee in
        if j >= 0 && j <> i && not (List.mem j succ.(i)) then succ.(i) <- j :: succ.(i)
      in
      let callees tbl f = Option.iter (SS.iter add) (Hashtbl.find_opt tbl f) in
      SS.iter
        (fun f ->
          Dataflow.add_func_bits rw f ~reads:r ~writes:w;
          callees callgraph.Callgraph.direct f;
          callees callgraph.Callgraph.indirect f)
        ov.ov_funcs;
      reads.(i) <- r;
      writes.(i) <- w)
    views;
  let suspends i = has_irq || conservative_resume || succ.(i) <> [] in
  (* the no-copy slices: read-only master mapping and entry kills *)
  let esc = Array.map (fun s -> Bits.inter escaped_b s) slots in
  let san = Array.map (fun s -> Bits.inter sanitized_b s) slots in
  let relevant =
    Array.init n (fun i ->
        let r = Bits.union reads.(i) writes.(i) in
        Bits.inter_into ~dst:r slots.(i);
        Bits.union_into ~dst:r esc.(i);
        r)
  in
  let ro =
    Array.init n (fun i ->
        let r = Bits.diff reads.(i) writes.(i) in
        Bits.inter_into ~dst:r slots.(i);
        Bits.diff_into ~dst:r no_ro;
        r)
  in
  let fill =
    Array.init n (fun i ->
        let f = Bits.diff relevant.(i) ro.(i) in
        if not conservative_resume then begin
          let killed = Bits.inter killed.(i) slots.(i) in
          Bits.diff_into ~dst:killed unsyncable;
          Bits.diff_into ~dst:f killed
        end;
        Bits.union_into ~dst:f esc.(i);
        Bits.union_into ~dst:f san.(i);
        f)
  in
  (* what each operation observes: at entry, directly, or (when it can
     suspend) after a mid-activation switch *)
  let sees =
    Array.init n (fun i ->
        let s = Bits.union fill.(i) ro.(i) in
        if suspends i then Bits.union_into ~dst:s relevant.(i);
        s)
  in
  (* [others kind i]: the union of [kind] over every operation but i *)
  let others sets i =
    let u = Bits.create width in
    Array.iteri (fun j s -> if j <> i then Bits.union_into ~dst:u s) sets;
    u
  in
  let out = Array.make n [||] and unobserved = Array.make n [||] in
  for i = 0 to n - 1 do
    let w = Bits.inter writes.(i) slots.(i) in
    (* A publish may be dropped (dead publish) only when all three
       hold: no other operation observes the slot; the operation
       itself kills it (a slot it re-reads across activations must
       keep shadow = master at every exit, or the incremental-copy
       epoch bookkeeping loses the write ordering); and the operation
       never suspends (a mid-activation switch publishes so the
       resume refill can restore the in-progress value). *)
    let observed =
      if suspends i then Bits.copy w
      else Bits.inter w (Bits.union fill.(i) (others sees i))
    in
    Bits.union_into ~dst:observed esc.(i);
    Bits.union_into ~dst:observed san.(i);
    out.(i) <- observed;
    unobserved.(i) <- Bits.diff w observed
  done;
  (* the resume domain ignores kills: a mid-activation resume can land
     between the overwrite and the reads it licenses *)
  let domain = Array.init n (fun i -> Bits.diff relevant.(i) ro.(i)) in
  let enter = Array.make n [||] and fallback = Array.make n [||] in
  for i = 0 to n - 1 do
    let outs = others out i in
    let e = Bits.inter fill.(i) outs in
    Bits.union_into ~dst:e esc.(i);
    enter.(i) <- e;
    let f = Bits.inter domain.(i) outs in
    Bits.union_into ~dst:f esc.(i);
    fallback.(i) <- f
  done;
  (* reach*(o): the ops that can have run while an operation suspended
     under [o] was waiting — reflexive transitive closure of succ. *)
  let resume =
    if conservative_resume then None
    else begin
      let resume = Array.make (n * n) [||] in
      for src = 0 to n - 1 do
        let ran = Array.make n false in
        let rec visit o =
          if not ran.(o) then begin
            ran.(o) <- true;
            List.iter visit succ.(o)
          end
        in
        visit src;
        for dst = 0 to n - 1 do
          let r = Bits.create width in
          Array.iteri
            (fun o s -> if ran.(o) && o <> dst then Bits.union_into ~dst:r s)
            out;
          Bits.inter_into ~dst:r domain.(dst);
          Bits.union_into ~dst:r esc.(dst);
          resume.((src * n) + dst) <- r
        done
      done;
      Some resume
    end
  in
  let sets = Array.make n_kinds [||] in
  List.iter
    (fun (k, v) -> sets.(k) <- v)
    [ (k_reads, reads); (k_writes, writes); (k_out, out); (k_enter, enter);
      (k_relevant, relevant); (k_ro, ro); (k_fill, fill);
      (k_unobserved, unobserved) ];
  { views = ops; op_names = Array.map (fun ov -> ov.ov_name) views; names; sets;
    resume; fallback;
    cache = Array.make ((n_kinds * n) + (n * n) + n + 1) unset; seen = [];
    escaped; conservative_resume }
