(* Interprocedural may-read/may-write dataflow.

   The resource analysis (resource.ml) computes one combined access set
   per function — enough for MPU policy, too coarse for scheduling
   synchronization.  This pass re-walks the same instructions over the
   same points-to solution but keeps the direction of every access:
   which globals a function may LOAD from and which it may STORE to,
   including stores through address-taken pointers, [memcpy]-style
   propagation, and (once folded over an operation's member set, which
   already includes resolved icall targets) indirect calls.

   The lattice is the flow-insensitive powerset of global names ordered
   by inclusion; each function's sets are the join over its access
   sites, and an operation's sets are the join over its members.  Both
   are over-approximations of the dynamic access sets — the property
   the static sync schedules (syncset.ml) depend on.

   Every set here is a bitset over the points-to analysis's global ids,
   and a local's abstract value lives at its points-to index in an
   array frame; names are looked up, never built. *)

open Opec_ir
module SS = Set.Make (String)

type func_rw = {
  reads : SS.t;   (** globals the function may load from *)
  writes : SS.t;  (** globals the function may store to *)
}

let empty = { reads = SS.empty; writes = SS.empty }

let union a b =
  { reads = SS.union a.reads b.reads; writes = SS.union a.writes b.writes }

(* Per function, the may sets, named only when a caller asks; and the
   program-wide facts the kill walk needs. *)
type t = {
  df_pts : Points_to.t;
  df_index : Names.t;        (* function -> position in the arrays *)
  df_funcs : Func.t array;
  df_reads : Bits.t array;
  df_writes : Bits.t array;
  df_taken : Bits.t;
  (* function-pointer tables: validated global -> (offset -> targets) *)
  df_tables : (int * int64, SS.t) Hashtbl.t;
  df_table_ok : Bits.t;
}

let rec contains_global = function
  | Expr.Global_addr _ -> true
  | Expr.Const _ | Expr.Local _ | Expr.Func_addr _ -> false
  | Expr.Bin (_, a, b) -> contains_global a || contains_global b
  | Expr.Un (_, a) -> contains_global a

(* [&g + k] for a syntactically constant offset [k]. *)
let rec global_offset (e : Expr.t) =
  match e with
  | Expr.Global_addr g -> Some (g, 0L)
  | Expr.Bin (Expr.Add, a, b) -> (
    match (global_offset a, Expr.const_fold b) with
    | Some (g, o), Some k -> Some (g, Int64.add o k)
    | _ -> (
      match (Expr.const_fold a, global_offset b) with
      | Some k, Some (g, o) -> Some (g, Int64.add o k)
      | _ -> None))
  | Expr.Bin (Expr.Sub, a, b) -> (
    match (global_offset a, Expr.const_fold b) with
    | Some (g, o), Some k -> Some (g, Int64.sub o k)
    | _ -> None)
  | _ -> None

(* The program-wide scan state of [analyze]. *)
type scan = {
  pts : Points_to.t;
  index : Names.t;
  taken : Bits.t;
  candidates : Bits.t;    (* dispatch-table candidates and their poison *)
  poisoned : Bits.t;
  tables : (int * int64, SS.t) Hashtbl.t;
}

(* [bits] gains every global the expression names *)
let rec add_named sn bits = function
  | Expr.Global_addr g ->
    let i = Points_to.global_id sn.pts g in
    if i >= 0 then Bits.add bits i
  | Expr.Const _ | Expr.Local _ | Expr.Func_addr _ -> ()
  | Expr.Bin (_, a, b) ->
    add_named sn bits a;
    add_named sn bits b
  | Expr.Un (_, a) -> add_named sn bits a

let take sn e = add_named sn sn.taken e
let poison_expr sn e = add_named sn sn.poisoned e

(* A store of [v] to [a]: a function address stored at a constant offset
   of a global makes the global a dispatch-table candidate; any other
   store poisons every global the address names (one, for a
   constant-offset address). *)
let table_store sn a (v : Expr.t) =
  match v with
  | Expr.Func_addr fn -> (
    match global_offset a with
    | Some (g, off) ->
      let i = Points_to.global_id sn.pts g in
      if i >= 0 then begin
        Bits.add sn.candidates i;
        let prev = Option.value (Hashtbl.find_opt sn.tables (i, off)) ~default:SS.empty in
        Hashtbl.replace sn.tables (i, off) (SS.add fn prev)
      end
    | None -> poison_expr sn a)
  | _ -> poison_expr sn a

(* One function's may sets, and its share of the address-taken and
   dispatch-table facts.

   Address-taken globals are those whose address can flow somewhere the
   walker cannot follow: bound to a local, stored as a value, compared,
   returned, passed to an undefined function, or passed through an
   unresolvable indirect call.  Direct-call and resolved-icall arguments
   are exempt — the walker descends into those callees with the argument
   bound to the parameter.  An address used purely as a load/store/
   memcpy target is an access, not a taking.

   A global is a valid function-pointer dispatch table when its address
   never escapes at all (not even as a call argument), every store into
   it lands a function address at a constant offset, and no
   memcpy/memset touches it.  Loads from a valid table resolve to the
   stored slot's targets — offset-sensitive, unlike the Andersen
   solution, which is what lets the walker follow [disk_ops]-style
   dispatch into the per-slot callee. *)
let scan_function sn (f : Func.t) reads writes =
  let sc = Points_to.scope sn.pts f.name in
  let access bits e = Points_to.add_expr_globals sn.pts sc e bits in
  let defined g = Names.find sn.index g >= 0 in
  Instr.iter_block
    (fun instr ->
      match instr with
      | Instr.Let (_, e) -> take sn e
      | Instr.Load (_, _, a) -> access reads a
      | Instr.Store (_, a, v) ->
        access writes a;
        take sn v;
        table_store sn a v
      | Instr.Alloca _ -> ()
      | Instr.Memcpy (d, s, n) ->
        access writes d;
        access reads s;
        take sn n;
        poison_expr sn d
      | Instr.Memset (d, v, n) ->
        access writes d;
        take sn v;
        take sn n;
        poison_expr sn d
      | Instr.Call (_, callee, args) -> (
        List.iter (poison_expr sn) args;
        match callee with
        | Instr.Direct g -> if not (defined g) then List.iter (take sn) args
        | Instr.Indirect e ->
          take sn e;
          let resolved =
            match e with
            | Expr.Local x -> (
              match Points_to.local_funcs sn.pts ~func:f.name ~local:x with
              | [] -> false
              | ts -> List.for_all defined ts)
            | _ -> false
          in
          if not resolved then List.iter (take sn) args)
      | Instr.If (c, _, _) | Instr.While (c, _) -> take sn c
      | Instr.Return (Some e) -> take sn e
      | Instr.Return None | Instr.Svc _ | Instr.Halt | Instr.Nop -> ())
    f.body

let analyze (p : Program.t) pts : t =
  let ng = Points_to.n_globals pts in
  let funcs = Array.of_list p.funcs in
  let index = Names.create (Array.length funcs) in
  Array.iteri (fun i (f : Func.t) -> Names.replace index f.name i) funcs;
  let sn =
    { pts; index; taken = Bits.create ng; candidates = Bits.create ng;
      poisoned = Bits.create ng; tables = Hashtbl.create 8 }
  in
  let reads = Array.map (fun _ -> Bits.create ng) funcs in
  let writes = Array.map (fun _ -> Bits.create ng) funcs in
  Array.iteri (fun i f -> scan_function sn f reads.(i) writes.(i)) funcs;
  { df_pts = pts; df_index = index; df_funcs = funcs; df_reads = reads;
    df_writes = writes; df_taken = sn.taken; df_tables = sn.tables;
    df_table_ok = Bits.diff (Bits.diff sn.candidates sn.poisoned) sn.taken }

let points_to t = t.df_pts

let names t bits =
  Bits.fold (fun i s -> SS.add (Points_to.global_name t.df_pts i) s) bits SS.empty

let add_func_bits t f ~(reads : Bits.t) ~(writes : Bits.t) =
  match Names.find t.df_index f with
  | -1 -> ()
  | i ->
    let r = t.df_reads.(i) and w = t.df_writes.(i) in
    for k = 0 to Array.length r - 1 do
      reads.(k) <- reads.(k) lor r.(k);
      writes.(k) <- writes.(k) lor w.(k)
    done

(* Join over a set of functions, as bitsets. *)
let bits_of_funcs t funcs =
  let ng = Points_to.n_globals t.df_pts in
  let reads = Bits.create ng and writes = Bits.create ng in
  SS.iter (fun f -> add_func_bits t f ~reads ~writes) funcs;
  (reads, writes)

let of_func t name =
  match Names.find t.df_index name with
  | -1 -> empty
  | i -> { reads = names t t.df_reads.(i); writes = names t t.df_writes.(i) }

let of_funcs t funcs =
  let r, w = bits_of_funcs t funcs in
  { reads = names t r; writes = names t w }

(* Globals whose address escaped into a peripheral window: the program
   stored a pointer to them into an MMIO register, so a DMA-style device
   may read or write them at any moment — no static bound on the writers
   exists.  The sync schedules treat them fully conservatively and lint
   L010 reports each one. *)
let escaped_globals (p : Program.t) pts =
  let bits = Bits.create (Points_to.n_globals pts) in
  List.iter
    (fun (pe : Peripheral.t) -> Points_to.periph_globals pts pe.name bits)
    p.peripherals;
  Bits.fold (fun i s -> SS.add (Points_to.global_name pts i) s) bits SS.empty

(* Does the program contain a raw SVC?  Cooperative-thread yields do, and
   they allow context switches at points the operation-call relation
   cannot see; syncset falls back to conservative resume sets then. *)
let rec block_has_svc = function
  | [] -> false
  | Instr.Svc _ :: _ -> true
  | Instr.If (_, a, b) :: rest -> block_has_svc a || block_has_svc b || block_has_svc rest
  | Instr.While (_, body) :: rest -> block_has_svc body || block_has_svc rest
  | _ :: rest -> block_has_svc rest

let has_svc (p : Program.t) =
  List.exists (fun (f : Func.t) -> block_has_svc f.body) p.funcs

(* Does the program declare an interrupt handler?  An IRQ-entered
   operation can preempt any other mid-activation, which widens the set
   of switch points exactly like a cooperative yield does. *)
let has_irq (p : Program.t) =
  List.exists (fun (f : Func.t) -> f.Func.irq) p.funcs

(* ------------------------------------------------------------------ *)
(* Exposed-read (kill) analysis.

   The may-read/may-write sets above bound WHAT an operation touches;
   they say nothing about ORDER.  Many embedded buffers are scratch: the
   operation fully overwrites them before its first read (a disk sector
   window, a staging buffer refilled from a device), so the value the
   buffer held when the operation was entered is dead — refilling the
   shadow from the master at entry moves bytes nobody will look at.
   This pass proves such kills with a per-variable three-point lattice
   walked flow-sensitively through the operation's code:

       Killed(0)  <  Unseen(1)  <  NeedsFill(2)

   Unseen is the entry state; the join of two control-flow paths is the
   maximum.  A proven whole-variable overwrite moves Unseen to Killed; a
   read — or a write not proven to cover the variable — moves Unseen to
   NeedsFill.  Both extremes absorb: once the entry value is dead it
   stays dead (later reads see the operation's own data), and once it
   may have been observed no later overwrite un-observes it.  A variable
   that finishes the walk Killed never exposes its entry value, so the
   monitor can skip its entry refill — and, when no other operation
   observes it either, the publish too.

   Whole-variable overwrites are recognized in three syntactic forms:
   - a store at offset 0 whose width covers the variable;
   - [Memcpy]/[Memset] with a constant byte count covering it;
   - the canonical [Build.for_] fill loop — a constant-trip-count
     counting loop whose only accesses to the variable are stores at
     [base + i*s] of width [s] with [trips * s] covering it (the
     BSP_SD_ReadBlock / driver-refill shape).

   Everything subtler degrades toward NeedsFill, never toward Killed:
   address-taken variables are never killed (an unseen alias could read
   them), unresolvable indirect calls and recursion join the callee's
   whole may-access set as reads, and a call that crosses into another
   operation's entry is treated as opaque (its effects land in that
   operation's shadows, and the resume schedule — which deliberately
   ignores kills — refreshes whatever it published).  The dynamic side
   of lint L011 replays a traced run against the resulting schedule, so
   an unsound kill would surface as a stale read there. *)

(* The walk's state: two bitsets over global ids.  A variable is Killed
   when its [killed] bit is set, NeedsFill when its [needs] bit is, and
   Unseen otherwise; the two never overlap.  The join (pointwise max) is
   an intersection of the kills and a union of the needs. *)
type state = { killed : Bits.t; needs : Bits.t }

let copy_state st = { killed = Bits.copy st.killed; needs = Bits.copy st.needs }

(* Abstract value of a local during the walk. *)
type aval =
  | AGlob of int * int64 option  (** &g + known or unknown offset; g is a
                                     global id, -1 for an unknown name *)
  | AFuncs of SS.t               (** one of these functions' addresses *)
  | ATop

let aval_eq a b =
  match (a, b) with
  | AGlob (g, o), AGlob (g', o') -> g = g' && Option.equal Int64.equal o o'
  | AFuncs s, AFuncs s' -> SS.equal s s'
  | ATop, ATop -> true
  | (AGlob _ | AFuncs _ | ATop), _ -> false

(* A function the walk enters: its points-to scope indexes its array
   environment. *)
type frame = {
  func : string;
  fd : Func.t;
  sc : Points_to.scope option;
  size : int;  (* environment slots *)
}

type exposure = {
  ex_rw : t;
  ex_pts : Points_to.t;
  ex_cg : Callgraph.t;
  ex_sizes : int array;    (* global id -> size; 0 when undeclared *)
  ex_sized : Bits.t;       (* declared globals *)
  ex_trackable : Bits.t;   (* declared and never address-taken *)
  ex_bases : aval array;   (* global id -> &g, so a walk allocates none *)
  ex_op_entries : SS.t;
  ex_frames : frame option array;  (* per function, built on first entry *)
  mutable ex_reach : (string * Bits.t) list;  (* memo of [reach_access] *)
  mutable ex_memo : (string * SS.t) list;     (* memo of [killed_of] *)
}

let exposure (p : Program.t) pts (rw : t) (cg : Callgraph.t)
    ~(op_entries : SS.t) : exposure =
  let ng = Points_to.n_globals pts in
  let sizes = Array.make ng 0 and sized = Bits.create ng in
  List.iter
    (fun (g : Global.t) ->
      match Points_to.global_id pts g.name with
      | -1 -> ()
      | i ->
        sizes.(i) <- Global.size g;
        Bits.add sized i)
    p.globals;
  let at_zero = Some 0L in
  { ex_rw = rw; ex_pts = pts; ex_cg = cg; ex_sizes = sizes; ex_sized = sized;
    ex_trackable = Bits.diff sized rw.df_taken;
    ex_bases = Array.init ng (fun g -> AGlob (g, at_zero));
    ex_op_entries = op_entries;
    ex_frames = Array.make (Array.length rw.df_funcs) None;
    ex_reach = []; ex_memo = [] }

(* --- the interprocedural walk --- *)

let frame ex i =
  match ex.ex_frames.(i) with
  | Some fr -> fr
  | None ->
    let fd = ex.ex_rw.df_funcs.(i) in
    let sc = Points_to.scope ex.ex_pts fd.Func.name in
    let fr = { func = fd.Func.name; fd; sc; size = Points_to.n_locals sc + 1 } in
    ex.ex_frames.(i) <- Some fr;
    fr

(* A local's slot, the last slot for a name the constraints never saw
   (every assigned local is named, so that slot is never read). *)
let slot ex fr x =
  match Points_to.local_index ex.ex_pts fr.sc x with
  | -1 -> Points_to.n_locals fr.sc
  | i -> i

let lookup ex fr env x =
  match Points_to.local_index ex.ex_pts fr.sc x with -1 -> ATop | i -> env.(i)

let killed st g = Bits.mem st.killed g
let needs st g = Bits.mem st.needs g

(* dst := pointwise maximum over [sts] *)
let join_all dst sts =
  match sts with
  | [] -> ()
  | s :: rest ->
    Array.blit s.killed 0 dst.killed 0 (Array.length s.killed);
    Array.blit s.needs 0 dst.needs 0 (Array.length s.needs);
    List.iter
      (fun s ->
        Bits.inter_into ~dst:dst.killed s.killed;
        Bits.union_into ~dst:dst.needs s.needs)
      rest

let states_equal a b = Bits.equal a.killed b.killed && Bits.equal a.needs b.needs

let mark_exposed ex st g =
  if g >= 0 && Bits.mem ex.ex_sized g && not (killed st g) then Bits.add st.needs g

(* every declared global of [bits] the state has not killed needs a fill *)
let expose_all ex st bits =
  for w = 0 to Array.length bits - 1 do
    st.needs.(w) <-
      st.needs.(w) lor (bits.(w) land ex.ex_sized.(w) land lnot st.killed.(w))
  done

let trackable ex g = g >= 0 && Bits.mem ex.ex_trackable g

let mark_kill ex st g =
  if trackable ex g && not (killed st g || needs st g) then Bits.add st.killed g

(* Globals an address may target by points-to. *)
let addr_globals ex fr e =
  let bits = Bits.create (Array.length ex.ex_sizes) in
  Points_to.add_expr_globals ex.ex_pts fr.sc e bits;
  bits

let table_load ex g off =
  let rw = ex.ex_rw in
  if g < 0 || not (Bits.mem rw.df_table_ok g) then None
  else
    let specific =
      Option.bind off (fun o -> Hashtbl.find_opt rw.df_tables (g, o))
    in
    match specific with
    | Some ts -> Some ts
    | None ->
      (* unknown or unpopulated offset: any slot of this table *)
      Some
        (Hashtbl.fold
           (fun (g', _) ts acc -> if g' = g then SS.union acc ts else acc)
           rw.df_tables SS.empty)

(* an address the walker cannot pin to one global: fall back to the
   points-to roots, exposing each possible target *)
let exposed_addr ex fr st a = expose_all ex st (addr_globals ex fr a)

let bind ex fr env x v = env.(slot ex fr x) <- v

(* &g + o, moved by a constant [k] *)
let shift op g o k =
  match (o, k) with
  | Some 0L, Some _ when op = Expr.Add -> AGlob (g, k)
  | Some o, Some k ->
    AGlob (g, Some (if op = Expr.Add then Int64.add o k else Int64.sub o k))
  | _ -> AGlob (g, None)

let rec aeval ex fr env (e : Expr.t) : aval =
  match e with
  | Expr.Global_addr g -> (
    match Points_to.global_id ex.ex_pts g with
    | -1 -> AGlob (-1, Some 0L)
    | i -> ex.ex_bases.(i))
  | Expr.Func_addr f -> AFuncs (SS.singleton f)
  | Expr.Const _ -> ATop
  | Expr.Local x -> lookup ex fr env x
  | Expr.Bin (((Expr.Add | Expr.Sub) as op), a, b) -> (
    match aeval ex fr env a with
    | AGlob (g, o) when not (contains_global b) -> shift op g o (Expr.const_fold b)
    | _ -> (
      match aeval ex fr env b with
      | AGlob (g, o) when op = Expr.Add && not (contains_global a) ->
        shift op g o (Expr.const_fold a)
      | _ -> ATop))
  | Expr.Bin _ | Expr.Un _ -> ATop

(* locals assigned anywhere in a block (loop-carried state poisoning) *)
let assigned_locals block =
  Instr.fold_block
    (fun acc i ->
      match i with
      | Instr.Let (x, _) | Instr.Load (x, _, _) | Instr.Alloca (x, _)
      | Instr.Call (Some x, _, _) -> x :: acc
      | _ -> acc)
    [] block

(* Recognize the [Build.for_] whole-variable fill: counting loop
   [i = 0; while (i < N) { ...; i = i + 1 }] whose only accesses to a
   candidate variable are affine stores [base + i*s] (or [base + i] for
   byte stores) of width [s], covering [N*s >= size].  Loads targeting
   other memory (a peripheral FIFO) are fine; any branch, nested loop,
   call or early exit in the body rejects the candidacy outright. *)
let loop_fill_kills ex fr env ~ix ~trips body =
  let flat_ok =
    List.for_all
      (fun i ->
        match i with
        | Instr.Let _ | Instr.Load _ | Instr.Store _ -> true
        | _ -> false)
      body
  in
  let increment_last =
    match List.rev body with
    | Instr.Let (x, Expr.Bin (Expr.Add, Expr.Local x', Expr.Const 1L)) :: _ ->
      String.equal x ix && String.equal x' ix
    | _ -> false
  in
  let ix_writes =
    List.length
      (List.filter
         (fun i ->
           match i with
           | Instr.Let (x, _) | Instr.Load (x, _, _) -> String.equal x ix
           | _ -> false)
         body)
  in
  if not (flat_ok && increment_last && ix_writes = 1 && trips >= 1L) then []
  else begin
    let affine_base w (addr : Expr.t) =
      let s = Int64.of_int (Instr.width_bytes w) in
      match addr with
      | Expr.Bin (Expr.Add, base, Expr.Bin (Expr.Mul, Expr.Local i, Expr.Const k))
      | Expr.Bin (Expr.Add, base, Expr.Bin (Expr.Mul, Expr.Const k, Expr.Local i))
        when String.equal i ix && Int64.equal k s ->
        Some base
      | Expr.Bin (Expr.Add, base, Expr.Local i)
        when String.equal i ix && Int64.equal s 1L ->
        Some base
      | _ -> None
    in
    let candidates = ref [] in
    List.iter
      (fun instr ->
        match instr with
        | Instr.Store (w, addr, _) -> (
          match Option.map (aeval ex fr env) (affine_base w addr) with
          | Some (AGlob (g, Some 0L))
            when trackable ex g
                 && Int64.to_int trips * Instr.width_bytes w >= ex.ex_sizes.(g) ->
            if not (List.mem g !candidates) then candidates := g :: !candidates
          | _ -> ())
        | _ -> ())
      body;
    (* a candidate must not be read (or stored non-affinely) in the body *)
    List.filter
      (fun g ->
        List.for_all
          (fun instr ->
            match instr with
            | Instr.Load (_, _, a) -> (
              match aeval ex fr env a with
              | AGlob (g', _) -> g <> g'
              | _ ->
                (* unresolved address: reject if it may alias the
                   candidate through a pointer *)
                not (Bits.mem (addr_globals ex fr a) g))
            | Instr.Store (w, a, v) ->
              (not (contains_global v))
              &&
              (match Option.map (aeval ex fr env) (affine_base w a) with
              | Some (AGlob (g', Some 0L)) when g = g' -> true
              | _ -> (
                match aeval ex fr env a with
                | AGlob (g', _) -> g <> g'
                | _ -> true))
            | _ -> true)
          body)
      !candidates
  end

let rec walk_block ex stack fr env st block =
  match block with
  | [] -> ()
  | Instr.Let (ix, Expr.Const 0L)
    :: (Instr.While (Expr.Bin (Expr.Lt, Expr.Local ix', Expr.Const trips), _)
        as loop)
    :: rest
    when String.equal ix ix' ->
    let body = match loop with Instr.While (_, b) -> b | _ -> [] in
    let kills = loop_fill_kills ex fr env ~ix ~trips body in
    let pre = List.map (fun g -> (g, needs st g)) kills in
    walk_instr ex stack fr env st (Instr.Let (ix, Expr.Const 0L));
    walk_instr ex stack fr env st loop;
    (* the loop provably runs all [trips] iterations and its only accesses
       to each candidate are the covering stores: override the generic
       partial-store result when the entry value was still unexposed *)
    List.iter
      (fun (g, pre_needs) ->
        if not pre_needs then begin
          Bits.add st.killed g;
          Bits.remove st.needs g
        end)
      pre;
    walk_block ex stack fr env st rest
  | instr :: rest ->
    walk_instr ex stack fr env st instr;
    (* code after a Return/Halt in the same block is unreachable *)
    (match instr with
    | Instr.Return _ | Instr.Halt -> ()
    | _ -> walk_block ex stack fr env st rest)

and walk_instr ex stack fr env st (instr : Instr.t) =
  match instr with
  | Instr.Let (x, e) -> bind ex fr env x (aeval ex fr env e)
  | Instr.Alloca (x, _) -> bind ex fr env x ATop
  | Instr.Load (x, _, a) ->
    (match aeval ex fr env a with
    | AGlob (g, off) ->
      mark_exposed ex st g;
      bind ex fr env x (match table_load ex g off with Some ts -> AFuncs ts | None -> ATop)
    | AFuncs _ | ATop ->
      exposed_addr ex fr st a;
      bind ex fr env x ATop)
  | Instr.Store (w, a, _) -> (
    match aeval ex fr env a with
    | AGlob (g, Some 0L)
      when trackable ex g && Instr.width_bytes w >= ex.ex_sizes.(g) ->
      mark_kill ex st g
    | AGlob (g, _) -> mark_exposed ex st g
    | AFuncs _ | ATop -> exposed_addr ex fr st a)
  | Instr.Memcpy (d, s, n) ->
    (match aeval ex fr env s with
    | AGlob (g, _) -> mark_exposed ex st g
    | _ -> exposed_addr ex fr st s);
    cover ex fr env st d n
  | Instr.Memset (d, _, n) -> cover ex fr env st d n
  | Instr.Call (dst, callee, args) ->
    let avals = List.map (aeval ex fr env) args in
    let targets =
      match callee with
      | Instr.Direct f -> [ f ]
      | Instr.Indirect e -> (
        match aeval ex fr env e with
        | AFuncs fs when not (SS.is_empty fs) -> SS.elements fs
        | _ -> (
          match e with
          | Expr.Local x -> Points_to.local_funcs ex.ex_pts ~func:fr.func ~local:x
          | _ -> []))
    in
    (match targets with
    | [] ->
      (* an indirect call to who-knows-where: any global may be read *)
      expose_all ex st ex.ex_sized
    | [ f ] -> do_call ex stack st f avals
    | ts ->
      (* branch over the possible targets and join *)
      let outs =
        List.map
          (fun f ->
            let st' = copy_state st in
            do_call ex stack st' f avals;
            st')
          ts
      in
      join_all st outs);
    (match dst with Some x -> bind ex fr env x ATop | None -> ())
  | Instr.If (_, a, b) ->
    let st1 = copy_state st and env1 = Array.copy env in
    let st2 = copy_state st and env2 = Array.copy env in
    walk_block ex stack fr env1 st1 a;
    walk_block ex stack fr env2 st2 b;
    join_all st [ st1; st2 ];
    Array.iteri
      (fun i v -> env.(i) <- (if aval_eq v env2.(i) then v else ATop))
      env1
  | Instr.While (_, body) ->
    (* poison loop-carried locals, then iterate to a fixpoint: each pass
       re-walks the body from a fresh copy of the poisoned environment,
       joining the resulting states (the max-join keeps the entry state
       for the zero-iteration path) *)
    List.iter (fun x -> bind ex fr env x ATop) (assigned_locals body);
    let rec fix () =
      let before = copy_state st in
      let st' = copy_state st in
      walk_block ex stack fr (Array.copy env) st' body;
      join_all st [ before; st' ];
      if not (states_equal before st) then fix ()
    in
    fix ()
  | Instr.Return _ | Instr.Svc _ | Instr.Halt | Instr.Nop -> ()

(* a Memcpy/Memset destination: a constant length covering a trackable
   global at offset 0 kills it *)
and cover ex fr env st d n =
  match (aeval ex fr env d, Expr.const_fold n) with
  | AGlob (g, Some 0L), Some len
    when trackable ex g && Int64.to_int len >= ex.ex_sizes.(g) ->
    mark_kill ex st g
  | AGlob (g, _), _ -> mark_exposed ex st g
  | _ -> expose_all ex st (addr_globals ex fr d)

(* reads ∪ writes over every function reachable from [f], memoized *)
and reach_access ex f =
  match List.assoc_opt f ex.ex_reach with
  | Some bits -> bits
  | None ->
    let r, w = bits_of_funcs ex.ex_rw (Callgraph.reachable ex.ex_cg f) in
    let bits = Bits.union r w in
    ex.ex_reach <- (f, bits) :: ex.ex_reach;
    bits

and do_call ex stack st f avals =
  let expose_args () =
    List.iter
      (fun av -> match av with AGlob (g, _) -> mark_exposed ex st g | _ -> ())
      avals
  in
  if SS.mem f ex.ex_op_entries then begin
    (* crossing into another operation: its accesses go to its own
       shadows, and the (kill-free) resume schedule covers anything it
       publishes that this operation observes afterwards.  Arguments
       rooted at a global expose that global — the callee accesses it
       through the pointer under its own slot. *)
    expose_args ();
    (* re-entering this operation's own entry is the one switch the
       resume schedule does not cover (reach* excludes the destination
       itself), so everything the recursion may publish reads as exposed *)
    match List.rev stack with
    | entry :: _ when String.equal entry f -> expose_all ex st (reach_access ex f)
    | _ -> ()
  end
  else if List.exists (String.equal f) stack then
    (* recursion: join the callee's whole reachable access set as reads *)
    expose_all ex st (reach_access ex f)
  else
    match Names.find ex.ex_rw.df_index f with
    | -1 -> expose_args ()
    | i ->
      let fr = frame ex i in
      let env = Array.make fr.size ATop in
      let rec bind params avs =
        match (params, avs) with
        | (x, _) :: ps, av :: avs ->
          env.(slot ex fr x) <- av;
          bind ps avs
        | _ :: _, [] | [], _ -> ()
      in
      bind fr.fd.Func.params avals;
      walk_block ex (f :: stack) fr env st fr.fd.Func.body

(* The set of globals whose entry value the operation rooted at [entry]
   provably never observes (memoized per entry). *)
let killed_of ex ~entry =
  match List.assoc_opt entry ex.ex_memo with
  | Some s -> s
  | None ->
    let killed =
      match Names.find ex.ex_rw.df_index entry with
      | -1 -> SS.empty
      | i ->
        let fr = frame ex i in
        let ng = Array.length ex.ex_sizes in
        let st = { killed = Bits.create ng; needs = Bits.create ng } in
        walk_block ex [ entry ] fr (Array.make fr.size ATop) st fr.fd.Func.body;
        names ex.ex_rw st.killed
    in
    ex.ex_memo <- (entry, killed) :: ex.ex_memo;
    killed

(* Globals some type-level pointer field can inhabit: ineligible for
   read-only master mapping, because shadow fills localize pointer
   fields and a direct master read would skip that translation. *)
let rec has_pointer (ty : Ty.t) =
  match ty with
  | Ty.Pointer _ -> true
  | Ty.Byte | Ty.Word -> false
  | Ty.Array (elem, n) -> n > 0 && has_pointer elem
  | Ty.Struct fields -> List.exists (fun (f : Ty.field) -> has_pointer f.field_ty) fields

let pointer_vars (p : Program.t) =
  List.fold_left
    (fun acc (g : Global.t) -> if has_pointer g.ty then SS.add g.name acc else acc)
    SS.empty p.globals
