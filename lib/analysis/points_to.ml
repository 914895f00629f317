(* Inclusion-based (Andersen-style) points-to analysis, the stand-in for
   SVF in the paper (Section 4.1).

   Field-insensitive and flow-insensitive, with an on-the-fly call graph:
   parameter/return copy edges for indirect calls are added the moment a
   call site's callee set gains a function.  The result is sound and
   over-approximate — the property the paper depends on ("the results of
   the point-to analysis are conservative and over-approximated").

   Constant MMIO addresses are modeled as peripheral objects, so datasheet
   identification of peripheral accesses (the paper's IR-level backward
   slicing) falls out of the same propagation: a HAL function receiving a
   handle struct whose field holds a peripheral base sees that peripheral
   in the points-to set of its address operand.

   Every node is interned to a dense id while constraints are generated.
   The solver is a worklist with difference propagation (Hardekopf & Lin,
   PLDI 2007; Pereira & Berlin, CGO 2009): a node's set and its pending
   delta are bitsets over object ids, copy edges carry only the delta,
   and load/store constraints turn into copy edges as pointees arrive. *)

open Opec_ir

type icall_site = { ic_func : string; ic_index : int; ic_node : int; ic_arity : int }

(* A function's interned names while constraints are generated.  Its
   locals are numbered densely in the order the constraints first name
   them. *)
type bscope = {
  sc_name : string;
  sc_id : int;
  sc_arity : int;                      (* declared parameters; 0 if undeclared *)
  mutable sc_obj : int;                (* F:f, -1 if never named *)
  mutable sc_nodes : int array;        (* local index -> node *)
  mutable sc_n : int;                  (* locals named so far *)
  mutable sc_params : int array;       (* $paramN -> node, -1 if never named *)
  mutable sc_ret : int;                (* R:f, -1 if never named *)
  mutable sc_stacks : (string * int) list;
}

(* The datasheet, searched in datasheet order like [Peripheral.find];
   [lo, hi) bounds every window, so most constants (loop bounds,
   offsets) miss without a scan. *)
type windows = { lo : int; hi : int; ds : Peripheral.t list }

let windows (ds : Peripheral.t list) =
  { lo = List.fold_left (fun m (p : Peripheral.t) -> min m p.base) max_int ds;
    hi = List.fold_left (fun m p -> max m (Peripheral.limit p)) min_int ds;
    ds }

let rec first_window addr = function
  | [] -> None
  | (p : Peripheral.t) :: rest ->
    if p.base <= addr && addr < Peripheral.limit p then Some p
    else first_window addr rest

let find_window w addr =
  if addr < w.lo || addr >= w.hi then None else first_window addr w.ds

(* [Expr.const_fold], giving up at the first non-constant operand. *)
let rec fold (e : Expr.t) =
  match e with
  | Expr.Const n -> Some n
  | Expr.Local _ | Expr.Global_addr _ | Expr.Func_addr _ -> None
  | Expr.Un (Expr.Neg, a) -> Option.map Int64.neg (fold a)
  | Expr.Un (Expr.Not, a) -> Option.map Int64.lognot (fold a)
  | Expr.Bin (op, a, c) -> (
    match fold a with
    | None -> None
    | Some x -> (
      match fold c with None -> None | Some y -> Expr.eval_bin op x y))

(* A function in the solution: the set of each of its locals, and its
   own object id (-1 if the program never takes its address). *)
type scope = {
  id : int;
  n_locals : int;
  local_sets : int array;  (* local index -> its set; spare slots past [n_locals] *)
  obj : int;
}

(* The solution keeps the non-empty sets only, numbered densely; every
   reference to a node becomes a reference to its set, -1 when empty. *)
type t = {
  nw : int;                  (* words per set *)
  sets : int array;          (* set k: words [k*nw, (k+1)*nw) *)
  set_descs : Node.t array;  (* set -> the node it belongs to *)
  obj_descs : Node.t array;  (* object id -> descriptor *)
  obj_sets : int array;      (* object id -> the set of its contents *)
  n_globals : int;           (* objects [0, n_globals) are the globals *)
  global_names : string array;
  globals : Names.t;         (* name -> object id, likewise for periphs *)
  periphs : Names.t;
  scope_ids : Names.t;       (* function -> index in [scopes] *)
  scopes : scope array;
  locals : Names.t;
  win : windows;
  icalls : icall_site list;
  pops : int;
}

(* --- interning ----------------------------------------------------------- *)

(* Constraints are (kind, lhs, rhs) triples over node ids:
   Addr_of  lhs ⊇ {rhs}
   Copy     lhs ⊇ rhs
   Load     lhs ⊇ pts(o) for o ∈ pts(rhs)
   Store    pts(o) ⊇ pts(rhs) for o ∈ pts(lhs) *)
let k_addr = 0
and k_copy = 1
and k_load = 2
and k_store = 3

(* One icall site's argument and return nodes, for on-the-fly linking. *)
type site_nodes = { sn_args : int array; sn_ret : int }

type builder = {
  mutable b_descs : Node.t array;
  mutable nn : int;
  mutable cs : int array;
  mutable ncs : int;
  b_globals : Names.t;
  mutable gnodes : int list;  (* global nodes, newest first *)
  b_periphs : Names.t;
  b_scope_ids : Names.t;
  mutable b_scopes : bscope array;
  mutable nscopes : int;
  b_locals : Names.t;        (* (scope id, local) -> index in the scope *)
  b_win : windows;
  mutable sites : (int * site_nodes) list;  (* icall node, its nodes *)
  mutable roots : int list;                 (* [root_list]'s accumulator *)
}

let fresh b desc =
  if b.nn = Array.length b.b_descs then begin
    let a = Array.make (2 * b.nn) desc in
    Array.blit b.b_descs 0 a 0 b.nn;
    b.b_descs <- a
  end;
  b.b_descs.(b.nn) <- desc;
  b.nn <- b.nn + 1;
  b.nn - 1

let constr b k lhs rhs =
  if b.ncs + 3 > Array.length b.cs then begin
    let a = Array.make (2 * Array.length b.cs) 0 in
    Array.blit b.cs 0 a 0 b.ncs;
    b.cs <- a
  end;
  b.cs.(b.ncs) <- k;
  b.cs.(b.ncs + 1) <- lhs;
  b.cs.(b.ncs + 2) <- rhs;
  b.ncs <- b.ncs + 3

let intern tbl name mk b =
  match Names.find tbl name with
  | -1 ->
    let n = fresh b (mk name) in
    Names.replace tbl name n;
    n
  | n -> n

let global b g =
  match Names.find b.b_globals g with
  | -1 ->
    let n = fresh b (Node.Global g) in
    Names.replace b.b_globals g n;
    b.gnodes <- n :: b.gnodes;
    n
  | n -> n

let periph b name = intern b.b_periphs name (fun p -> Node.Periph p) b

let new_scope b name arity =
  let id = b.nscopes in
  let sc =
    { sc_name = name; sc_id = id; sc_arity = arity; sc_obj = -1; sc_nodes = [||];
      sc_n = 0; sc_params = Array.make arity (-1); sc_ret = -1; sc_stacks = [] }
  in
  if id = Array.length b.b_scopes then begin
    let a = Array.make (max 8 (2 * id)) sc in
    Array.blit b.b_scopes 0 a 0 id;
    b.b_scopes <- a
  end;
  b.b_scopes.(id) <- sc;
  b.nscopes <- id + 1;
  Names.replace b.b_scope_ids name id;
  sc

let scope b f =
  match Names.find b.b_scope_ids f with -1 -> new_scope b f 0 | i -> b.b_scopes.(i)

let func_obj b f =
  let sc = scope b f in
  if sc.sc_obj < 0 then sc.sc_obj <- fresh b (Node.Func f);
  sc.sc_obj

let local b sc x =
  match Names.find_in b.b_locals sc.sc_id x with
  | -1 ->
    let n = fresh b (Node.Local (sc.sc_name, x)) in
    let i = sc.sc_n in
    if i = Array.length sc.sc_nodes then begin
      let a = Array.make (max 8 (2 * i)) 0 in
      Array.blit sc.sc_nodes 0 a 0 i;
      sc.sc_nodes <- a
    end;
    sc.sc_nodes.(i) <- n;
    sc.sc_n <- i + 1;
    Names.replace_in b.b_locals sc.sc_id x i;
    n
  | i -> sc.sc_nodes.(i)

let param b sc i =
  if i >= Array.length sc.sc_params then begin
    let a = Array.make (i + 1) (-1) in
    Array.blit sc.sc_params 0 a 0 (Array.length sc.sc_params);
    sc.sc_params <- a
  end;
  if sc.sc_params.(i) < 0 then sc.sc_params.(i) <- fresh b (Node.Param (sc.sc_name, i));
  sc.sc_params.(i)

let ret b sc =
  if sc.sc_ret < 0 then sc.sc_ret <- fresh b (Node.Ret sc.sc_name);
  sc.sc_ret

let stack b sc site =
  match List.assoc_opt site sc.sc_stacks with
  | Some n -> n
  | None ->
    let n = fresh b (Node.Stack (sc.sc_name, site)) in
    sc.sc_stacks <- (site, n) :: sc.sc_stacks;
    n

let is_obj b n = Node.is_object b.b_descs.(n)

(* filler for descriptor arrays *)
let placeholder = Node.Ret ""

(* how [roots] treats each root it finds *)
let m_flow = 0
and m_load = 1
and m_list = 2
and m_intern = 3

(* --- constraint generation --------------------------------------------- *)

(* Value roots of an expression: the nodes whose values may flow out of
   it, left to right.  Constants inside a peripheral window become
   peripheral objects. *)
let rec roots b sc mode lhs (e : Expr.t) =
  match e with
  | Expr.Const n -> (
    match find_window b.b_win (Int64.to_int n) with
    | Some p -> root b mode lhs (periph b p.Peripheral.name)
    | None -> ())
  | Expr.Local x -> root b mode lhs (local b sc x)
  | Expr.Global_addr g -> root b mode lhs (global b g)
  | Expr.Func_addr f -> root b mode lhs (func_obj b f)
  | Expr.Un (_, a) -> roots b sc mode lhs a
  | Expr.Bin (_, a, c) -> (
    (* constant-folding arithmetic keeps peripheral identification exact
       for base+offset forms *)
    match fold e with
    | Some n -> roots b sc mode lhs (Expr.Const n)
    | None ->
      roots b sc mode lhs a;
      roots b sc mode lhs c)

(* What a root [r] of an expression contributes, by [mode]: flowing into
   [lhs], loaded into [lhs], collected in [b.roots], or only interned. *)
and root b mode lhs r =
  if mode = m_flow then constr b (if is_obj b r then k_addr else k_copy) lhs r
  else if mode = m_load then
    (* loading through &g directly: the loaded value may be any pointer
       stored into g (field-insensitive) *)
    constr b (if is_obj b r then k_copy else k_load) lhs r
  else if mode = m_list then b.roots <- r :: b.roots

let flow b sc lhs e = roots b sc m_flow lhs e

let root_list b sc e =
  b.roots <- [];
  roots b sc m_list 0 e;
  let l = List.rev b.roots in
  b.roots <- [];
  l

(* One function's generation state. *)
type fn = {
  b : builder;
  sc : bscope;
  mutable counter : int;  (* icall sites and synthetic copy nodes so far *)
  mutable fsites : icall_site list;
}

let next fn =
  let k = fn.counter in
  fn.counter <- k + 1;
  k

let temp fn prefix = fresh fn.b (Node.Temp (fn.sc.sc_name, prefix, next fn))

(* [*lhs = rhs] for every pair of address and value roots *)
let rec store_pairs fn ls rs =
  match ls with
  | [] -> ()
  | l :: ls ->
    store_roots fn l rs;
    store_pairs fn ls rs

and store_roots fn l = function
  | [] -> ()
  | r :: rs ->
    let b = fn.b in
    (match (is_obj b l, is_obj b r) with
    | false, false ->
      (* pts(o) ⊇ pts(rv) for o ∈ pts(pv) *)
      constr b k_store l r
    | false, true ->
      (* materialize through a synthetic copy node *)
      let tmp = temp fn "$store" in
      constr b k_addr tmp r;
      constr b k_store l tmp
    | true, false -> constr b k_copy l r
    | true, true ->
      let tmp = temp fn "$store" in
      constr b k_addr tmp r;
      constr b k_copy l tmp);
    store_roots fn l rs

(* [*d ⊇ *s], conservatively, for every pair of roots *)
let rec copy_pairs fn ds ss =
  match ds with
  | [] -> ()
  | d :: ds ->
    copy_roots fn d ss;
    copy_pairs fn ds ss

and copy_roots fn d = function
  | [] -> ()
  | s :: ss ->
    let b = fn.b in
    (match (is_obj b d, is_obj b s) with
    | false, false ->
      let tmp = temp fn "$cpy" in
      constr b k_load tmp s;
      constr b k_store d tmp
    | false, true ->
      let tmp = temp fn "$cpy" in
      constr b k_copy tmp s;
      constr b k_store d tmp
    | true, false ->
      let tmp = temp fn "$cpy" in
      constr b k_load tmp s;
      constr b k_copy d tmp
    | true, true -> constr b k_copy d s);
    copy_roots fn d ss

let rec flow_args fn gsc i = function
  | [] -> ()
  | a :: args ->
    flow fn.b fn.sc (param fn.b gsc i) a;
    flow_args fn gsc (i + 1) args

(* an icall site's arguments flow into nodes of their own, linked to a
   callee's parameters once the callee is known *)
let rec icall_args fn index nodes i = function
  | [] -> ()
  | a :: args ->
    (match root_list fn.b fn.sc a with
    | [] -> ()
    | rs ->
      let n = fresh fn.b (Node.Icall_arg (fn.sc.sc_name, index, i)) in
      nodes.(i) <- n;
      List.iter (root fn.b m_flow n) rs);
    icall_args fn index nodes (i + 1) args

let rec gen_block fn = function
  | [] -> ()
  | i :: rest ->
    gen_instr fn i;
    gen_block fn rest

and gen_instr fn instr =
  let b = fn.b and sc = fn.sc in
  match instr with
  | Instr.Let (x, e) -> flow b sc (local b sc x) e
  | Instr.Alloca (x, _ty) -> constr b k_addr (local b sc x) (stack b sc x)
  | Instr.Load (x, _w, a) -> roots b sc m_load (local b sc x) a
  | Instr.Store (_w, a, v) ->
    let rs = root_list b sc v in
    store_pairs fn (root_list b sc a) rs
  | Instr.Call (dst, Instr.Direct g, args) -> (
    let gsc = scope b g in
    flow_args fn gsc 0 args;
    match dst with Some x -> constr b k_copy (local b sc x) (ret b gsc) | None -> ())
  | Instr.Call (dst, Instr.Indirect e, args) -> (
    let index = next fn in
    let node = fresh b (Node.Icall (sc.sc_name, index)) in
    let ret_node = fresh b (Node.Icall_ret (sc.sc_name, index)) in
    let nargs = List.length args in
    fn.fsites <-
      { ic_func = sc.sc_name; ic_index = index; ic_node = node; ic_arity = nargs }
      :: fn.fsites;
    flow b sc node e;
    let arg_nodes = Array.make nargs (-1) in
    icall_args fn index arg_nodes 0 args;
    b.sites <- (node, { sn_args = arg_nodes; sn_ret = ret_node }) :: b.sites;
    match dst with Some x -> constr b k_copy (local b sc x) ret_node | None -> ())
  | Instr.Return (Some e) -> flow b sc (ret b sc) e
  | Instr.Return None | Instr.Svc _ | Instr.Halt | Instr.Nop -> ()
  | Instr.Memcpy (d, s, _n) ->
    let ss = root_list b sc s in
    copy_pairs fn (root_list b sc d) ss
  | Instr.Memset (d, _, _) ->
    (* no constraint, but intern the address so queries resolve it *)
    roots b sc m_intern 0 d
  | Instr.If (_, a, c) ->
    gen_block fn a;
    gen_block fn c
  | Instr.While (_, body) -> gen_block fn body

(* bind declared parameter names to the synthetic $paramN nodes *)
let rec bind_params fn i = function
  | [] -> ()
  | (x, _ty) :: ps ->
    constr fn.b k_copy (local fn.b fn.sc x) (param fn.b fn.sc i);
    bind_params fn (i + 1) ps

let gen_function b (f : Func.t) =
  let fn = { b; sc = scope b f.name; counter = 0; fsites = [] } in
  gen_block fn f.body;
  bind_params fn 0 f.params;
  List.rev fn.fsites

(* --- solver ------------------------------------------------------------- *)

let solve (p : Program.t) =
  let nglobals = List.length p.globals and nfuncs = List.length p.funcs in
  let b =
    { b_descs = Array.make (32 + (8 * nfuncs) + nglobals) placeholder;
      nn = 0;
      cs = Array.make (3 * (8 + (8 * nfuncs))) 0;
      ncs = 0;
      b_globals = Names.create nglobals;
      gnodes = [];
      b_periphs = Names.create 4;
      b_scope_ids = Names.create nfuncs;
      b_scopes = [||];
      nscopes = 0;
      b_locals = Names.create ((2 * nfuncs) + 16);
      b_win = windows p.peripherals;
      sites = [];
      roots = [] }
  in
  (* declared globals first, so global object ids follow declaration order *)
  List.iter (fun (g : Global.t) -> ignore (global b g.name)) p.globals;
  List.iter
    (fun (f : Func.t) ->
      let sc = new_scope b f.name (Func.arity f) in
      sc.sc_obj <- fresh b (Node.Func f.name))
    p.funcs;
  (* sites: per function in order, functions last to first *)
  let icalls =
    List.fold_left (fun acc f -> gen_function b f @ acc) [] p.funcs
  in
  let nn = b.nn and descs = b.b_descs in
  (* object ids: the globals first, then every other object in node order *)
  let obj_ids = Array.make nn (-1) in
  let obj_of_node n = obj_ids.(n) in
  let nobj = ref 0 in
  let number n =
    obj_ids.(n) <- !nobj;
    incr nobj
  in
  List.iter number (List.rev b.gnodes);
  let n_globals = !nobj in
  for n = 0 to nn - 1 do
    if obj_of_node n < 0 && Node.is_object descs.(n) then number n
  done;
  let obj_node = Array.make !nobj 0 in
  for n = 0 to nn - 1 do
    let o = obj_of_node n in
    if o >= 0 then obj_node.(o) <- n
  done;
  let nw = max 1 (Bits.words !nobj) in
  (* node n's set at [n*nw, (n+1)*nw) of [pts], its pending delta at the
     same offset past [dlt] *)
  let pts = Array.make (2 * nn * nw) 0 and dlt = nn * nw in
  (* per node: copy successors at [n]; and at [nn + n] the loads from and
     stores through it, a load's target [l] kept as [l], a store's source
     [r] as [-r - 1] *)
  let lists = Array.make (2 * nn) [] in
  let succ n = lists.(n) and derefs n = lists.(nn + n) in
  (* flags: icall nodes at [n], queued nodes at [nn + n] *)
  let flags = Bytes.make (2 * nn) '\000' in
  List.iter (fun (n, _) -> Bytes.set flags n '\001') b.sites;
  let is_site n = Bytes.get flags n = '\001' in
  (* a FIFO of nodes with a pending delta; each node is queued at most once *)
  let queue = Array.make nn 0 and head = ref 0 and len = ref 0 in
  let push n =
    if Bytes.unsafe_get flags (nn + n) = '\000' then begin
      Bytes.unsafe_set flags (nn + n) '\001';
      queue.((!head + !len) mod nn) <- n;
      incr len
    end
  in
  (* pts(dst) ⊇ src words at [off]: new bits go to the delta too *)
  let absorb src off dst =
    let d = dst * nw in
    let changed = ref false in
    for i = 0 to nw - 1 do
      let fresh = src.(off + i) land lnot pts.(d + i) in
      if fresh <> 0 then begin
        pts.(d + i) <- pts.(d + i) lor fresh;
        pts.(dlt + d + i) <- pts.(dlt + d + i) lor fresh;
        changed := true
      end
    done;
    if !changed then push dst
  in
  let edge src dst =
    lists.(src) <- dst :: lists.(src);
    absorb pts (src * nw) dst
  in
  let i = ref 0 in
  while !i < b.ncs do
    let k = b.cs.(!i) and lhs = b.cs.(!i + 1) and rhs = b.cs.(!i + 2) in
    if k = k_addr then begin
      let o = obj_of_node rhs in
      let w = (lhs * nw) + (o / Bits.bpw) and bit = 1 lsl (o mod Bits.bpw) in
      pts.(w) <- pts.(w) lor bit;
      pts.(dlt + w) <- pts.(dlt + w) lor bit;
      push lhs
    end
    else if k = k_copy then lists.(rhs) <- lhs :: lists.(rhs)
    else if k = k_load then lists.(nn + rhs) <- lhs :: lists.(nn + rhs)
    else lists.(nn + lhs) <- (-rhs - 1) :: lists.(nn + lhs);
    i := !i + 3
  done;
  (* an icall site gained the function [g]: link its arguments to g's
     parameters and g's return value to the site's *)
  let link sn g =
    match Names.find b.b_scope_ids g with
    | -1 -> ()
    | gi ->
      let gsc = b.b_scopes.(gi) in
      for i = 0 to min gsc.sc_arity (Array.length sn.sn_args) - 1 do
        let a = sn.sn_args.(i) in
        if a >= 0 && i < Array.length gsc.sc_params && gsc.sc_params.(i) >= 0
        then edge a gsc.sc_params.(i)
      done;
      if gsc.sc_ret >= 0 then edge gsc.sc_ret sn.sn_ret
  in
  let delta = Array.make nw 0 in
  let pops = ref 0 in
  let rec deref on = function
    | [] -> ()
    | d :: ds ->
      if d >= 0 then edge on d else edge (-d - 1) on;
      deref on ds
  in
  (* the pointee [o] arrived at node [n] *)
  let arrived n o =
    let on = obj_node.(o) in
    deref on (derefs n);
    if is_site n then
      match descs.(on) with Node.Func g -> link (List.assq n b.sites) g | _ -> ()
  in
  let rec spread = function
    | [] -> ()
    | s :: ss ->
      absorb delta 0 s;
      spread ss
  in
  while !len > 0 do
    let n = queue.(!head) in
    head := (!head + 1) mod nn;
    decr len;
    Bytes.unsafe_set flags (nn + n) '\000';
    incr pops;
    Array.blit pts (dlt + (n * nw)) delta 0 nw;
    Array.fill pts (dlt + (n * nw)) nw 0;
    if derefs n <> [] || is_site n then
      for w = 0 to nw - 1 do
        Bits.iter_word (arrived n) delta.(w) (w * Bits.bpw)
      done;
    spread (succ n)
  done;
  let global_names =
    Array.init n_globals (fun g ->
        match descs.(obj_node.(g)) with Node.Global name -> name | _ -> assert false)
  in
  (* keep the non-empty sets, the descriptors that can still be asked
     for, and the name tables mapping to object ids *)
  let set_of = Array.make nn (-1) and n_sets = ref 0 in
  for n = 0 to nn - 1 do
    let nonempty = ref false in
    for w = n * nw to (n * nw) + nw - 1 do
      if pts.(w) <> 0 then nonempty := true
    done;
    if !nonempty then begin
      set_of.(n) <- !n_sets;
      incr n_sets
    end
  done;
  let sets = Array.make (!n_sets * nw) 0 in
  let set_descs = Array.make !n_sets placeholder in
  for n = 0 to nn - 1 do
    let k = set_of.(n) in
    if k >= 0 then begin
      Array.blit pts (n * nw) sets (k * nw) nw;
      set_descs.(k) <- descs.(n)
    end
  done;
  Names.map b.b_globals obj_of_node;
  Names.map b.b_periphs obj_of_node;
  let scopes =
    Array.init b.nscopes (fun i ->
        let sc = b.b_scopes.(i) in
        let local_sets = sc.sc_nodes in
        for j = 0 to sc.sc_n - 1 do
          local_sets.(j) <- set_of.(local_sets.(j))
        done;
        { id = sc.sc_id; n_locals = sc.sc_n; local_sets;
          obj = (if sc.sc_obj < 0 then -1 else obj_of_node sc.sc_obj) })
  in
  { nw; sets; set_descs;
    obj_descs = Array.map (fun n -> descs.(n)) obj_node;
    obj_sets = Array.map (fun n -> set_of.(n)) obj_node;
    n_globals; global_names;
    globals = b.b_globals; periphs = b.b_periphs; scope_ids = b.b_scope_ids;
    scopes; locals = b.b_locals; win = b.b_win;
    icalls = List.map (fun ic -> { ic with ic_node = set_of.(ic.ic_node) }) icalls;
    pops = !pops }

(* --- queries ------------------------------------------------------------ *)

let pops t = t.pops
let icall_sites t = t.icalls
let n_globals t = t.n_globals

let global_name t g = t.global_names.(g)
let global_names t = t.global_names

let global_id t name = Names.find t.globals name
let object_desc t o = t.obj_descs.(o)
let scope t func =
  match Names.find t.scope_ids func with -1 -> None | i -> Some t.scopes.(i)

let iter_set t k f =
  if k >= 0 then
    for w = 0 to t.nw - 1 do
      Bits.iter_word f t.sets.((k * t.nw) + w) (w * Bits.bpw)
    done

let n_locals = function None -> 0 | Some sc -> sc.n_locals

let local_index t sc x =
  match sc with
  | None -> -1
  | Some sc -> Names.find_in t.locals sc.id x

let local_set sc i =
  match sc with Some sc -> sc.local_sets.(i) | None -> invalid_arg "Points_to.local_set"

let named direct o = if o >= 0 then direct o

(* The roots of an expression, looked up without interning: [direct o]
   for each object it names, [indirect o] for each object in the set of
   a local it reads (a name the constraints never mentioned has an empty
   set). *)
let rec iter_expr t sc (e : Expr.t) ~direct ~indirect =
  match e with
  | Expr.Const n -> (
    match find_window t.win (Int64.to_int n) with
    | Some p -> named direct (Names.find t.periphs p.Peripheral.name)
    | None -> ())
  | Expr.Local x -> (
    match local_index t sc x with -1 -> () | i -> iter_set t (local_set sc i) indirect)
  | Expr.Global_addr g -> named direct (Names.find t.globals g)
  | Expr.Func_addr f -> (
    match scope t f with Some fsc -> named direct fsc.obj | None -> ())
  | Expr.Un (_, a) -> iter_expr t sc a ~direct ~indirect
  | Expr.Bin (_, a, c) -> (
    match fold e with
    | Some n -> iter_expr t sc (Expr.Const n) ~direct ~indirect
    | None ->
      iter_expr t sc a ~direct ~indirect;
      iter_expr t sc c ~direct ~indirect)

(* OR the global prefix of set [k] into [dst], a bitset over global
   ids. *)
let or_globals t k (dst : Bits.t) =
  if k >= 0 then begin
    let off = k * t.nw in
    let full = t.n_globals / Bits.bpw and rest = t.n_globals mod Bits.bpw in
    for w = 0 to full - 1 do
      dst.(w) <- dst.(w) lor t.sets.(off + w)
    done;
    if rest > 0 then
      dst.(full) <- dst.(full) lor (t.sets.(off + full) land ((1 lsl rest) - 1))
  end

let set_funcs t k =
  let acc = ref [] in
  iter_set t k (fun o ->
      match object_desc t o with Node.Func f -> acc := f :: !acc | _ -> ());
  List.sort String.compare !acc

(* The globals an expression's roots may point into: the globals it
   names and the global members of every local's set.  A constant-folded
   subterm roots at most a peripheral, so no folding is needed. *)
let rec add_expr_globals t sc (e : Expr.t) dst =
  match e with
  | Expr.Global_addr g -> (
    match Names.find t.globals g with -1 -> () | o -> Bits.add dst o)
  | Expr.Local x -> (
    match local_index t sc x with -1 -> () | i -> or_globals t (local_set sc i) dst)
  | Expr.Const _ | Expr.Func_addr _ -> ()
  | Expr.Un (_, a) -> add_expr_globals t sc a dst
  | Expr.Bin (_, a, b) ->
    add_expr_globals t sc a dst;
    add_expr_globals t sc b dst

let local_funcs t ~func ~local =
  let sc = scope t func in
  match local_index t sc local with -1 -> [] | i -> set_funcs t (local_set sc i)

let periph_globals t name (dst : Bits.t) =
  match Names.find t.periphs name with
  | -1 -> ()
  | o -> or_globals t t.obj_sets.(o) dst

let points_to t ~func ~local =
  let sc = scope t func in
  match local_index t sc local with
  | -1 -> []
  | i ->
    let acc = ref [] in
    iter_set t (local_set sc i) (fun o -> acc := object_desc t o :: !acc);
    List.rev !acc

(* Function targets the analysis found for one indirect call site. *)
let icall_targets t site = set_funcs t site.ic_node

let bindings t =
  let acc = ref [] in
  Array.iteri
    (fun k desc ->
      let members = ref [] in
      iter_set t k (fun o -> members := Node.to_string (object_desc t o) :: !members);
      acc := (Node.to_string desc, List.sort String.compare !members) :: !acc)
    t.set_descs;
  List.sort compare !acc
