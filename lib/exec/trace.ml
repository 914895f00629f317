(* Execution trace at function granularity.

   This replaces the paper's GDB single-stepping (Section 6.4): the
   interpreter records call/return events natively, and the metrics layer
   segments them into tasks to compute the execution-time over-privilege
   value. *)

type event =
  | Call of string          (** function entered *)
  | Return of string        (** function returned *)
  | Op_enter of string      (** operation switch: entering entry function *)
  | Op_exit of string       (** operation switch: leaving entry function *)
  | Access of { addr : int; write : bool }
      (** one MPU-visible memory access (recorded only when {!t.mem} is set) *)

(* Events are consed in reverse; [fwd_cache] memoizes the reversed
   (execution-order) view so repeated consumers (the lint oracle, trace
   segmentation) stop paying an O(n) copy per query.  Any mutation of
   [rev_events] must go through {!record}/{!record_access}/{!clear} so
   the cache is invalidated. *)
type t = {
  mutable rev_events : event list;
  mutable fwd_cache : event list option;
  mutable enabled : bool;
  mutable mem : bool;  (** also record individual memory accesses *)
}

let create () = { rev_events = []; fwd_cache = None; enabled = true; mem = false }

let record t e =
  if t.enabled then begin
    t.rev_events <- e :: t.rev_events;
    t.fwd_cache <- None
  end

(* [record] of one call-structure event, built only when tracing is on:
   the interpreter records these on every call, and a disabled trace
   must not allocate the event it would drop. *)
let call t f = if t.enabled then record t (Call f)
let return t f = if t.enabled then record t (Return f)
let op_enter t f = if t.enabled then record t (Op_enter f)
let op_exit t f = if t.enabled then record t (Op_exit f)

let record_access t ~addr ~write =
  if t.enabled && t.mem then begin
    t.rev_events <- Access { addr; write } :: t.rev_events;
    t.fwd_cache <- None
  end

let events t =
  match t.fwd_cache with
  | Some evs -> evs
  | None ->
    let evs = List.rev t.rev_events in
    t.fwd_cache <- Some evs;
    evs

let clear t =
  t.rev_events <- [];
  t.fwd_cache <- None

(* Functions executed anywhere in the trace. *)
let executed_functions t =
  List.filter_map
    (function
      | Call f -> Some f
      | Return _ | Op_enter _ | Op_exit _ | Access _ -> None)
    (events t)
  |> List.sort_uniq String.compare

(* Segment the trace into task instances: a task spans an [Op_enter e]
   (or, in an uninstrumented run, a [Call e] to a designated task entry at
   nesting depth relative to its return) until the matching exit.  Returns
   (entry, executed functions) per task instance. *)
let tasks_of ~entries (events : event list) =
  let is_entry f = List.mem f entries in
  let finished = ref [] in
  (* stack of (entry, functions accumulated) for nested tasks *)
  let active = ref [] in
  let push_funcs f =
    active := List.map (fun (e, fs) -> (e, f :: fs)) !active
  in
  let handle_enter f =
    if is_entry f then active := (f, [ f ]) :: List.map (fun (e, fs) -> (e, f :: fs)) !active
    else push_funcs f
  in
  let handle_exit f =
    if is_entry f then
      match !active with
      | (e, fs) :: rest when String.equal e f ->
        finished := (e, List.sort_uniq String.compare fs) :: !finished;
        active := rest
      | _ -> ()
  in
  List.iter
    (function
      | Call f | Op_enter f -> handle_enter f
      | Return f | Op_exit f -> handle_exit f
      | Access _ -> ())
    events;
  (* tasks still open at the end of the run (e.g. the main loop) *)
  List.iter
    (fun (e, fs) -> finished := (e, List.sort_uniq String.compare fs) :: !finished)
    !active;
  List.rev !finished

let tasks ~entries t = tasks_of ~entries (events t)

(* Per-global write observation: attribute every recorded write to the
   innermost active context (operation entries push/pop like the lint
   oracle's walker) and resolve its address to a named region.  Returns
   the distinct (context, region) pairs in first-observation order — the
   dynamic ground truth the sync-schedule soundness oracle checks the
   static may-write sets against. *)
let writes_by_context ~contexts ~default ~resolve (events : event list) =
  let stack = ref [] in
  let current () = match !stack with c :: _ -> c | [] -> default in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (function
      | Call f | Op_enter f -> if contexts f then stack := f :: !stack
      | Return f | Op_exit f -> (
        match !stack with
        | c :: rest when String.equal c f -> stack := rest
        | _ -> ())
      | Access { addr; write } -> (
        if write then
          match resolve addr with
          | None -> ()
          | Some region ->
            let key = (current (), region) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              out := key :: !out
            end))
    events;
  List.rev !out

let pp_event fmt = function
  | Call f -> Fmt.pf fmt "call %s" f
  | Return f -> Fmt.pf fmt "ret %s" f
  | Op_enter f -> Fmt.pf fmt "op+ %s" f
  | Op_exit f -> Fmt.pf fmt "op- %s" f
  | Access { addr; write } ->
    Fmt.pf fmt "%s 0x%08X" (if write then "wr" else "rd") addr
