(* The process-wide domain pool: a work-stealing scheduler over stdlib
   [Domain]s (no external dependencies).

   Every parallel consumer in the tree — the bench sweep, the attack
   campaign, the fuzz harness, and the fleet evaluation service — routes
   through {!map}, so one knob ({!set_size}) governs the process's
   parallelism and nested parallel calls can never oversubscribe the
   machine: a task that itself calls {!map} runs the nested work inline
   on its own domain (detected through a domain-local flag) instead of
   spawning a second pool under the first.

   Scheduling is work-stealing with per-participant deques: the units
   of one run are dealt round-robin across [d] deques, each participant
   (the calling domain plus [d-1] spawned helpers) drains its own deque
   first and then steals *half* of the first non-empty victim deque it
   finds, so one long-running unit (a slow TCP-Echo campaign, say)
   cannot idle the other domains behind an empty queue.  Units never
   spawn further units, so when every deque is empty the remaining
   units are all executing and participants park on a condition
   variable until the run completes.

   [map f xs] preserves input order in its result list, so any
   evaluation built on it is deterministic regardless of how work is
   interleaved or stolen across domains: every result lands in its own
   slot and the slots are read back in input order.

   Exception safety: a raising unit never wedges the run or leaks a
   domain.  The failure is captured in its slot, the remaining units
   drain normally, every helper is joined, and the first failure *in
   input order* is re-raised to the caller — so a parallel map fails
   with the same exception a sequential [List.map] would have raised,
   only later.

   Observability: an [on_event] hook receives the scheduler's life
   cycle per unit — enqueued, stolen, started, finished, failed — with
   the participant id and a nanosecond timestamp, which is what the
   fleet job journal records. *)

(* --- pool size ----------------------------------------------------------- *)

(* Total participants per run (caller included).  The historical
   default leaves one hardware thread for the rest of the system. *)
let size_ref = Atomic.make (max 1 (Domain.recommended_domain_count () - 1))

let set_size n = Atomic.set size_ref (max 1 n)
let size () = Atomic.get size_ref

(* High-water mark of participants actually used by any run in this
   process — what the bench JSONs report as "domains", so the field
   reflects the parallelism that really happened, not a default. *)
let max_used_ref = Atomic.make 1

let max_used () = Atomic.get max_used_ref

let note_used d =
  let rec bump () =
    let cur = Atomic.get max_used_ref in
    if d > cur && not (Atomic.compare_and_set max_used_ref cur d) then bump ()
  in
  bump ()

(* Live participants across every concurrent run, for the
   no-oversubscription regression test. *)
let live = Atomic.make 0
let live_peak = Atomic.make 0

let note_live () =
  let n = Atomic.fetch_and_add live 1 + 1 in
  let rec bump () =
    let cur = Atomic.get live_peak in
    if n > cur && not (Atomic.compare_and_set live_peak cur n) then bump ()
  in
  bump ()

let drop_live () = ignore (Atomic.fetch_and_add live (-1))
let live_peak_reset () = Atomic.set live_peak (Atomic.get live)
let live_peak_value () = Atomic.get live_peak

(* A domain already running pool work executes nested parallel calls
   inline rather than spawning helpers of its own. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* --- scheduler events ---------------------------------------------------- *)

type event_kind =
  | Enqueued
  | Stolen of int  (** victim participant the unit was taken from *)
  | Started
  | Finished
  | Failed of string  (** [Printexc.to_string] of the unit's exception *)

type event = {
  ev_unit : int;  (** index of the unit in the submitted list *)
  ev_domain : int;  (** participant id; 0 is the calling domain *)
  ev_kind : event_kind;
  ev_ns : int64;  (** nanoseconds since the run began *)
}

(* --- deques -------------------------------------------------------------- *)

(* One mutex per deque; units are coarse (whole campaigns, whole
   compiles), so contention on the deque locks is negligible and a
   plain list under a mutex beats a clever lock-free structure for
   auditability.  The owner pushes and pops at the front; a thief
   splits off the back half. *)
type deque = { dq_lock : Mutex.t; mutable dq_items : int list }

let deque () = { dq_lock = Mutex.create (); dq_items = [] }

let dq_pop d =
  Mutex.protect d.dq_lock (fun () ->
      match d.dq_items with
      | [] -> None
      | x :: tl ->
        d.dq_items <- tl;
        Some x)

(* Take the back half (ceil (n/2) units) of a victim's deque. *)
let dq_steal_half d =
  Mutex.protect d.dq_lock (fun () ->
      let n = List.length d.dq_items in
      if n = 0 then []
      else begin
        let keep = n / 2 in
        let rec split i acc = function
          | rest when i = keep -> (List.rev acc, rest)
          | x :: tl -> split (i + 1) (x :: acc) tl
          | [] -> (List.rev acc, [])
        in
        let kept, taken = split 0 [] d.dq_items in
        d.dq_items <- kept;
        taken
      end)

let dq_push_front d xs =
  Mutex.protect d.dq_lock (fun () -> d.dq_items <- xs @ d.dq_items)

(* --- the run ------------------------------------------------------------- *)

type 'b state = {
  st_lock : Mutex.t;
  st_cond : Condition.t;
  mutable st_remaining : int;  (** units not yet finished *)
  mutable st_epoch : int;  (** bumped on every completion, for parking *)
  st_results : ('b, exn * Printexc.raw_backtrace) result option array;
}

let now_ns t0 =
  Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e9)

let run_units ~domains ~on_event (f : int -> 'b) (n : int) :
    ('b, exn * Printexc.raw_backtrace) result option array =
  let d = max 1 (min domains (max 1 n)) in
  note_used d;
  let t0 = Unix.gettimeofday () in
  let emit ev = match on_event with None -> () | Some h -> h ev in
  let st =
    { st_lock = Mutex.create ();
      st_cond = Condition.create ();
      st_remaining = n;
      st_epoch = 0;
      st_results = Array.make n None }
  in
  let deques = Array.init d (fun _ -> deque ()) in
  (* deal the units round-robin, in order, so participant p starts on
     units p, p+d, p+2d, ... — a deterministic initial layout *)
  for i = n - 1 downto 0 do
    dq_push_front deques.(i mod d) [ i ];
  done;
  for i = 0 to n - 1 do
    emit { ev_unit = i; ev_domain = i mod d; ev_kind = Enqueued; ev_ns = now_ns t0 }
  done;
  let exec p i =
    emit { ev_unit = i; ev_domain = p; ev_kind = Started; ev_ns = now_ns t0 };
    let r =
      try Ok (f i) with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    st.st_results.(i) <- Some r;
    (match r with
    | Ok _ ->
      emit { ev_unit = i; ev_domain = p; ev_kind = Finished; ev_ns = now_ns t0 }
    | Error (e, _) ->
      emit
        { ev_unit = i; ev_domain = p; ev_kind = Failed (Printexc.to_string e);
          ev_ns = now_ns t0 });
    Mutex.protect st.st_lock (fun () ->
        st.st_remaining <- st.st_remaining - 1;
        st.st_epoch <- st.st_epoch + 1;
        Condition.broadcast st.st_cond)
  in
  (* steal from the first non-empty victim after us in ring order *)
  let try_steal p =
    let rec scan k =
      if k = d then None
      else
        let v = (p + k) mod d in
        if v = p then scan (k + 1)
        else
          match dq_steal_half deques.(v) with
          | [] -> scan (k + 1)
          | i :: rest ->
            List.iter
              (fun u ->
                emit
                  { ev_unit = u; ev_domain = p; ev_kind = Stolen v;
                    ev_ns = now_ns t0 })
              (i :: rest);
            dq_push_front deques.(p) rest;
            Some i
    in
    scan 1
  in
  let participant p =
    note_live ();
    Fun.protect ~finally:drop_live (fun () ->
        let rec loop () =
          match dq_pop deques.(p) with
          | Some i ->
            exec p i;
            loop ()
          | None -> (
            match try_steal p with
            | Some i ->
              exec p i;
              loop ()
            | None ->
              (* nothing runnable: either the run is over or the last
                 units are executing elsewhere; park until the epoch
                 moves (steals can make our scan stale, so re-scan on
                 every completion) *)
              let continue_ =
                Mutex.protect st.st_lock (fun () ->
                    if st.st_remaining = 0 then false
                    else begin
                      let seen = st.st_epoch in
                      while st.st_remaining > 0 && st.st_epoch = seen do
                        Condition.wait st.st_cond st.st_lock
                      done;
                      st.st_remaining > 0
                    end)
              in
              if continue_ then loop ())
        in
        loop ())
  in
  let helper p () =
    Domain.DLS.set in_worker true;
    participant p
  in
  let helpers = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter Domain.join !helpers)
    (fun () ->
      (* if a spawn fails (domain exhaustion), run with the helpers we
         got: the caller still drains every unit *)
      (try
         for p = 1 to d - 1 do
           helpers := Domain.spawn (helper p) :: !helpers
         done
       with _ -> ());
      let saved = Domain.DLS.get in_worker in
      Domain.DLS.set in_worker true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_worker saved)
        (fun () -> participant 0));
  st.st_results

(* --- the public map ------------------------------------------------------ *)

let map ?domains ?on_event (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else if Domain.DLS.get in_worker then
    (* nested parallel call from inside a pool worker: the pool is
       already saturated, so run inline on this domain *)
    List.map f xs
  else begin
    let d =
      match domains with Some d -> max 1 d | None -> size ()
    in
    if d <= 1 && Option.is_none on_event then List.map f xs
    else begin
      let results = run_units ~domains:d ~on_event (fun i -> f arr.(i)) n in
      Array.to_list results
      |> List.map (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
    end
  end

(* Like {!map}, but a raising unit becomes [Error] in its slot instead
   of failing the whole run — the fleet scheduler's entry point, where
   task failures are part of the report, not a crash.  Raw [f] goes to
   the scheduler (not a try-wrapped version) so a raising unit emits a
   [Failed] event and the journal sees it. *)
let map_result ?domains ?on_event (f : 'a -> 'b) (xs : 'a list) :
    ('b, exn) result list =
  let wrap x = try Ok (f x) with e -> Error e in
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else if Domain.DLS.get in_worker then List.map wrap xs
  else begin
    let d = match domains with Some d -> max 1 d | None -> size () in
    if d <= 1 && Option.is_none on_event then List.map wrap xs
    else
      run_units ~domains:d ~on_event (fun i -> f arr.(i)) n
      |> Array.to_list
      |> List.map (function
           | Some (Ok v) -> Ok v
           | Some (Error (e, _)) -> Error e
           | None -> assert false)
  end
