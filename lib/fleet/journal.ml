(* The job journal: an append-only event log of one fleet run, the
   audit trail of what the scheduler actually did — which domain ran
   which unit, what was stolen from whom, what failed and why — in the
   jobs-API shape (one job, per-job artifacts, an exportable audit
   trail).

   The journal is deliberately *not* part of the deterministic
   consolidated report: it records the schedule, and the schedule is
   whatever work stealing made of the machine that day.  Two runs at
   different [-j] produce byte-identical reports and different
   journals; auditors read the journal, CI gates diff the report. *)

module Pool = Opec_pipeline.Pool

type entry = {
  e_seq : int;  (** monotone per-journal sequence number *)
  e_ns : int64;  (** nanoseconds since the run began *)
  e_domain : int;  (** participant id; 0 is the calling domain *)
  e_unit : string;  (** "image:task" *)
  e_kind : string;  (** enqueued | stolen | started | finished | failed *)
  e_detail : string;  (** steal victim, failure message, or empty *)
}

type t = {
  lock : Mutex.t;
  mutable rev_entries : entry list;  (** newest first *)
  mutable seq : int;
}

let create () = { lock = Mutex.create (); rev_entries = []; seq = 0 }

let record t ~ns ~domain ~unit_ ~kind ~detail =
  Mutex.protect t.lock (fun () ->
      let e =
        { e_seq = t.seq; e_ns = ns; e_domain = domain; e_unit = unit_;
          e_kind = kind; e_detail = detail }
      in
      t.seq <- t.seq + 1;
      t.rev_entries <- e :: t.rev_entries)

(* Record one scheduler event; [names.(i)] labels unit [i]. *)
let record_pool_event t (names : string array) (ev : Pool.event) =
  let kind, detail =
    match ev.Pool.ev_kind with
    | Pool.Enqueued -> ("enqueued", "")
    | Pool.Stolen victim -> ("stolen", Printf.sprintf "from domain %d" victim)
    | Pool.Started -> ("started", "")
    | Pool.Finished -> ("finished", "")
    | Pool.Failed msg -> ("failed", msg)
  in
  record t ~ns:ev.Pool.ev_ns ~domain:ev.Pool.ev_domain
    ~unit_:names.(ev.Pool.ev_unit) ~kind ~detail

let entries t = Mutex.protect t.lock (fun () -> List.rev t.rev_entries)

let count t kind =
  List.length (List.filter (fun e -> String.equal e.e_kind kind) (entries t))

module Json = Opec_obs.Json

let entry_json e =
  Json.Obj
    [ ("seq", Json.Int e.e_seq);
      ("ns", Json.Int (Int64.to_int e.e_ns));
      ("domain", Json.Int e.e_domain);
      ("unit", Json.String e.e_unit);
      ("kind", Json.String e.e_kind);
      ("detail", Json.String e.e_detail) ]

let to_json t =
  let events = Json.List (List.map entry_json (entries t)) in
  Json.to_string (Json.Obj [ ("events", events) ])
  ^ "\n"
