(** Interprocedural may-read/may-write dataflow analysis.

    Splits the combined access sets of {!Resource} by direction: which
    globals each function may load from and may store to, through direct
    references and through every pointer the points-to analysis resolves
    (address-taken globals, [memcpy] propagation, icall targets).  The
    lattice is the flow-insensitive powerset of global names; all sets
    are sound over-approximations of the dynamic access sets.  The
    static sync schedules ({!Syncset}) are folded from these. *)

open Opec_ir

module SS : Set.S with type elt = string and type t = Set.Make(String).t

type func_rw = {
  reads : SS.t;   (** globals the function may load from *)
  writes : SS.t;  (** globals the function may store to *)
}

val empty : func_rw
val union : func_rw -> func_rw -> func_rw

(** Per-function may-read/may-write sets, held as bitsets over the
    points-to analysis's global ids. *)
type t

(** Per-function may-read/may-write sets for the whole program. *)
val analyze : Program.t -> Points_to.t -> t

(** The points-to solution the sets were computed from. *)
val points_to : t -> Points_to.t

(** A single function's sets ({!empty} when unknown). *)
val of_func : t -> string -> func_rw

(** Join over a set of functions — an operation's sets when applied to
    its member set (whose closure already includes icall targets). *)
val of_funcs : t -> SS.t -> func_rw

(** [add_func_bits t f ~reads ~writes] adds a function's sets to two
    bitsets over global ids, at least as wide as the points-to
    analysis's globals (nothing when [f] is unknown). *)
val add_func_bits : t -> string -> reads:Bits.t -> writes:Bits.t -> unit

(** Globals whose address was stored into a peripheral window: a device
    may access them at any time, so no static write bound exists (lint
    L010 reports these). *)
val escaped_globals : Program.t -> Points_to.t -> SS.t

(** Whether the program contains a raw [Svc] instruction (cooperative
    thread yields), forcing conservative resume scheduling. *)
val has_svc : Program.t -> bool

(** Whether the program declares an interrupt handler: an IRQ-entered
    operation can preempt any other mid-activation, which forces the
    sync schedules to keep suspension-aware observers for every
    operation. *)
val has_irq : Program.t -> bool

(** {1 Exposed-read (kill) analysis}

    A flow-sensitive refinement over the may sets: per operation, which
    globals are provably overwritten whole before any read on every
    path ("killed"), so the value the variable held at operation entry
    is dead and the monitor can skip the entry refill.  The analysis
    walks the operation interprocedurally with a three-point lattice
    (Killed < Unseen < NeedsFill, join = max), recognizing
    whole-variable stores, covering [Memcpy]/[Memset], and the
    constant-trip-count fill loop emitted by [Build.for_]; it resolves
    indirect calls through function-pointer dispatch tables
    offset-sensitively.  Address-taken variables are never killed, and
    unresolvable calls or recursion degrade to NeedsFill — the result
    is sound by construction and dynamically cross-checked by lint
    L011's trace replay. *)

type exposure

(** Pre-compute the program-wide facts (address-taken set,
    function-pointer tables) the per-operation walks share.
    [op_entries] are the operation entry functions: calls crossing an
    entry are opaque operation switches, not inlined callees. *)
val exposure :
  Program.t -> Points_to.t -> t -> Callgraph.t -> op_entries:SS.t -> exposure

(** Globals whose entry value the operation rooted at [entry] provably
    never observes.  Memoized per entry. *)
val killed_of : exposure -> entry:string -> SS.t

(** Globals carrying type-level pointer fields: ineligible for
    read-only master mapping because shadow fills localize pointer
    fields, which a direct master read would skip. *)
val pointer_vars : Program.t -> SS.t
