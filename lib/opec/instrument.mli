(** Code instrumentation (Section 4.4): rewrite every use of a shared
    global's address to go through its relocation-table slot, with the
    slot loads hoisted to function entry (a switch triggered by a nested
    call restores the caller's table before returning, so the cached
    value stays valid for the activation).

    With a {!resolver}, a function that belongs to exactly one operation
    gets the slot's value as a constant instead of the load, for every
    shared global that operation does not map read-only. *)

open Opec_ir

(** A use of a shared global bound at compile time: in function [fn],
    [&var] is the constant [addr]. *)
type site = { fn : string; var : string; addr : int }

type stats = {
  reloc_sites : int;
      (** relocation-table loads inserted (per function/extern) *)
  svc_sites : int;  (** call sites of operation entry functions *)
  resolved : site list;
      (** resolved (function, var) uses, sorted by function then var *)
}

(** How one function reaches one global. *)
type decision =
  | Resolved of int
      (** the sole operation's target: its shadow, or 0 *)
  | Not_external  (** not a shared global: no relocation at all *)
  | Owners of int
      (** the function belongs to this many operations (not one): it
          loads the slot *)
  | Read_only of string
      (** mapped read-only in this operation, whose slot target depends
          on the monitor mode: it loads the slot *)

(** [resolve fn var]; apply it to [fn] once and reuse the closure. *)
type resolver = string -> string -> decision

(** The one derivation of compile-time relocation targets: operation
    membership from [ops], read-only mappings from [syncsets]
    ({!Opec_analysis.Syncset.ro_set}), and the target from
    {!Metadata.reloc_target}.  The compiler resolves with it, and
    [Monitor.create] re-checks every recorded site against it (lint
    L012 recomputes them on its own). *)
val resolver :
  layout:Layout.t ->
  ops:Operation.t list ->
  metas:(string * Metadata.op_meta) list ->
  syncsets:Opec_analysis.Syncset.t ->
  resolver

(** The table sites of an instrumented function: the variable and slot
    address of each [$rel_g] load in its prologue, in order. *)
val table_loads : Func.t -> (string * int) list

val count_svc_sites : Program.t -> string list -> int

(** Instrument the whole program against a layout, in one pass per
    function.  Without [resolve] every shared-global use goes through
    the table (the paper's configuration). *)
val instrument :
  ?resolve:resolver ->
  Program.t -> Layout.t -> entries:string list -> Program.t * stats
