(** The static policy checkers (codes L001–L006, L008–L010, L012–L014).

    Each checker examines one facet of a compiled {!Opec_core.Image.t}
    against the isolation policy the OPEC compiler derived: indirect-call
    resolution, operation reachability, MPU-plan legality, resource-set
    soundness, over-privilege, SVC instrumentation, layout consistency,
    and sync-schedule soundness.  The dynamic trace oracles (L007, L011)
    live in {!Oracle}. *)

type check = Opec_core.Image.t -> Diag.t list

(** L001: indirect-call sites the points-to analysis could not resolve
    (error), or that fell back to type-based matching (warning). *)
val unresolved_icall : check

(** L002: functions belonging to no operation — dead code the policy
    does not cover (info: linked-library code is legitimately unused). *)
val unreachable_function : check

(** L003: every operation's protection plan is constructible and legal
    under the image's backend.  On the MPU: region sizes, base
    alignment, sub-region masks, and coverage of the code span, data
    section, and every merged peripheral range.  On PMP / CHERI / POE:
    data-section fit and the backend's alignment rule (power-of-two,
    granule, or bounds representability) and peripheral coverage.  On
    every backend with a budget, an info when the plan's peripheral
    windows exceed the rotation window
    {!Opec_core.Backend_plan.rotation} reports. *)
val plan_validity : check

(** L004: soundness of resource coverage — every resource of every
    member function is included in its operation's resource set.  A miss
    here is a hole in the paper's core invariant (Section 4.2). *)
val resource_coverage : check

(** L005: over-privilege — resources granted to an operation that no
    member function needs, plus any nonzero partition-time
    over-privilege sample from {!Opec_metrics.Overprivilege.opec_pt}. *)
val over_privilege : check

(** L006: SVC instrumentation — every non-default operation entry is in
    the image's entry list (and vice versa), entries are valid switch
    targets, no stray [Svc] instruction bypasses the monitor protocol,
    and the recorded SVC-site count matches a recount. *)
val svc_instrumentation : check

(** L008: layout consistency — sections within SRAM bounds and the
    spans their backend windows reserve mutually disjoint, and every accessible writable global of
    every operation has the addresses instrumentation relies on (master,
    shadow, relocation slot). *)
val layout_consistency : check

(** L009: sync-schedule soundness — recomputes the static sync schedule
    from the image's analysis artifacts and demands the embedded one is
    at least as strong (no required slot missing from an out / enter /
    resume set) and stays inside each operation's shadow-slot domain. *)
val sync_schedule_soundness : check

(** L010: unsyncable escape — warns about every global whose address
    escaped into a peripheral window (no static write bound exists) and
    errors if the embedded schedule is not conservative for it wherever
    a slot exists. *)
val unsyncable_escape : check

(** L012: resolved relocations — every shared-global use the compiler
    bound to a constant is in a function of exactly one operation, names
    a variable with a relocation slot that the operation does not map
    read-only, and equals the operation's relocation target
    ({!Opec_core.Metadata.reloc_target}). *)
val resolved_relocation : check

(** L013: live relocation slots — recomputes which slots each operation
    reads (any word load of a constant slot address in one of its
    functions; a function of no operation reads under every operation)
    and which of those every reader wants the same target in, and
    demands that [plan] keeps each read slot at the operation's target
    whenever it is current (written on its switches; or, when the slot
    has a single target and no switch rewrites it, written once at init
    or left at the master address the loader put there), and that
    {!Opec_monitor.Monitor.verify} checks exactly the read slots.  A
    write or check of a slot the operation never reads is a warning. *)
val relocation_writes : Opec_monitor.Monitor.reloc_plan -> check

(** L013 against the plan the monitor derives,
    {!Opec_monitor.Monitor.reloc_plan_of}. *)
val live_relocation : check

(** L014: direct grants — every shared global the layout grants in place
    ({!Opec_core.Layout.t.direct}) is re-judged from the program, the
    operations, the developer input and the backend descriptor.  Errors
    when one exists on MPU or POE, has a pointer field or a sanitize
    rule, is not shared, keeps a shadow or a relocation slot, is not
    granted exactly ({!Opec_machine.Backend.grants_exactly}) or its
    word-rounded grant covers a byte of any other object; when an
    operation that may write it (fresh may-write analysis) cannot write
    its master under a fresh install of its plan, or an operation
    outside its users can; and, on the PMP, when an operation holds
    direct grants while a peripheral window rotates. *)
val direct_grant : check
