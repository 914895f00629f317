(** Differential properties over a generated (or replayed) firmware.

    Each property judges one pipeline context — optionally against a
    substitute image, which is how the seeded-defect gate checks that a
    deliberately broken image is caught.  Properties never raise: an
    escaping exception is itself a failure. *)

type outcome = Pass | Fail of string

type property = {
  name : string;  (** stable kebab-case identifier, the CLI's [-p] key *)
  doc : string;
  check : ?image:Opec_core.Image.t -> Opec_pipeline.Pipeline.ctx -> outcome;
}

(** The registry, in checking order (cheap static properties first):
    [lint-static], [trace-oracle], [sync-soundness], [transparency],
    [engine-differential], [backend-containment]. *)
val all : property list

val find : string -> property option

(** Run [properties] (default: {!all}) over an app and return the
    failures as [(property, detail)] pairs.  The pipeline entry is
    evicted afterwards, so sweeping thousands of seeds holds memory
    constant. *)
val check_app :
  ?image:Opec_core.Image.t ->
  ?properties:property list ->
  Opec_apps.App.t ->
  (string * string) list
