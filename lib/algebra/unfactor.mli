(** Dropping a view: the inverse of the projection pipeline.

    Restores the hierarchy and the method signatures to their
    pre-projection shape by merging every surrogate created for the
    view back into its source type.  Cumulative state, subtyping over
    surviving types, and method applicability are restored, and each
    moved-back attribute returns to its position in the schema the view
    was derived from — so dropping views in reverse definition order
    gives a schema that prints exactly as before.  Fails if anything
    outside the view depends on its surrogates, e.g. a later view
    derived through them. *)

open Tdp_core

(** Surrogates tagged with the given view, paired with their sources. *)
val surrogates_of_view :
  Schema.t -> view:string -> (Type_name.t * Type_name.t) list

(** [drop_view_exn schema ~before ~view]: [before] is the schema the
    view was derived from (the [before] of its {!Projection.outcome}); it fixes the
    order of the source types' local attributes and nothing else.
    @raise Error.E [Invariant_violation] when the view is unknown or
    still depended upon. *)
val drop_view_exn : Schema.t -> before:Schema.t -> view:string -> Schema.t

val drop_view :
  Schema.t -> before:Schema.t -> view:string -> (Schema.t, Error.t) result
