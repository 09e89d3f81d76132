(** Composable algebraic views over object types.

    The paper treats projection in depth and leaves "the remaining
    algebraic operations" as future work (Section 7).  This module
    composes the projection pipeline with the easy case — selection,
    whose derived type is a plain subtype — into nestable view
    expressions (views over views), and provides both identity-based
    instantiation and copy-based materialization over a store. *)

open Tdp_core

type expr =
  | Base of Type_name.t
  | Project of expr * Attr_name.t list
  | Select of expr * Pred.t
  | Generalize of expr * expr
      (** union view over the operands' shared attributes, see
          {!Generalize} *)
  | Join of expr * expr
      (** common subtype carrying both operands' cumulative state, see
          {!Join}; fails when the operands are already ⪯-related *)

type step =
  | Projected of Projection.outcome
  | Selected of { name : Type_name.t; source : Type_name.t; pred : Pred.t }
  | Generalized of Generalize.outcome
  | Joined of { name : Type_name.t; left : Type_name.t; right : Type_name.t }

type outcome = {
  schema : Schema.t;  (** schema after all steps *)
  name : Type_name.t;  (** the view's derived type *)
  steps : step list;  (** innermost first *)
}

(** Rename the attributes mentioned in projection lists and selection
    predicates. *)
val map_attrs : (Attr_name.t -> Attr_name.t) -> expr -> expr

val pp_expr : expr Fmt.t

(** Derive the view's type, refactoring the hierarchy step by step.
    [name] names the outermost derived type.
    @raise Error.E on any failing step. *)
val derive_exn :
  ?check:bool -> Schema.t -> view:string -> ?name:Type_name.t -> expr -> outcome

val derive :
  ?check:bool ->
  Schema.t ->
  view:string ->
  ?name:Type_name.t ->
  expr ->
  (outcome, Error.t) Stdlib.result

(** Does the expression contain a [Join] anywhere?  Such views have no
    identity extent ({!instances} raises on them); callers that want a
    structured error instead of an exception pre-check with this. *)
val has_join : expr -> bool

(** [instances_with ~leaf expr] — the view's instances with identity
    semantics, for any store: projections pass through, every selection
    pushes down to its [Base] leaves (filtering distributes over a
    generalization's union), and a generalization is the sorted union
    of its operands.  The store supplies [leaf n p]: the deep extent of
    [n] in OID order, filtered by [p] when given, where [p] conjoins the
    leaf's selections inner predicate first.
    @raise Error.E on a [Join] view: a join instance is a {e pair} of
    operand instances, so joins have no identity semantics — use
    {!Join.materialize} over the operand types instead. *)
val instances_with :
  leaf:(Type_name.t -> Pred.t option -> Tdp_store.Oid.t list) ->
  expr ->
  Tdp_store.Oid.t list

(** {!instances_with} over a database: a leaf is
    {!Tdp_store.Database.extent}, or one {!Pred.scan} when filtered.
    @raise Error.E on a [Join] view. *)
val instances : Tdp_store.Database.t -> expr -> Tdp_store.Oid.t list

(** Copy view instances into fresh objects of [view_type].
    @raise Error.E on a [Join] view, as {!instances}. *)
val materialize :
  Tdp_store.Database.t -> view_type:Type_name.t -> expr -> Tdp_store.Oid.t list

(** Lower a view expression to the inference IR ({!Tdp_infer.Pipeline}).
    [is_ref] decides whether a base name references an earlier view of
    the same program or names a source type; selection predicates
    flatten to their comparison atoms. *)
val to_pipeline : is_ref:(Type_name.t -> bool) -> expr -> Tdp_infer.Pipeline.node
