(** A catalog of named views over a schema.

    Wraps the derivation machinery in the bookkeeping a database system
    keeps: views are defined by algebraic expressions and named types,
    and can be {e dropped} again.  Dropping the newest view while the
    catalog's schema is still the one its define produced returns the
    recorded pre-define schema itself; any other drop undoes each
    derivation step in reverse ({!Unfactor} for projections,
    un-splicing for generalizations, removal for selection types), and
    the result prints the same.  Dropping a view other views were
    derived through fails with a descriptive error; dropping in reverse
    definition order always succeeds. *)

open Tdp_core

type entry = {
  name : string;
  expr : View.expr;
  view_type : Type_name.t;  (** the derived type, named after the view *)
  steps : View.step list;
  before : Schema.t;  (** the catalog schema the view was defined over *)
  after : Schema.t;  (** the schema its define produced *)
}

type t

val create : Schema.t -> t
val schema : t -> Schema.t

(** Entries in definition order. *)
val entries : t -> entry list

val find_opt : t -> string -> entry option

(** Typecheck a candidate view {e before} any derivation: infer its
    principal schema ({!Tdp_infer.Infer}) in the context of the
    already-defined entries, and check that this catalog's schema
    instantiates it.  A parameterized view can be checked once this way
    and bound many times. *)
val typecheck :
  t ->
  name:string ->
  View.expr ->
  (Tdp_infer.Infer.principal, Tdp_infer.Infer.error) result

(** @raise Error.E on duplicate name or any failing derivation step. *)
val define_exn : t -> name:string -> View.expr -> t * entry

val define : t -> name:string -> View.expr -> (t * entry, Error.t) result

(** Restores [before] of the named entry when it is the newest and the
    catalog's schema is physically its [after]; otherwise
    {!undo_steps_exn} over the entry's steps.
    @raise Error.E when the view is unknown or depended upon. *)
val drop_exn : t -> name:string -> t

val drop : t -> name:string -> (t, Error.t) result

(** The undo path of {!drop_exn}: undo [steps] (innermost first, as
    recorded) in reverse over [schema], then validate.  Moved-back
    attributes return to their pre-define positions.
    @raise Error.E when a step is depended upon. *)
val undo_steps_exn : Schema.t -> View.step list -> Schema.t

(** {!Optimize.collapse_exn} protecting all cataloged view types, every
    type the recorded undo steps reference, {e and} those types' direct
    supertypes and subtypes, so that views remain droppable afterwards;
    returns the removed surrogates. *)
val optimize_exn : t -> t * Type_name.t list

val pp : t Fmt.t
