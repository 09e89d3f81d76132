(** Static typing of method bodies.

    Supplies the expression types the applicability analysis needs at
    each generic-function call site, and the well-typedness checks that
    Section 6.3 requires the body re-typing to preserve. *)

module SMap : Map.S with type key = string

type env = Value_type.t SMap.t

(** Environment of a method: its formals (as object types) plus its
    declared locals. *)
val env_of_method : Method_def.t -> env

val lookup_var : env -> string -> Value_type.t
val type_of_expr : Schema.t -> env -> Body.expr -> Value_type.t

(** Object types of a call's arguments.
    @raise Error.E [Non_object_argument] for a primitive or untypeable
    argument. *)
val arg_type_names :
  Schema.t -> env -> gf:string -> Body.expr list -> Type_name.t list

(** [compatible h ~from_ ~to_]: can a value of type [from_] be assigned
    to a slot of type [to_]?  Object types use [⪯]; primitives must be
    equal; [Unknown] is permissive. *)
val compatible : Hierarchy.t -> from_:Value_type.t -> to_:Value_type.t -> bool

(** Full body check for one method: variables bound, generic functions
    exist with matching arity, call arguments are objects, assignments
    and returns well-typed.  @raise Error.E on the first violation. *)
val check_method : Schema.t -> Method_def.t -> unit

val check_all_methods : Schema.t -> unit

(** [Schema.validate_exn] then {!check_all_methods}, run at most once
    per schema value: a success is recorded on the value
    ([Schema.mark_checked]) and later calls return at once.  A failure
    records nothing, so the same value raises again on the next call.
    @raise Error.E on the first violation. *)
val check_schema_exn : Schema.t -> unit

(** {!check_schema_exn} as a result. *)
val check_all : Schema.t -> (unit, Error.t) result
