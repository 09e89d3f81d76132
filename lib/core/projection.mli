(** The end-to-end projection operation [Π_p T] over types.

    This is the paper's full pipeline, in order:

    + {!Applicability.analyze_exn} — infer the methods applicable to
      the derived type (Section 4);
    + {!Factor_state.run_exn} — refactor the hierarchy with surrogate
      types and place the derived type (Section 5);
    + {!Augment.run_exn} — create empty surrogates for the types that
      method-body re-typing requires (Section 6.4), including formal
      types of applicable methods not reached by state factoring;
    + {!Factor_methods.run_exn} — relocate applicable methods onto
      surrogate signatures and re-type their bodies (Sections 6.1–6.3);
    + {!Invariants.check_exn} — verify the paper's preservation claims
      and the typing of every method body, re-checking only what the
      projection changed (disable with [~check:false], e.g. inside
      benchmarks).

    The input schema is validated and type-checked first, once per
    schema value ({!Typing.check_schema_exn}). *)

type outcome = {
  before : Schema.t;  (** the schema as given *)
  schema : Schema.t;  (** the refactored schema including the view type *)
  view : string;
  derived : Type_name.t;
  source : Type_name.t;
  projection : Attr_name.t list;
  analysis : Applicability.result;
  surrogates : Type_name.t Type_name.Map.t;
  z : Type_name.Set.t;  (** the augment set Z that was applied *)
  rewrites : Factor_methods.rewrite list;
}

(** @raise Error.E on invalid schema, unknown source type, empty or
    unavailable projection, name clash, or failed invariant. *)
val project_exn :
  ?check:bool ->
  Schema.t ->
  view:string ->
  ?derived_name:Type_name.t ->
  source:Type_name.t ->
  projection:Attr_name.t list ->
  unit ->
  outcome

val project :
  ?check:bool ->
  Schema.t ->
  view:string ->
  ?derived_name:Type_name.t ->
  source:Type_name.t ->
  projection:Attr_name.t list ->
  unit ->
  (outcome, Error.t) result

val pp_summary : outcome Fmt.t
