(** The paper's correctness conditions, as executable checks.

    Section 1 promises that after a projection "existing types are not
    affected: they must have both the same state and the same behavior
    as before the creation of the derived type", and Section 3 that the
    derived type "has the correct state and behavior".  {!check_exn}
    re-proves both after every checked [Projection.project_exn], and
    {!recheck_exn} re-proves well-formedness after a view is dropped.
    A violation raises [Error.E (Invariant_violation _)] (or the
    validation / typing error the full check would raise).

    {2 Verdicts and what they cost}

    Each check gives the verdict of the full, per-type formulation
    (kept in the test tree as the oracle that the property tests
    compare against), but does only the work the change calls for.
    Both schemas are compiled once ({!Schema_index}); the types of
    [before] (the {e old} types) are interned on both sides; and the
    method-level difference is found by walking the two
    generic-function lists side by side, where an untouched generic
    function is the same physical value on both sides.

    - {b State.}  A type's cumulative state is every attribute of its
      reflexive ancestors, so "old type t has attribute a" is "t ⪯ some
      owner of a".  Comparing, per attribute, the set of old types that
      have it is the transpose of comparing per-type states: the same
      verdict, at one bit test per (owner, old type) pair.  Depends on:
      which old types exist in [after], attribute owners, [⪯].
    - {b Subtyping.}  [a ⪯ b] for every ordered pair of old types, one
      bit test each on the two compiled closures instead of two
      ancestor-set walks.  Depends on: [⪯] among old types.
    - {b Behaviour.}  A method is applicable to old type t when t ⪯ one
      of its parameter types.  Checked per method key: the set of old
      types it applies to must be equal on both sides (empty where a
      side lacks the method) — the transpose of the per-type
      applicable sets.  Once subtyping among old types is proven, a
      method whose parameter types did not change (so are all old
      types) yields equal sets, so only keys that were added, removed
      or re-signatured are visited.  The difference is computed from
      the two schemas, never taken from the projection's own record
      of its rewrites.
    - {b Derived type.}  Its state, its place above the source, and
      its inherited methods against the applicability analysis: one
      type, checked directly.
    - {b Method bodies and signatures.}  [Typing.check_method] and
      [Schema.validate_method_exn] on a method read only its own
      definition, the declarations (arity, result, writer-ness) of its
      generic function and of those it calls, and the existence, state
      and [⪯] of the types it names.  So when [before] is recorded
      [Schema.checked], only methods that are new or redefined, that
      belong to or call a redeclared generic function, or that name an
      old type whose existence, state or relations changed can fail;
      every other method's inputs are unchanged (the separate
      typechecking argument of Panizzi & Pastorelli).  {!check_exn}
      checks [before] first; {!recheck_exn} checks all of [after] when
      [before] is not recorded checked.

    A check that passes in this modular form records [after] as
    [Schema.checked], so the next operation on it (the next define's
    input check, the catalog's validation after a drop) is free. *)

(** The projection's checked tail: [after] is a well-formed hierarchy;
    old types keep their cumulative state, their [⪯] relations to
    each other and their applicable methods; the derived type has
    exactly the projected state, lies above the source and inherits
    exactly the methods the analysis found applicable; and every method
    body of [after] type-checks ([Typing.check_method]).  Checks run in
    that order and the first violation is reported with the same
    message as the full per-type formulation.  [before] is first put
    through [Typing.check_schema_exn], which is free for a value
    recorded checked, as every input of [Projection.project_exn] is by
    then. *)
val check_exn :
  before:Schema.t ->
  after:Schema.t ->
  derived:Type_name.t ->
  source:Type_name.t ->
  projection:Attr_name.t list ->
  analysis:Applicability.result ->
  unit

val check :
  before:Schema.t ->
  after:Schema.t ->
  derived:Type_name.t ->
  source:Type_name.t ->
  projection:Attr_name.t list ->
  analysis:Applicability.result ->
  (unit, Error.t) result

(** [recheck_exn ~before ~after] has the verdict of
    [Typing.check_schema_exn after] ([Schema.validate_exn] then
    [Typing.check_all_methods]) and records [after] checked on success.
    When [before] is recorded checked it re-checks only the methods
    whose inputs differ, with [moved] the old types that disappeared or
    whose state or relations to other old types changed; otherwise it
    checks all of [after].  Used after a view is dropped, where the
    view's types disappear but no surviving type moves. *)
val recheck_exn : before:Schema.t -> after:Schema.t -> unit
