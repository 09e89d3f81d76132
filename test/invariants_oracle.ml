(* The full, per-type formulation of the paper's correctness
   conditions: the checker [Projection.project_exn] ran before the
   preservation checks were restricted to what a change touches.  It
   is kept here, unchanged, as the oracle the differential tests hold
   [Invariants] to.  Every check walks every type and every method, and
   nothing consults the [Schema.checked] record, so a verdict here never
   depends on earlier calls. *)

open Tdp_core

let fail fmt = Fmt.kstr (fun s -> Error.raise_ (Invariant_violation s)) fmt

let attr_name_set attrs =
  Attr_name.Set.of_list (List.map Attribute.name attrs)

(* "They must have the same state ... as before the creation of the
   derived type": every pre-existing type keeps exactly its cumulative
   attribute set. *)
let check_state_preserved ~before ~after =
  List.iter
    (fun def ->
      let n = Type_def.name def in
      if not (Hierarchy.mem after n) then
        fail "type %a disappeared" Type_name.pp n;
      let old_attrs = attr_name_set (Hierarchy.all_attributes before n) in
      let new_attrs = attr_name_set (Hierarchy.all_attributes after n) in
      if not (Attr_name.Set.equal old_attrs new_attrs) then
        fail "cumulative state of %a changed: {%s} vs {%s}" Type_name.pp n
          (String.concat ", "
             (List.map Attr_name.to_string (Attr_name.Set.elements old_attrs)))
          (String.concat ", "
             (List.map Attr_name.to_string (Attr_name.Set.elements new_attrs))))
    (Hierarchy.types before)

(* "and the same behavior": every pre-existing type sees exactly the
   same set of applicable methods, before and after relocation. *)
let check_behavior_preserved ~before ~after =
  let index_b = Schema_index.of_hierarchy (Schema.hierarchy before) in
  let index_a = Schema_index.of_hierarchy (Schema.hierarchy after) in
  List.iter
    (fun def ->
      let n = Type_def.name def in
      let keys schema index =
        Method_def.Key.Set.of_list
          (List.map Method_def.key (Schema.methods_applicable_to_type schema index n))
      in
      let kb = keys before index_b and ka = keys after index_a in
      if not (Method_def.Key.Set.equal kb ka) then
        fail "applicable methods of %a changed" Type_name.pp n)
    (Hierarchy.types (Schema.hierarchy before))

(* Subtype relationships among pre-existing types are preserved: the
   factorization only inserts supertypes, it never severs or adds
   relations between original types. *)
let check_subtyping_preserved ~before ~after =
  let olds = Hierarchy.type_names before in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let was = Hierarchy.subtype before a b
          and is_ = Hierarchy.subtype after a b in
          if was <> is_ then
            fail "subtype %a ⪯ %a changed from %b to %b" Type_name.pp a
              Type_name.pp b was is_)
        olds)
    olds

(* The derived type's cumulative state is exactly the projection list. *)
let check_derived_state ~after ~derived ~projection =
  let got = attr_name_set (Hierarchy.all_attributes after derived) in
  let want = Attr_name.Set.of_list projection in
  if not (Attr_name.Set.equal got want) then
    fail "derived type %a has state {%s}, expected {%s}" Type_name.pp derived
      (String.concat ", " (List.map Attr_name.to_string (Attr_name.Set.elements got)))
      (String.concat ", " (List.map Attr_name.to_string (Attr_name.Set.elements want)))

(* The derived type is a supertype of the source (every source instance
   is an instance of the view). *)
let check_derived_above_source ~after ~derived ~source =
  if not (Hierarchy.subtype after source derived) then
    fail "source %a is not a subtype of derived %a" Type_name.pp source
      Type_name.pp derived

(* The derived type inherits all methods found applicable and, among
   the analysis candidates, no others. *)
let check_derived_behavior ~after ~derived ~(analysis : Applicability.result) =
  let index = Schema_index.of_hierarchy (Schema.hierarchy after) in
  let inherited =
    Method_def.Key.Set.of_list
      (List.map Method_def.key (Schema.methods_applicable_to_type after index derived))
  in
  Method_def.Key.Set.iter
    (fun k ->
      if not (Method_def.Key.Set.mem k inherited) then
        fail "derived type lost applicable method %a" Method_def.Key.pp k)
    analysis.applicable;
  Method_def.Key.Set.iter
    (fun k ->
      if Method_def.Key.Set.mem k inherited then
        fail "derived type inherits non-applicable method %a" Method_def.Key.pp k)
    analysis.not_applicable

(* [Schema.validate_exn] and [Typing.check_all_methods] without the
   record of earlier successes. *)
let validate_exn s =
  Hierarchy.validate_exn (Schema.hierarchy s);
  List.iter (Schema.validate_method_exn s) (Schema.all_methods s)

let type_all_exn s = List.iter (Typing.check_method s) (Schema.all_methods s)

(* The checked tail of a projection: every invariant, then every
   method body of the result. *)
let projection_exn ~before ~after ~derived ~source ~projection ~analysis =
  Hierarchy.validate_exn (Schema.hierarchy after);
  check_state_preserved
    ~before:(Schema.hierarchy before)
    ~after:(Schema.hierarchy after);
  check_subtyping_preserved
    ~before:(Schema.hierarchy before)
    ~after:(Schema.hierarchy after);
  check_behavior_preserved ~before ~after;
  check_derived_state ~after:(Schema.hierarchy after) ~derived ~projection;
  check_derived_above_source ~after:(Schema.hierarchy after) ~derived ~source;
  check_derived_behavior ~after ~derived ~analysis;
  type_all_exn after

(* The checked tail of a drop: the whole result validates and types. *)
let schema_exn s =
  validate_exn s;
  type_all_exn s
