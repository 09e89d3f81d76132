let fail fmt = Fmt.kstr (fun s -> Error.raise_ (Invariant_violation s)) fmt

let attr_name_set attrs =
  Attr_name.Set.of_list (List.map Attribute.name attrs)

let names_of_set s =
  String.concat ", " (List.map Attr_name.to_string (Attr_name.Set.elements s))

module SSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* The change from [before] to [after]                                 *)
(* ------------------------------------------------------------------ *)

(* Both schemas compiled once, the old types (every type of [before])
   interned on both sides, and the method-level difference found by
   walking the two generic-function lists side by side.  Schemas are
   persistent, so an untouched generic function is the same physical
   value on both sides and costs one pointer comparison. *)
type step = {
  before : Schema.t;
  after : Schema.t;
  ib : Schema_index.t;
  ia : Schema_index.t;
  olds : Type_name.t array;  (* before's types; position = id in [ib] *)
  in_after : int array;  (* id in [ia] of each old type, -1 when gone *)
  changed : Method_def.Key.Set.t;  (* methods of [after] new or redefined *)
  resigned : Method_def.Key.Set.t;  (* keys added, removed or re-signatured *)
  redeclared : SSet.t;  (* gfs added, removed, or with another arity,
                           result type or writer-ness *)
}

let param_types m = Signature.param_types (Method_def.signature m)

let gf_declaration schema g =
  let name = Generic_function.name g in
  (Generic_function.arity g, Generic_function.result g, Schema.is_writer_gf schema name)

let diff_methods before after =
  let changed = ref Method_def.Key.Set.empty
  and resigned = ref Method_def.Key.Set.empty
  and redeclared = ref SSet.empty in
  let gone g =
    redeclared := SSet.add (Generic_function.name g) !redeclared;
    List.iter
      (fun m -> resigned := Method_def.Key.Set.add (Method_def.key m) !resigned)
      (Generic_function.methods g)
  in
  let added g =
    gone g;
    List.iter
      (fun m -> changed := Method_def.Key.Set.add (Method_def.key m) !changed)
      (Generic_function.methods g)
  in
  let compare_gf gb ga =
    if gb != ga then begin
      if gf_declaration before gb <> gf_declaration after ga then
        redeclared := SSet.add (Generic_function.name ga) !redeclared;
      List.iter
        (fun ma ->
          let k = Method_def.key ma in
          match Generic_function.find_method gb (Method_def.id ma) with
          | None ->
              changed := Method_def.Key.Set.add k !changed;
              resigned := Method_def.Key.Set.add k !resigned
          | Some mb ->
              if mb != ma && mb <> ma then changed := Method_def.Key.Set.add k !changed;
              if not (List.equal Type_name.equal (param_types mb) (param_types ma))
              then resigned := Method_def.Key.Set.add k !resigned)
        (Generic_function.methods ga);
      List.iter
        (fun mb ->
          if Generic_function.find_method ga (Method_def.id mb) = None then
            resigned := Method_def.Key.Set.add (Method_def.key mb) !resigned)
        (Generic_function.methods gb)
    end
  in
  let rec walk bs as_ =
    match (bs, as_) with
    | [], [] -> ()
    | gb :: bs', [] -> gone gb; walk bs' []
    | [], ga :: as' -> added ga; walk [] as'
    | gb :: bs', ga :: as' ->
        let c =
          String.compare (Generic_function.name gb) (Generic_function.name ga)
        in
        if c = 0 then (compare_gf gb ga; walk bs' as')
        else if c < 0 then (gone gb; walk bs' as_)
        else (added ga; walk bs as')
  in
  walk (Schema.gfs before) (Schema.gfs after);
  (!changed, !resigned, !redeclared)

let step ~before ~after =
  let ib = Schema_index.of_hierarchy (Schema.hierarchy before)
  and ia = Schema_index.of_hierarchy (Schema.hierarchy after) in
  let olds = Array.init (Schema_index.cardinal ib) (Schema_index.name ib) in
  let in_after =
    Array.map (fun n -> Option.value ~default:(-1) (Schema_index.id ia n)) olds
  in
  let changed, resigned, redeclared = diff_methods before after in
  { before; after; ib; ia; olds; in_after; changed; resigned; redeclared }

let n_olds d = Array.length d.olds

(* [a ⪯ b] on both sides, for two old types that survive. *)
let old_subtype_before d i j = Schema_index.subtype_ids d.ib i j
let old_subtype_after d i j = Schema_index.subtype_ids d.ia d.in_after.(i) d.in_after.(j)

(* For each attribute, the old types that have it, on both sides.  A
   type's cumulative state is every attribute of its reflexive
   ancestors, so "type t has attribute a" is "t ⪯ some owner of a".
   Comparing these per-attribute sets is the transpose of comparing
   per-type cumulative states, and it costs one bit test per
   (attribute owner, old type) pair.  Calls [f i] for every surviving
   old type [i] whose state differs. *)
let iter_state_changes d f =
  let owners index h =
    Hierarchy.fold
      (fun def acc ->
        let o = Schema_index.id_exn index (Type_def.name def) in
        List.fold_left
          (fun acc at ->
            let a = Attribute.name at in
            let prev = Option.value ~default:[] (Attr_name.Map.find_opt a acc) in
            Attr_name.Map.add a (o :: prev) acc)
          acc (Type_def.attrs def))
      h Attr_name.Map.empty
  in
  let ob = owners d.ib (Schema.hierarchy d.before)
  and oa = owners d.ia (Schema.hierarchy d.after) in
  let has_before i os = List.exists (fun o -> Schema_index.subtype_ids d.ib i o) os
  and has_after i os =
    d.in_after.(i) >= 0
    && List.exists (fun o -> Schema_index.subtype_ids d.ia d.in_after.(i) o) os
  in
  Attr_name.Map.iter
    (fun _ (bs, as_) ->
      for i = 0 to n_olds d - 1 do
        if d.in_after.(i) >= 0 && has_before i bs <> has_after i as_ then f i
      done)
    (Attr_name.Map.merge
       (fun _ b a ->
         Some (Option.value ~default:[] b, Option.value ~default:[] a))
       ob oa)

let iter_subtype_changes d f =
  for i = 0 to n_olds d - 1 do
    if d.in_after.(i) >= 0 then
      for j = 0 to n_olds d - 1 do
        if d.in_after.(j) >= 0 && old_subtype_before d i j <> old_subtype_after d i j
        then f i j
      done
  done

(* The smallest old-type position for which [scan] reports a change. *)
let first_change scan =
  let first = ref max_int in
  scan (fun i -> if i < !first then first := i);
  if !first = max_int then None else Some !first

(* ------------------------------------------------------------------ *)
(* Preservation of the old types (Section 1)                           *)
(* ------------------------------------------------------------------ *)

(* "They must have the same state ... as before the creation of the
   derived type": every pre-existing type keeps exactly its cumulative
   attribute set.  The scan finds the first violating type; only then
   are its attribute lists built, for the message. *)
let check_state_preserved d =
  let scan f =
    Array.iteri (fun i j -> if j < 0 then f i) d.in_after;
    iter_state_changes d f
  in
  match first_change scan with
  | None -> ()
  | Some i ->
      let n = d.olds.(i) in
      if d.in_after.(i) < 0 then fail "type %a disappeared" Type_name.pp n;
      let state s = attr_name_set (Hierarchy.all_attributes (Schema.hierarchy s) n) in
      fail "cumulative state of %a changed: {%s} vs {%s}" Type_name.pp n
        (names_of_set (state d.before))
        (names_of_set (state d.after))

(* Subtype relationships among pre-existing types are preserved: the
   factorization only inserts supertypes, it never severs or adds
   relations between original types.  One bit test per ordered pair of
   old types, in name order. *)
let check_subtyping_preserved d =
  let exception Changed of int * int in
  match iter_subtype_changes d (fun i j -> raise (Changed (i, j))) with
  | () -> ()
  | exception Changed (i, j) ->
      let was = old_subtype_before d i j and is_ = old_subtype_after d i j in
      fail "subtype %a ⪯ %a changed from %b to %b" Type_name.pp d.olds.(i)
        Type_name.pp d.olds.(j) was is_

(* "and the same behavior": every pre-existing type sees exactly the
   same set of applicable methods.  Checked key by key, the transpose
   of the per-type check: a method is applicable to old type t when
   t ⪯ one of its parameter types, and for each key the set of such
   old types must be the same on both sides (empty where the side has
   no such method).  With subtyping among old types already preserved,
   a method whose parameter types are unchanged (all old types) yields
   the same set on both sides, so only [resigned] keys are visited. *)
let check_behavior_preserved d =
  let applicable_to schema index ~id_of key =
    match Schema.find_method_opt schema key with
    | None -> fun _ -> false
    | Some m ->
        let ps = List.filter_map (Schema_index.id index) (param_types m) in
        fun i ->
          let t = id_of i in
          t >= 0 && List.exists (Schema_index.subtype_ids index t) ps
  in
  let scan f =
    Method_def.Key.Set.iter
      (fun key ->
        let b = applicable_to d.before d.ib ~id_of:Fun.id key
        and a = applicable_to d.after d.ia ~id_of:(fun i -> d.in_after.(i)) key in
        for i = 0 to n_olds d - 1 do
          if b i <> a i then f i
        done)
      d.resigned
  in
  match first_change scan with
  | None -> ()
  | Some i -> fail "applicable methods of %a changed" Type_name.pp d.olds.(i)

(* ------------------------------------------------------------------ *)
(* The derived type (Section 3)                                        *)
(* ------------------------------------------------------------------ *)

(* The derived type's cumulative state is exactly the projection list. *)
let check_derived_state d ~derived ~projection =
  let got = attr_name_set (Hierarchy.all_attributes (Schema.hierarchy d.after) derived) in
  let want = Attr_name.Set.of_list projection in
  if not (Attr_name.Set.equal got want) then
    fail "derived type %a has state {%s}, expected {%s}" Type_name.pp derived
      (names_of_set got) (names_of_set want)

(* The derived type is a supertype of the source (every source instance
   is an instance of the view). *)
let check_derived_above_source d ~derived ~source =
  if not (Schema_index.subtype d.ia source derived) then
    fail "source %a is not a subtype of derived %a" Type_name.pp source
      Type_name.pp derived

(* The derived type inherits all methods found applicable and, among
   the analysis candidates, no others. *)
let check_derived_behavior d ~derived ~(analysis : Applicability.result) =
  let inherited =
    Method_def.Key.Set.of_list
      (List.map Method_def.key (Schema.methods_applicable_to_type d.after d.ia derived))
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

(* ------------------------------------------------------------------ *)
(* Well-formedness of [after], modularly                               *)
(* ------------------------------------------------------------------ *)

(* [Schema.validate_exn] and [Typing.check_method] on one method read:
   the method's own definition; the declaration (arity, result type,
   writer-ness) of its generic function and of every generic function
   its body calls; the existence, cumulative state and [⪯] relations
   of the types it names (parameters, locals, result, and the results
   of the functions it calls).  When [before] passed both checks, a
   method of [after] can fail only if one of those inputs differs, so
   only such methods are re-checked.  [moved] is the set of old types
   that disappeared or whose state or relations to other old types
   changed.  A type that is new in [after] matters only to new or
   redefined methods: an unchanged method that names it passed in
   [before] without it, which it can only have done by comparing the
   name with itself. *)
let methods_to_recheck d ~moved =
  let moved_vt vt =
    match Value_type.as_named vt with
    | Some n -> Type_name.Set.mem n moved
    | None -> false
  in
  let names_moved m =
    (not (Type_name.Set.is_empty moved))
    && (List.exists (fun t -> Type_name.Set.mem t moved) (param_types m)
       || Option.fold ~none:false ~some:moved_vt (Signature.result (Method_def.signature m))
       || Option.fold ~none:false
            ~some:(fun b -> List.exists (fun (_, vt) -> moved_vt vt) (Body.locals b))
            (Method_def.body m))
  in
  let affected =
    List.fold_left
      (fun acc g ->
        match Generic_function.result g with
        | Some vt when moved_vt vt -> SSet.add (Generic_function.name g) acc
        | Some _ | None -> acc)
      d.redeclared (Schema.gfs d.after)
  in
  let calls_affected m =
    (not (SSet.is_empty affected))
    && Option.fold ~none:false
         ~some:
           (Body.fold_stmts
              (fun acc e ->
                acc
                || match e with Body.Call { gf; _ } -> SSet.mem gf affected | _ -> false)
              false)
         (Method_def.body m)
  in
  List.filter
    (fun m ->
      Method_def.Key.Set.mem (Method_def.key m) d.changed
      || SSet.mem (Method_def.gf m) d.redeclared
      || names_moved m || calls_affected m)
    (Schema.all_methods d.after)

let moved_types d =
  let moved = ref Type_name.Set.empty in
  let add i = moved := Type_name.Set.add d.olds.(i) !moved in
  Array.iteri (fun i j -> if j < 0 then add i) d.in_after;
  iter_state_changes d add;
  iter_subtype_changes d (fun i j -> add i; add j);
  !moved

let recheck_exn ~before ~after =
  if not (Schema.checked after) then
    if not (Schema.checked before) then Typing.check_schema_exn after
    else begin
      Hierarchy.validate_exn (Schema.hierarchy after);
      let d = step ~before ~after in
      let ms = methods_to_recheck d ~moved:(moved_types d) in
      List.iter (Schema.validate_method_exn after) ms;
      List.iter (Typing.check_method after) ms;
      Schema.mark_checked after
    end

(* ------------------------------------------------------------------ *)
(* The projection's checked tail                                       *)
(* ------------------------------------------------------------------ *)

let check_exn ~before ~after ~derived ~source ~projection ~analysis =
  Typing.check_schema_exn before;
  Hierarchy.validate_exn (Schema.hierarchy after);
  let d = step ~before ~after in
  check_state_preserved d;
  check_subtyping_preserved d;
  check_behavior_preserved d;
  check_derived_state d ~derived ~projection;
  check_derived_above_source d ~derived ~source;
  check_derived_behavior d ~derived ~analysis;
  (* Old types kept their state and relations, so no type has moved:
     only redefined methods and callers of redeclared generic
     functions can type differently. *)
  let ms = methods_to_recheck d ~moved:Type_name.Set.empty in
  List.iter (Typing.check_method after) ms;
  (* Validation is not part of this check's verdict; it only decides
     whether [after] may be recorded as fully checked. *)
  match List.iter (Schema.validate_method_exn after) ms with
  | () -> Schema.mark_checked after
  | exception Error.E _ -> ()

let check ~before ~after ~derived ~source ~projection ~analysis =
  Error.guard (fun () ->
      check_exn ~before ~after ~derived ~source ~projection ~analysis)
