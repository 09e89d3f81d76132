open Tdp_core

type expr =
  | Base of Type_name.t
  | Project of expr * Attr_name.t list
  | Select of expr * Pred.t
  | Generalize of expr * expr
  | Join of expr * expr

type step =
  | Projected of Projection.outcome
  | Selected of { name : Type_name.t; source : Type_name.t; pred : Pred.t }
  | Generalized of Generalize.outcome
  | Joined of { name : Type_name.t; left : Type_name.t; right : Type_name.t }

type outcome = {
  schema : Schema.t;
  name : Type_name.t;
  steps : step list;  (** innermost first *)
}

(* Rename the attributes a view expression mentions (projection lists
   and selection predicates); used by schema evolution. *)
let rec map_attrs f = function
  | Base n -> Base n
  | Project (e, attrs) -> Project (map_attrs f e, List.map f attrs)
  | Select (e, p) -> Select (map_attrs f e, Pred.map_attrs f p)
  | Generalize (a, b) -> Generalize (map_attrs f a, map_attrs f b)
  | Join (a, b) -> Join (map_attrs f a, map_attrs f b)

let rec pp_expr ppf = function
  | Base n -> Type_name.pp ppf n
  | Project (e, attrs) ->
      Fmt.pf ppf "project %a on [%a]" pp_expr e
        Fmt.(list ~sep:comma Attr_name.pp)
        attrs
  | Select (e, p) -> Fmt.pf ppf "select %a where %a" pp_expr e Pred.pp p
  | Generalize (a, b) -> Fmt.pf ppf "generalize %a with %a" pp_expr a pp_expr b
  | Join (a, b) -> Fmt.pf ppf "join %a with %a" pp_expr a pp_expr b

(* Derive the type of a view expression, threading the schema through
   each algebraic step.  Projection uses the paper's full pipeline;
   selection derives a {e subtype} of its source carrying no new state
   — every instance of the selection is an instance of the source, and
   all the source's methods remain applicable by plain inheritance.

   Each step is tagged with a distinct "view#i" so that {!Catalog} can
   undo the steps individually (surrogates record the tag in their
   origin). *)
let rec derive_step ?check counter schema ~view ?name expr =
  let fresh_tag () =
    incr counter;
    Fmt.str "%s#%d" view !counter
  in
  match expr with
  | Base n ->
      ignore (Hierarchy.find (Schema.hierarchy schema) n);
      { schema; name = n; steps = [] }
  | Project (sub, projection) ->
      let inner = derive_step ?check counter schema ~view sub in
      let o =
        Projection.project_exn ?check inner.schema ~view:(fresh_tag ())
          ?derived_name:name ~source:inner.name ~projection ()
      in
      { schema = o.schema; name = o.derived; steps = inner.steps @ [ Projected o ] }
  | Select (sub, pred) ->
      let inner = derive_step ?check counter schema ~view sub in
      let h = Schema.hierarchy inner.schema in
      Pred.check_exn h inner.name pred;
      let sel_name =
        match name with
        | Some n ->
            if Hierarchy.mem h n then Error.raise_ (Duplicate_type n);
            n
        | None ->
            Hierarchy.fresh_name h
              (Type_name.of_string (Type_name.to_string inner.name ^ "_sel"))
      in
      let def =
        Type_def.make
          ~origin:(Surrogate { source = inner.name; view = fresh_tag () })
          ~supers:[ (inner.name, 1) ]
          sel_name
      in
      let schema = Schema.map_hierarchy inner.schema (fun h -> Hierarchy.add h def) in
      { schema;
        name = sel_name;
        steps = inner.steps @ [ Selected { name = sel_name; source = inner.name; pred } ]
      }
  | Generalize (a, b) ->
      let ia = derive_step ?check counter schema ~view a in
      let ib = derive_step ?check counter ia.schema ~view b in
      let h = Schema.hierarchy ib.schema in
      let gen_name =
        match name with
        | Some n ->
            if Hierarchy.mem h n then Error.raise_ (Duplicate_type n);
            n
        | None ->
            Hierarchy.fresh_name h
              (Type_name.of_string (Type_name.to_string ia.name ^ "_gen"))
      in
      let o =
        Generalize.generalize_exn ?check ib.schema ~view:(fresh_tag ())
          ~name:gen_name ia.name ib.name
      in
      { schema = o.schema;
        name = o.name;
        steps = ia.steps @ ib.steps @ [ Generalized o ]
      }
  | Join (a, b) ->
      let ia = derive_step ?check counter schema ~view a in
      let ib = derive_step ?check counter ia.schema ~view b in
      let h = Schema.hierarchy ib.schema in
      let join_name =
        match name with
        | Some n ->
            if Hierarchy.mem h n then Error.raise_ (Duplicate_type n);
            n
        | None ->
            Hierarchy.fresh_name h
              (Type_name.of_string (Type_name.to_string ia.name ^ "_join"))
      in
      let o = Join.derive_exn ib.schema ~name:join_name ia.name ib.name in
      { schema = o.schema;
        name = o.name;
        steps =
          ia.steps @ ib.steps
          @ [ Joined { name = o.name; left = ia.name; right = ib.name } ]
      }

let derive_exn ?check schema ~view ?name expr =
  derive_step ?check (ref 0) schema ~view ?name expr

let derive ?check schema ~view ?name expr =
  Error.guard (fun () -> derive_exn ?check schema ~view ?name expr)

let rec has_join = function
  | Base _ -> false
  | Project (e, _) | Select (e, _) -> has_join e
  | Generalize (a, b) -> has_join a || has_join b
  | Join _ -> true

(* Instantiation of a view, with view-type identity semantics: a
   projection view's instances are the source instances themselves (the
   pipeline makes the derived type a supertype of its source, so the
   Base case's deep extent already holds them); a selection filters
   them.  Filtering distributes over a generalization's union, so every
   selection pushes down to its Base leaves, where the store evaluates
   the conjunction in one pass.  The conjunction keeps
   inner-predicate-first order, so per-row evaluation (and
   short-circuiting) matches the nested filters it replaces. *)
let instances_with ~leaf expr =
  let rec go preds = function
    | Base n -> (
        match preds with
        | [] -> leaf n None
        | p :: rest ->
            leaf n (Some (List.fold_left (fun a b -> Pred.And (a, b)) p rest)))
    | Project (e, _) -> go preds e
    | Select (e, p) -> go (p :: preds) e
    | Generalize (a, b) ->
        List.sort_uniq Tdp_store.Oid.compare (go preds a @ go preds b)
    | Join _ ->
        (* a join instance is a pair of operand instances, not an
           existing object; only Join.materialize over named operand
           types gives joins a data plane *)
        Error.raise_
          (Invariant_violation
             "join views have no identity instances; use Join.materialize")
  in
  go [] expr

let instances db =
  instances_with ~leaf:(fun n -> function
    | None -> Tdp_store.Database.extent db n
    | Some p -> Pred.scan db n p)

(* Materialization: copy each view instance into a fresh object of the
   derived view type, carrying exactly the view's attributes. *)
let materialize db ~view_type expr =
  let h = Tdp_store.Database.hierarchy db in
  let attrs = Hierarchy.all_attribute_names h view_type in
  List.map
    (fun src ->
      let init =
        List.map (fun a -> (a, Tdp_store.Database.get_attr db src a)) attrs
      in
      Tdp_store.Database.new_object db view_type ~init)
    (instances db expr)

(* Lower a view expression to the inference IR.  [is_ref] decides
   whether a base name refers to an earlier view of the same program
   (a row shared with that view's result) or to a source type (a row
   parameter).  Predicates flatten to their comparison atoms: like
   [Pred.check_exn], every atom must type-check regardless of the
   and/or/not structure around it. *)
let rec pred_atoms (p : Pred.t) =
  match p with
  | True -> []
  | Not a -> pred_atoms a
  | And (a, b) | Or (a, b) -> pred_atoms a @ pred_atoms b
  | Cmp { attr; op; value } ->
      let ordered =
        match op with Eq | Ne -> false | Lt | Le | Gt | Ge -> true
      in
      [ Tdp_infer.Pipeline.atom ~ordered attr value ]

let rec to_pipeline ~is_ref (e : expr) : Tdp_infer.Pipeline.node =
  match e with
  | Base n ->
      if is_ref n then Ref (Type_name.to_string n) else Source n
  | Project (e, attrs) -> Project (to_pipeline ~is_ref e, attrs)
  | Select (e, p) -> Select (to_pipeline ~is_ref e, pred_atoms p)
  | Generalize (a, b) -> Generalize (to_pipeline ~is_ref a, to_pipeline ~is_ref b)
  | Join (a, b) -> Join (to_pipeline ~is_ref a, to_pipeline ~is_ref b)
