(* Observability: a projection is the paper's headline operation, so its
   latency and the number of surrogate types it inserts (the cost the
   Augment fixpoint adds on top of FactorState) are first-class metrics.
   Recording is gated inside Tdp_obs. *)
module Obs = Tdp_obs
let m_project_ns = Obs.Metrics.histogram "projection.project_ns"
let m_surrogates = Obs.Metrics.counter "projection.surrogates"

type outcome = {
  before : Schema.t;
  schema : Schema.t;
  view : string;
  derived : Type_name.t;
  source : Type_name.t;
  projection : Attr_name.t list;
  analysis : Applicability.result;
  surrogates : Type_name.t Type_name.Map.t;
  z : Type_name.Set.t;
  rewrites : Factor_methods.rewrite list;
}

(* Formal argument types of applicable methods that are supertypes of
   the source but were not reached by FactorState (because no projected
   attribute is available there).  Without a surrogate at such a type
   the relocated method would not be inherited by the derived type, so
   they are folded into Z and handled by Augment.  This closes a gap in
   the paper's Section 6.1, which implicitly assumes every relevant
   formal type is factored. *)
let missing_formal_types schema index ~source ~surrogates ~applicable =
  Method_def.Key.Set.fold
    (fun key acc ->
      match Schema.find_method_opt schema key with
      | None -> acc
      | Some m ->
          List.fold_left
            (fun acc ty ->
              if
                Schema_index.subtype index source ty
                && not (Type_name.Map.mem ty surrogates)
              then Type_name.Set.add ty acc
              else acc)
            acc
            (Signature.param_types (Method_def.signature m)))
    applicable Type_name.Set.empty

let project_exn_uninstrumented ?(check = true) schema ~view ?derived_name
    ~source ~projection () =
  Typing.check_schema_exn schema;
  let analysis = Applicability.analyze_exn schema ~source ~projection in
  let fs =
    Factor_state.run_exn (Schema.hierarchy schema) ~view ?derived_name ~source
      ~projection ()
  in
  let index = Schema_index.of_hierarchy (Schema.hierarchy schema) in
  (* Augment phase, run to a fixpoint.  Two refinements over the
     paper's single pass (see DESIGN.md):

     - the set handed to the walk is Y ∪ missing-formal-types WITHOUT
       subtracting the already-factored set X: when an assigned type
       was factored through a different branch, its surrogate exists
       but the mirror path from the rebound formal's surrogate may not
       — the walk creates exactly those missing edges;
     - creating surrogates for missing formal types rebinds more
       formals, whose assigned locals (Y, recomputed) may need further
       surrogates and paths, so the phase iterates until the surrogate
       map and the set stabilize.  Each iteration only adds surrogates,
       so it terminates.

     The reported Z keeps the paper's Y − X definition. *)
  let rec augment_fixpoint hierarchy surrogates prev_z =
    let schema_cur = Schema.with_hierarchy schema hierarchy in
    let z_aug =
      Type_name.Set.union
        (Augment.compute_y schema_cur ~applicable:analysis.applicable
           ~factored:surrogates)
        (missing_formal_types schema index ~source ~surrogates
           ~applicable:analysis.applicable)
    in
    let aug = Augment.run_exn hierarchy ~view ~source ~surrogates ~z:z_aug in
    if
      Type_name.Map.cardinal aug.surrogates > Type_name.Map.cardinal surrogates
      || not (Type_name.Set.equal z_aug prev_z)
    then augment_fixpoint aug.hierarchy aug.surrogates z_aug
    else (aug, z_aug)
  in
  let aug, z_aug =
    augment_fixpoint fs.hierarchy fs.surrogates Type_name.Set.empty
  in
  let z =
    Type_name.Set.filter (fun n -> not (Type_name.Map.mem n fs.surrogates)) z_aug
  in
  let schema_aug = Schema.with_hierarchy schema aug.hierarchy in
  let after, rewrites =
    Factor_methods.run_exn schema_aug ~surrogates:aug.surrogates
      ~applicable:analysis.applicable
  in
  let outcome =
    { before = schema;
      schema = after;
      view;
      derived = fs.derived;
      source;
      projection;
      analysis;
      surrogates = aug.surrogates;
      z;
      rewrites
    }
  in
  if check then
    Invariants.check_exn ~before:schema ~after ~derived:fs.derived ~source
      ~projection ~analysis;
  outcome

let project_exn ?check schema ~view ?derived_name ~source ~projection () =
  Obs.Metrics.time m_project_ns (fun () ->
      let attrs =
        if Obs.Trace.enabled () then
          [ ("view", view); ("source", Type_name.to_string source) ]
        else []
      in
      Obs.Trace.with_span ~attrs "projection.project" (fun () ->
          let o =
            project_exn_uninstrumented ?check schema ~view ?derived_name
              ~source ~projection ()
          in
          Obs.Metrics.add m_surrogates (Type_name.Map.cardinal o.surrogates);
          o))

let project ?check schema ~view ?derived_name ~source ~projection () =
  Error.guard (fun () ->
      project_exn ?check schema ~view ?derived_name ~source ~projection ())

let pp_summary ppf o =
  let surrogate_count = Type_name.Map.cardinal o.surrogates in
  Fmt.pf ppf
    "@[<v>view %s = Π_{%a} %a@ derived type: %a@ surrogates: %d@ applicable \
     methods: %d / %d candidates@ augment set Z: {%a}@ rewritten signatures: \
     %d@]"
    o.view
    Fmt.(list ~sep:comma Attr_name.pp)
    o.projection Type_name.pp o.source Type_name.pp o.derived surrogate_count
    (Method_def.Key.Set.cardinal o.analysis.applicable)
    (Method_def.Key.Set.cardinal o.analysis.candidates)
    Fmt.(list ~sep:comma Type_name.pp)
    (Type_name.Set.elements o.z)
    (List.length o.rewrites)
