(* Property-based tests: the paper's preservation claims must hold on
   arbitrary schemas, not just the figures.  Schemas are drawn from the
   Tdp_synth generator; each QCheck case is a generator seed, so shrink
   results are reproducible. *)

open Tdp_core

let config_of_seed seed =
  let open Tdp_synth.Synth in
  { default with
    n_types = 4 + (seed mod 12);
    max_supers = 1 + (seed mod 3);
    attrs_per_type = 1 + (seed mod 3);
    n_gfs = 2 + (seed mod 4);
    methods_per_gf = 1 + (seed mod 3);
    max_params = 1 + (seed mod 2);
    calls_per_body = 1 + (seed mod 3);
    writer_fraction = (if seed mod 2 = 0 then 0.3 else 0.0);
    recursion = seed mod 3 <> 0;
    seed
  }

let schema_of_seed seed = Tdp_synth.Synth.generate (config_of_seed seed)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000)

let prop_generated_schemas_valid =
  QCheck.Test.make ~name:"generated schemas validate and type-check" ~count:150
    seed_arb (fun seed ->
      let schema = schema_of_seed seed in
      Schema.validate_exn schema;
      Typing.check_all_methods schema;
      true)

let project seed =
  let schema = schema_of_seed seed in
  let source, projection = Tdp_synth.Synth.gen_projection ~seed schema in
  Projection.project_exn schema ~view:(Fmt.str "view%d" seed) ~source ~projection ()

let prop_projection_invariants =
  (* ~check:true makes project_exn run every Invariants check: state,
     behavior, subtyping preservation, derived state/behavior, plus
     re-type-checking all method bodies. *)
  QCheck.Test.make ~name:"projection preserves all invariants" ~count:150 seed_arb
    (fun seed ->
      ignore (project seed);
      true)

let prop_projection_deterministic =
  QCheck.Test.make ~name:"projection is deterministic" ~count:50 seed_arb
    (fun seed ->
      let o1 = project seed and o2 = project seed in
      Method_def.Key.Set.equal o1.analysis.applicable o2.analysis.applicable
      && Method_def.Key.Set.equal o1.analysis.not_applicable
           o2.analysis.not_applicable
      && Hierarchy.equal (Schema.hierarchy o1.schema) (Schema.hierarchy o2.schema))

let prop_chained_projections =
  QCheck.Test.make ~name:"views over views preserve invariants" ~count:75 seed_arb
    (fun seed ->
      let o1 = project seed in
      (* project the derived view type again *)
      let h = Schema.hierarchy o1.schema in
      let attrs = Hierarchy.all_attribute_names h o1.derived in
      QCheck.assume (attrs <> []);
      let projection2 =
        List.filteri (fun i _ -> i mod 2 = 0) attrs
      in
      let projection2 = if projection2 = [] then [ List.hd attrs ] else projection2 in
      let o2 =
        Projection.project_exn o1.schema
          ~view:(Fmt.str "vv%d" seed)
          ~source:o1.derived ~projection:projection2 ()
      in
      ignore o2;
      true)

let prop_derived_state_is_projection =
  QCheck.Test.make ~name:"derived type state = projection list" ~count:100 seed_arb
    (fun seed ->
      let o = project seed in
      let h = Schema.hierarchy o.schema in
      Attr_name.Set.equal
        (Attr_name.Set.of_list (Hierarchy.all_attribute_names h o.derived))
        (Attr_name.Set.of_list o.projection))

let prop_applicable_subset_of_candidates =
  QCheck.Test.make ~name:"applicable ∪ not-applicable covers candidates" ~count:100
    seed_arb (fun seed ->
      let o = project seed in
      let r = o.analysis in
      Method_def.Key.Set.subset r.candidates
        (Method_def.Key.Set.union r.applicable r.not_applicable)
      && Method_def.Key.Set.is_empty
           (Method_def.Key.Set.inter r.applicable r.not_applicable))

let prop_dispatch_preserved =
  QCheck.Test.make ~name:"dispatch outcomes preserved on original types" ~count:60
    seed_arb (fun seed ->
      let o = project seed in
      let originals =
        Hierarchy.type_names (Schema.hierarchy o.before)
      in
      match
        Tdp_dispatch.Static_check.dispatch_preserved ~before:o.before
          ~after:o.schema ~arg_space:originals ()
      with
      | [] -> true
      | (gf, args, _, _) :: _ ->
          QCheck.Test.fail_reportf "dispatch changed for %s(%s)" gf
            (String.concat ", " (List.map Type_name.to_string args))
      | exception Error.E (Linearization_failure _) ->
          (* random multiple inheritance can defeat the CPL; the paper's
             model assumes a usable precedence order, so skip *)
          QCheck.assume_fail ())

let prop_surrogates_transparent_to_extents =
  QCheck.Test.make ~name:"source extent = derived extent (instantiation)" ~count:40
    seed_arb (fun seed ->
      let o = project seed in
      let db = Tdp_store.Database.create o.before in
      let _oids = Tdp_synth.Synth.populate ~seed db 30 in
      let before_ext = Tdp_store.Database.extent db o.source in
      Tdp_store.Database.set_schema db o.schema;
      let after_src = Tdp_store.Database.extent db o.source in
      let after_view = Tdp_store.Database.extent db o.derived in
      (* every source instance is a view instance, and the source extent
         is unchanged by the refactoring *)
      before_ext = after_src
      && List.for_all (fun oid -> List.mem oid after_view) after_src)

let prop_unfactor_roundtrip =
  (* Dropping the view restores cumulative state, subtyping, local
     attribute sets, and method signatures of every original type. *)
  QCheck.Test.make ~name:"drop_view inverts projection" ~count:75 seed_arb
    (fun seed ->
      let o = project seed in
      let restored =
        Tdp_algebra.Unfactor.drop_view_exn o.schema ~before:o.before
          ~view:(Fmt.str "view%d" seed)
      in
      let hb = Schema.hierarchy o.before and hr = Schema.hierarchy restored in
      List.for_all
        (fun def ->
          let n = Type_def.name def in
          let sorted l = List.sort Attr_name.compare l in
          Hierarchy.mem hr n
          && sorted (List.map Attribute.name (Type_def.attrs def))
             = sorted
                 (List.map Attribute.name (Type_def.attrs (Hierarchy.find hr n)))
          && Type_def.supers def = Type_def.supers (Hierarchy.find hr n))
        (Hierarchy.types hb)
      && List.for_all
           (fun m ->
             match Schema.find_method_opt restored (Method_def.key m) with
             | Some m' ->
                 Signature.equal (Method_def.signature m) (Method_def.signature m')
             | None -> false)
           (Schema.all_methods o.before)
      && Hierarchy.cardinal hb = Hierarchy.cardinal hr)

let prop_cpl_laws =
  (* Linearization laws on random hierarchies: the CPL of a type starts
     with the type, contains exactly its supertype closure, places
     every type before its proper supertypes, and preserves each
     member's local precedence order. *)
  QCheck.Test.make ~name:"class precedence list laws" ~count:100 seed_arb
    (fun seed ->
      let schema = schema_of_seed seed in
      let h = Schema.hierarchy schema in
      List.for_all
        (fun n ->
          match Linearize.cpl_result h n with
          | Error (Linearization_failure _) -> true (* inconsistent orders: allowed *)
          | Error _ -> false
          | Ok cpl ->
              let index x =
                let rec go i = function
                  | [] -> None
                  | y :: rest -> if Type_name.equal x y then Some i else go (i + 1) rest
                in
                go 0 cpl
              in
              (match cpl with x :: _ -> Type_name.equal x n | [] -> false)
              && Type_name.Set.equal
                   (Type_name.Set.of_list cpl)
                   (Hierarchy.ancestors_or_self h n)
              && List.for_all
                   (fun m ->
                     (* m precedes its proper supertypes *)
                     Type_name.Set.for_all
                       (fun s ->
                         match (index m, index s) with
                         | Some i, Some j -> i < j
                         | _ -> false)
                       (Hierarchy.ancestors h m)
                     (* and m's local precedence order is preserved *)
                     && (let rec ordered = function
                           | a :: b :: rest -> (
                               match (index a, index b) with
                               | Some i, Some j -> i < j && ordered (b :: rest)
                               | _ -> false)
                           | _ -> true
                         in
                         ordered (Hierarchy.direct_super_names h m)))
                   cpl)
        (Hierarchy.type_names h))

let prop_chain_specialization_agrees =
  (* The Section 7 single-inheritance specialization must produce a
     hierarchy identical (including surrogate names) to the general
     FactorState on every single-inheritance schema. *)
  QCheck.Test.make ~name:"chain specialization ≡ general FactorState" ~count:80
    seed_arb (fun seed ->
      let cfg = { (config_of_seed seed) with max_supers = 1 } in
      let schema = Tdp_synth.Synth.generate cfg in
      QCheck.assume
        (Specialize.is_single_inheritance (Schema.hierarchy schema));
      let source, projection = Tdp_synth.Synth.gen_projection ~seed schema in
      let general =
        Factor_state.run_exn (Schema.hierarchy schema) ~view:"v" ~source
          ~projection ()
      in
      let chain =
        Specialize.factor_chain_exn (Schema.hierarchy schema) ~view:"v" ~source
          ~projection ()
      in
      Hierarchy.equal general.hierarchy chain.hierarchy
      && Type_name.equal general.derived chain.derived
      && Type_name.Map.equal Type_name.equal general.surrogates chain.surrogates)

let prop_generalize_preserves_operands =
  (* Generalization (union view) must not change either operand's state
     and must give the union type exactly the shared attributes; its
     extent must contain both operands' instances. *)
  QCheck.Test.make ~name:"generalization preserves operands" ~count:60 seed_arb
    (fun seed ->
      let schema = schema_of_seed seed in
      let h = Schema.hierarchy schema in
      (* find two unrelated types with shared attributes *)
      let names = Hierarchy.type_names h in
      let pair =
        List.find_map
          (fun t1 ->
            List.find_map
              (fun t2 ->
                if
                  Type_name.compare t1 t2 < 0
                  && (not (Hierarchy.subtype h t1 t2))
                  && (not (Hierarchy.subtype h t2 t1))
                  && Tdp_algebra.Generalize.common_attributes h t1 t2 <> []
                then Some (t1, t2)
                else None)
              names)
          names
      in
      match pair with
      | None -> QCheck.assume_fail ()
      | Some (t1, t2) ->
          (* generalize_exn re-checks state preservation internally *)
          let o =
            Tdp_algebra.Generalize.generalize_exn schema ~view:"u"
              ~name:(Type_name.of_string "UnionT") t1 t2
          in
          let db = Tdp_store.Database.create o.schema in
          let _ = Tdp_synth.Synth.populate ~seed db 20 in
          let union_ext = Tdp_store.Database.extent db o.name in
          List.for_all
            (fun t ->
              List.for_all
                (fun oid -> List.mem oid union_ext)
                (Tdp_store.Database.extent db t))
            [ t1; t2 ])

let prop_matview_converges =
  (* After arbitrary base updates, one refresh makes the copies carry
     exactly the same attribute values as a from-scratch
     materialization. *)
  QCheck.Test.make ~name:"matview refresh converges to rematerialization" ~count:40
    seed_arb (fun seed ->
      let o = project seed in
      let db = Tdp_store.Database.create o.schema in
      let oids = Tdp_synth.Synth.populate ~seed db 15 in
      let expr = Tdp_algebra.View.Base o.source in
      let mv = Tdp_algebra.Matview.create db ~view_type:o.derived expr in
      (* random mutations over int slots *)
      let st = Random.State.make [| seed |] in
      let h = Schema.hierarchy o.schema in
      List.iter
        (fun oid ->
          if Random.State.bool st then
            let ty_ = Tdp_store.Database.type_of db oid in
            match Hierarchy.all_attributes h ty_ with
            | [] -> ()
            | attrs ->
                let a = List.nth attrs (Random.State.int st (List.length attrs)) in
                Tdp_store.Database.set_attr db oid (Attribute.name a)
                  (Tdp_store.Value.Int (Random.State.int st 50)))
        oids;
      let _ = Tdp_algebra.Matview.refresh db mv in
      let view_attrs = Hierarchy.all_attribute_names h o.derived in
      let slots oid =
        List.map (fun a -> Tdp_store.Database.get_attr db oid a) view_attrs
      in
      let copies = List.map slots (Tdp_algebra.Matview.copies mv) in
      let fresh =
        List.map slots (Tdp_algebra.View.materialize db ~view_type:o.derived expr)
      in
      List.sort compare copies = List.sort compare fresh)

let () =
  let to_alco = QCheck_alcotest.to_alcotest in
  Alcotest.run "invariants-prop"
    [ ( "properties",
        List.map to_alco
          [ prop_generated_schemas_valid;
            prop_projection_invariants;
            prop_projection_deterministic;
            prop_chained_projections;
            prop_derived_state_is_projection;
            prop_applicable_subset_of_candidates;
            prop_dispatch_preserved;
            prop_surrogates_transparent_to_extents;
            prop_unfactor_roundtrip;
            prop_cpl_laws;
            prop_chain_specialization_agrees;
            prop_generalize_preserves_operands;
            prop_matview_converges
          ] )
    ]
