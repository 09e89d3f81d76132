(* Schema_index correctness: the compiled snapshot (interned ids,
   bitset transitive closure, memoized linearizations) must agree with
   the uncompiled reference implementations in Hierarchy and Linearize
   on arbitrary well-formed hierarchies, and the generation-stamp
   machinery must actually catch stale consumers. *)

open Tdp_core
open Helpers
module Dispatch = Tdp_dispatch.Dispatch
module Database = Tdp_store.Database
module Value = Tdp_store.Value
module Interp = Tdp_store.Interp

let config_of_seed seed =
  let open Tdp_synth.Synth in
  { default with
    n_types = 3 + (seed mod 20);
    max_supers = 1 + (seed mod 4);
    attrs_per_type = 1 + (seed mod 2);
    n_gfs = 1 + (seed mod 3);
    methods_per_gf = 1 + (seed mod 2);
    max_params = 1 + (seed mod 2);
    seed
  }

let hierarchy_of_seed seed =
  Schema.hierarchy (Tdp_synth.Synth.generate (config_of_seed seed))

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000)

(* Reference subtype: plain DAG reachability along supertype edges,
   computed fresh per query with no sets, closures, or memoization —
   deliberately independent from both Hierarchy.subtype's ancestor-set
   construction and the index's bitset. *)
let reachable h a b =
  let rec go visited n =
    Type_name.equal n b
    || (not (List.exists (Type_name.equal n) visited))
       && List.exists
            (go (n :: visited))
            (match Hierarchy.find_opt h n with
            | Some d -> Type_def.super_names d
            | None -> [])
  in
  go [] a

let prop_subtype_eq_reachability =
  QCheck.Test.make ~name:"subtype ≡ DAG reachability" ~count:200 seed_arb
    (fun seed ->
      let h = hierarchy_of_seed seed in
      let idx = Schema_index.of_hierarchy h in
      let names = Hierarchy.type_names h in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Schema_index.subtype idx a b = reachable h a b
              && Schema_index.subtype idx a b = Hierarchy.subtype h a b)
            names)
        names)

(* Closure rows wider than one 64-bit word: the properties above stay
   under 64 types, where every column sits in a row's first word. *)
let test_subtype_past_one_word () =
  let h =
    Schema.hierarchy
      (Tdp_synth.Synth.generate { (config_of_seed 7) with n_types = 150 })
  in
  let idx = Schema_index.of_hierarchy h in
  let names = Hierarchy.type_names h in
  Alcotest.(check bool) "more than 128 types" true (List.length names > 128);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Schema_index.subtype idx a b <> reachable h a b then
            Alcotest.failf "%a ⪯ %a: index says %b" Type_name.pp a Type_name.pp b
              (Schema_index.subtype idx a b))
        names)
    names

let prop_ancestors_eq =
  QCheck.Test.make ~name:"ancestor set/list ≡ Hierarchy.ancestors_or_self"
    ~count:200 seed_arb (fun seed ->
      let h = hierarchy_of_seed seed in
      let idx = Schema_index.of_hierarchy h in
      List.for_all
        (fun n ->
          let ref_ = Hierarchy.ancestors_or_self h n in
          Type_name.Set.equal ref_ (Schema_index.ancestor_set idx n)
          && List.equal Type_name.equal
               (Type_name.Set.elements ref_)
               (Schema_index.ancestors_or_self idx n))
        (Hierarchy.type_names h))

let prop_descendants_eq =
  QCheck.Test.make ~name:"descendants ≡ Hierarchy.descendants" ~count:200
    seed_arb (fun seed ->
      let h = hierarchy_of_seed seed in
      let idx = Schema_index.of_hierarchy h in
      List.for_all
        (fun n ->
          List.equal Type_name.equal
            (Type_name.Set.elements (Hierarchy.descendants h n))
            (Schema_index.descendants idx n)
          && List.equal Type_name.equal
               (Type_name.Set.elements
                  (Type_name.Set.add n (Hierarchy.descendants h n)))
               (Schema_index.descendants_or_self idx n))
        (Hierarchy.type_names h))

let prop_direct_subs_eq =
  QCheck.Test.make ~name:"direct_subs ≡ Hierarchy.direct_subs" ~count:200
    seed_arb (fun seed ->
      let h = hierarchy_of_seed seed in
      let idx = Schema_index.of_hierarchy h in
      List.for_all
        (fun n ->
          List.equal Type_name.equal
            (Hierarchy.direct_subs h n)
            (Schema_index.direct_subs idx n))
        (Hierarchy.type_names h))

let prop_cpl_eq_fresh_linearize =
  QCheck.Test.make ~name:"memoized cpl ≡ fresh Linearize" ~count:200 seed_arb
    (fun seed ->
      let h = hierarchy_of_seed seed in
      let idx = Schema_index.of_hierarchy h in
      let agree n =
        (* query twice: the first call populates the memo slot, the
           second must serve from it — both equal a fresh Linearize *)
        let cold = Schema_index.cpl_result idx n in
        let warm = Schema_index.cpl_result idx n in
        let fresh = Linearize.cpl_result h n in
        let eq a b =
          match (a, b) with
          | Ok la, Ok lb -> List.equal Type_name.equal la lb
          | Error ea, Error eb -> Fmt.str "%a" Error.pp ea = Fmt.str "%a" Error.pp eb
          | _ -> false
        in
        eq cold fresh && eq warm fresh
      in
      List.for_all agree (Hierarchy.type_names h))

(* ---- unknown-type edge cases (mirror Hierarchy.subtype) ------------- *)

let diamond () =
  List.fold_left Hierarchy.add Hierarchy.empty
    [ Type_def.make (ty "A");
      Type_def.make ~supers:[ (ty "A", 1) ] (ty "B");
      Type_def.make ~supers:[ (ty "A", 1) ] (ty "C");
      Type_def.make ~supers:[ (ty "B", 1); (ty "C", 2) ] (ty "D")
    ]

let test_unknown_semantics () =
  let h = diamond () in
  let idx = Schema_index.of_hierarchy h in
  Alcotest.(check bool)
    "unknown ⪯ itself is reflexively true"
    (Hierarchy.subtype h (ty "Z") (ty "Z"))
    (Schema_index.subtype idx (ty "Z") (ty "Z"));
  Alcotest.(check bool)
    "known ⪯ unknown is false"
    (Hierarchy.subtype h (ty "D") (ty "Z"))
    (Schema_index.subtype idx (ty "D") (ty "Z"));
  Alcotest.check_raises "unknown lhs raises"
    (Error.E (Unknown_type (ty "Z")))
    (fun () -> ignore (Schema_index.subtype idx (ty "Z") (ty "A")))

let test_interning () =
  let h = diamond () in
  let idx = Schema_index.of_hierarchy h in
  Alcotest.(check int) "cardinal" 4 (Schema_index.cardinal idx);
  List.iteri
    (fun i n ->
      Alcotest.(check (option int))
        "ids are dense, in name order" (Some i)
        (Schema_index.id idx n);
      Alcotest.(check bool)
        "name inverts id" true
        (Type_name.equal n (Schema_index.name idx i)))
    (Hierarchy.type_names h);
  Alcotest.(check (option int)) "unknown has no id" None
    (Schema_index.id idx (ty "Z"))

(* ---- generation stamps ---------------------------------------------- *)

let test_generation_monotone () =
  let h0 = diamond () in
  let h1 = Hierarchy.add h0 (Type_def.make (ty "E")) in
  Alcotest.(check bool)
    "functional update strictly increases the stamp" true
    (Hierarchy.generation h1 > Hierarchy.generation h0);
  let s0 = Schema.with_hierarchy Schema.empty h0 in
  let s1 =
    Schema.add_method s0
      (Method_def.reader ~gf:"a" ~id:"a_A" ~param:"self" ~param_type:(ty "A")
         ~attr:(at "x") ~result:(Value_type.Prim Value_type.Int))
  in
  Alcotest.(check bool)
    "method update bumps the schema stamp" true
    (Schema.generation s1 > Schema.generation s0);
  Alcotest.(check int)
    "…but leaves the hierarchy stamp alone"
    (Hierarchy.generation (Schema.hierarchy s0))
    (Hierarchy.generation (Schema.hierarchy s1))

let test_of_hierarchy_interned () =
  let h = diamond () in
  Alcotest.(check bool)
    "same hierarchy value compiles once" true
    (Schema_index.of_hierarchy h == Schema_index.of_hierarchy h);
  let h' = Hierarchy.add h (Type_def.make (ty "E")) in
  Alcotest.(check bool)
    "updated hierarchy gets its own index" true
    (Schema_index.of_hierarchy h != Schema_index.of_hierarchy h');
  Alcotest.(check bool)
    "same_hierarchy discriminates by stamp" true
    (Schema_index.same_hierarchy (Schema_index.of_hierarchy h) h
    && not (Schema_index.same_hierarchy (Schema_index.of_hierarchy h) h'))

let diamond_with_extra () = Hierarchy.add (diamond ()) (Type_def.make (ty "X"))

let test_intern_table_bounded () =
  let h = diamond () in
  let idx = Schema_index.of_hierarchy h in
  (* churn through far more generations than the table holds, the way a
     long-running evolution loop does *)
  let rec churn h n =
    if n > 0 then begin
      let h' = Hierarchy.add h (Type_def.make (ty (Fmt.str "G%d" n))) in
      ignore (Schema_index.of_hierarchy h');
      churn h' (n - 1)
    end
  in
  churn h (3 * Schema_index.intern_capacity);
  Alcotest.(check bool)
    "occupancy stays within the capacity bound" true
    (Schema_index.intern_occupancy () <= Schema_index.intern_capacity);
  (* LRU, not FIFO: the churn evicted the old diamond index *)
  Alcotest.(check bool)
    "evicted hierarchy recompiles" true
    (Schema_index.of_hierarchy h != idx);
  let idx' = Schema_index.of_hierarchy h in
  ignore (Schema_index.of_hierarchy (diamond_with_extra ()));
  Alcotest.(check bool)
    "a hit refreshes recency and returns the same index" true
    (Schema_index.of_hierarchy h == idx')

let reader_schema () =
  let h = diamond () in
  Schema.add_method
    (Schema.with_hierarchy Schema.empty h)
    (Method_def.reader ~gf:"get_x" ~id:"get_x_A" ~param:"self" ~param_type:(ty "A")
         ~attr:(at "x") ~result:(Value_type.Prim Value_type.Int))

let test_dispatch_ensure_fresh () =
  let s0 = reader_schema () in
  let d = Dispatch.create s0 in
  Dispatch.ensure_fresh d s0;
  Alcotest.(check int)
    "dispatcher stamped with its schema's generation"
    (Schema.generation s0) (Dispatch.generation d);
  let s1 =
    Schema.add_method s0
      (Method_def.reader ~gf:"get_x" ~id:"get_x_B" ~param:"self" ~param_type:(ty "B")
         ~attr:(at "x") ~result:(Value_type.Prim Value_type.Int))
  in
  match Dispatch.ensure_fresh d s1 with
  | () -> Alcotest.fail "stale dispatcher not detected"
  | exception Error.E (Invariant_violation _) -> ()

(* The stale-cache hazard the stamps exist to close: a live interpreter
   whose database schema is swapped must not keep dispatching from the
   old schema's memo tables. *)
let test_interp_rebuilds_after_set_schema () =
  let h = diamond () in
  let h = Hierarchy.update h (ty "A") (fun d -> Type_def.add_attr d (Attribute.make (at "x") (Value_type.Prim Value_type.Int))) in
  let s0 =
    Schema.add_method
      (Schema.with_hierarchy Schema.empty h)
      (Method_def.reader ~gf:"get_x" ~id:"get_x_A" ~param:"self" ~param_type:(ty "A")
         ~attr:(at "x") ~result:(Value_type.Prim Value_type.Int))
  in
  let db = Database.create s0 in
  let oid = Database.new_object db (ty "D") ~init:[ (at "x", Value.Int 7) ] in
  let interp = Interp.create db in
  Alcotest.(check bool)
    "call dispatches before the swap" true
    (Value.equal (Interp.call_on interp "get_x" [ oid ]) (Value.Int 7));
  (* swap in a schema where get_x has no methods: a stale dispatcher
     would still find get_x_A in its resolution table *)
  let s1 = Schema.remove_method s0 (key "get_x" "get_x_A") in
  Database.set_schema db s1;
  match Interp.call_on interp "get_x" [ oid ] with
  | _ -> Alcotest.fail "interpreter answered from stale dispatch tables"
  | exception Interp.Runtime_error _ -> ()

let () =
  let to_alco = QCheck_alcotest.to_alcotest in
  Alcotest.run "schema-index"
    [ ( "properties",
        List.map to_alco
          [ prop_subtype_eq_reachability;
            prop_ancestors_eq;
            prop_descendants_eq;
            prop_direct_subs_eq;
            prop_cpl_eq_fresh_linearize
          ] );
      ( "unit",
        [ Alcotest.test_case "unknown-type semantics" `Quick test_unknown_semantics;
          Alcotest.test_case "subtype past one closure word" `Quick
            test_subtype_past_one_word;
          Alcotest.test_case "interning" `Quick test_interning;
          Alcotest.test_case "generation monotone" `Quick test_generation_monotone;
          Alcotest.test_case "of_hierarchy interned" `Quick test_of_hierarchy_interned;
          Alcotest.test_case "intern table bounded (LRU)" `Quick
            test_intern_table_bounded;
          Alcotest.test_case "ensure_fresh detects staleness" `Quick
            test_dispatch_ensure_fresh;
          Alcotest.test_case "interp rebuilds after set_schema" `Quick
            test_interp_rebuilds_after_set_schema
        ] )
    ]
