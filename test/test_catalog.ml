open Tdp_core
module Catalog = Tdp_algebra.Catalog
module View = Tdp_algebra.View
module Pred = Tdp_algebra.Pred
module Interp = Tdp_store.Interp
module Database = Tdp_store.Database
module Value = Tdp_store.Value
module Evolution = Tdp_algebra.Evolution
module Synth = Tdp_synth.Synth
open Helpers

let emp_view =
  View.Project
    (View.Base (ty "Employee"), List.map at [ "ssn"; "date_of_birth"; "pay_rate" ])

let seniors_view =
  View.Select (emp_view, Pred.cmp (at "date_of_birth") Pred.Le (Body.Int 1975))

let test_define_and_drop_single () =
  let c = Catalog.create Tdp_paper.Fig1.schema in
  let c, entry = Catalog.define_exn c ~name:"EmpView" emp_view in
  Alcotest.(check string) "view type named after view" "EmpView"
    (Type_name.to_string entry.view_type);
  Alcotest.(check int) "one entry" 1 (List.length (Catalog.entries c));
  let c = Catalog.drop_exn c ~name:"EmpView" in
  Alcotest.(check int) "no entries" 0 (List.length (Catalog.entries c));
  (* dropping restored the original two types *)
  Alcotest.(check int) "two types again" 2
    (Hierarchy.cardinal (Schema.hierarchy (Catalog.schema c)))

let test_nested_expression_single_entry () =
  (* A select-over-project is one entry with two steps; dropping it
     unwinds both. *)
  let c = Catalog.create Tdp_paper.Fig1.schema in
  let c, entry = Catalog.define_exn c ~name:"Seniors" seniors_view in
  Alcotest.(check int) "two steps" 2 (List.length entry.steps);
  let h = Schema.hierarchy (Catalog.schema c) in
  Alcotest.(check bool) "selection type present" true (Hierarchy.mem h (ty "Seniors"));
  let c = Catalog.drop_exn c ~name:"Seniors" in
  Alcotest.(check int) "two types again" 2
    (Hierarchy.cardinal (Schema.hierarchy (Catalog.schema c)))

let test_drop_order_enforced () =
  let c = Catalog.create Tdp_paper.Fig1.schema in
  let c, _ = Catalog.define_exn c ~name:"EmpView" emp_view in
  let c, _ =
    Catalog.define_exn c ~name:"Tiny"
      (View.Project (View.Base (ty "EmpView"), [ at "ssn" ]))
  in
  (match Catalog.drop c ~name:"EmpView" with
  | Error (Invariant_violation _) -> ()
  | Error e -> Alcotest.failf "unexpected error %a" Error.pp e
  | Ok _ -> Alcotest.fail "dropping a depended-upon view must fail");
  (* reverse order works *)
  let c = Catalog.drop_exn c ~name:"Tiny" in
  let c = Catalog.drop_exn c ~name:"EmpView" in
  Alcotest.(check int) "everything unwound" 2
    (Hierarchy.cardinal (Schema.hierarchy (Catalog.schema c)))

let test_duplicate_name () =
  let c = Catalog.create Tdp_paper.Fig1.schema in
  let c, _ = Catalog.define_exn c ~name:"EmpView" emp_view in
  match Catalog.define c ~name:"EmpView" emp_view with
  | Error (Invariant_violation _) -> ()
  | _ -> Alcotest.fail "expected duplicate-view error"

let test_drop_generalization () =
  (* generalize two projections, then unwind. *)
  let src =
    let open Tdp_paper.Build in
    let s = Schema.empty in
    let s = add_type s ~attrs:[ ("pid", Value_type.int) ] ~supers:[] "P" in
    let s = add_type s ~attrs:[ ("g", Value_type.int) ] ~supers:[ ("P", 1) ] "S" in
    let s = add_type s ~attrs:[ ("w", Value_type.int) ] ~supers:[ ("P", 1) ] "I" in
    add_reader s ~gf:"get_pid" ~on:"P" ~attr:"pid" ~result:Value_type.int
  in
  let before_types = Hierarchy.cardinal (Schema.hierarchy src) in
  let c = Catalog.create src in
  let c, entry =
    Catalog.define_exn c ~name:"U"
      (View.Generalize (View.Base (ty "S"), View.Base (ty "I")))
  in
  let h = Schema.hierarchy (Catalog.schema c) in
  Alcotest.(check bool) "U present" true (Hierarchy.mem h (ty "U"));
  Alcotest.(check bool) "S ⪯ U" true (Hierarchy.subtype h (ty "S") (ty "U"));
  ignore entry;
  let c = Catalog.drop_exn c ~name:"U" in
  let h = Schema.hierarchy (Catalog.schema c) in
  Alcotest.(check int) "type count restored" before_types (Hierarchy.cardinal h);
  Alcotest.(check bool) "S supers restored" true
    (Type_def.supers (Hierarchy.find h (ty "S")) = [ (ty "P", 1) ]);
  Alcotest.(check bool) "I supers restored" true
    (Type_def.supers (Hierarchy.find h (ty "I")) = [ (ty "P", 1) ]);
  Alcotest.(check (list string)) "get_pid restored" [ "P" ]
    (method_param_types (Catalog.schema c) "get_pid" "get_pid")

let test_drop_join () =
  (* join two unrelated types, then unwind. *)
  let src =
    let open Tdp_paper.Build in
    let s = Schema.empty in
    let s = add_type s ~attrs:[ ("g", Value_type.int) ] ~supers:[] "S" in
    add_type s ~attrs:[ ("w", Value_type.int) ] ~supers:[] "I"
  in
  let before_types = Hierarchy.cardinal (Schema.hierarchy src) in
  let c = Catalog.create src in
  (* typecheck agrees before any derivation happens *)
  let joined = View.Join (View.Base (ty "S"), View.Base (ty "I")) in
  (match Catalog.typecheck c ~name:"J" joined with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "join should typecheck: %a" Tdp_infer.Infer.pp_error e);
  let c, _entry = Catalog.define_exn c ~name:"J" joined in
  let h = Schema.hierarchy (Catalog.schema c) in
  Alcotest.(check bool) "J present" true (Hierarchy.mem h (ty "J"));
  Alcotest.(check bool) "J ⪯ S" true (Hierarchy.subtype h (ty "J") (ty "S"));
  Alcotest.(check bool) "J ⪯ I" true (Hierarchy.subtype h (ty "J") (ty "I"));
  (* a second join over the view and an operand is rejected up front:
     the operands are already related *)
  (match Catalog.typecheck c ~name:"JJ" (View.Join (View.Base (ty "J"), View.Base (ty "S"))) with
  | Error (Tdp_infer.Infer.Join_related _) -> ()
  | _ -> Alcotest.fail "join over a related pair must not typecheck");
  let c = Catalog.drop_exn c ~name:"J" in
  let h = Schema.hierarchy (Catalog.schema c) in
  Alcotest.(check int) "type count restored" before_types (Hierarchy.cardinal h);
  Alcotest.(check bool) "S restored as root" true
    (Type_def.supers (Hierarchy.find h (ty "S")) = [])

let test_optimize_protects_views () =
  let c = Catalog.create Tdp_paper.Fig3.schema in
  let c, _ =
    Catalog.define_exn c ~name:"V1"
      (View.Project (View.Base (ty "A"), List.map at [ "a2"; "e2"; "h2" ]))
  in
  let c, _ =
    Catalog.define_exn c ~name:"V2"
      (View.Project (View.Base (ty "V1"), List.map at [ "a2"; "e2" ]))
  in
  let c, _removed = Catalog.optimize_exn c in
  let h = Schema.hierarchy (Catalog.schema c) in
  Alcotest.(check bool) "V1 survives" true (Hierarchy.mem h (ty "V1"));
  Alcotest.(check bool) "V2 survives" true (Hierarchy.mem h (ty "V2"));
  (* the contract: views remain droppable after optimization *)
  let c = Catalog.drop_exn c ~name:"V2" in
  let c = Catalog.drop_exn c ~name:"V1" in
  Alcotest.(check int) "fully unwound" 8
    (Hierarchy.cardinal (Schema.hierarchy (Catalog.schema c)));
  (* the standalone optimizer, protecting only the visible view types,
     is allowed to collapse more aggressively *)
  let c2 = Catalog.create Tdp_paper.Fig3.schema in
  let c2, _ =
    Catalog.define_exn c2 ~name:"V1"
      (View.Project (View.Base (ty "A"), List.map at [ "a2"; "e2"; "h2" ]))
  in
  let _, removed =
    Tdp_algebra.Optimize.collapse_exn
      ~protect:(Type_name.Set.singleton (ty "V1"))
      (Catalog.schema c2)
  in
  Alcotest.(check bool) "aggressive collapse removes surrogates" true
    (removed <> [])

let test_catalog_with_store () =
  (* Define a view, query it, drop it, and confirm objects are
     untouched throughout. *)
  let c = Catalog.create Tdp_paper.Fig1.schema in
  let db = Database.create (Catalog.schema c) in
  let alice =
    Database.new_object db (ty "Employee")
      ~init:
        [ (at "ssn", Value.Int 1);
          (at "date_of_birth", Value.Date 1970);
          (at "pay_rate", Value.Float 10.0);
          (at "hrs_worked", Value.Float 5.0)
        ]
  in
  let c, entry = Catalog.define_exn c ~name:"Seniors" seniors_view in
  Database.set_schema db (Catalog.schema c);
  Alcotest.(check (list int)) "query finds alice"
    [ Tdp_store.Oid.to_int alice ]
    (List.map Tdp_store.Oid.to_int (View.instances db entry.expr));
  let c = Catalog.drop_exn c ~name:"Seniors" in
  Database.set_schema db (Catalog.schema c);
  let i = Interp.create ~now:2026 db in
  Alcotest.(check bool) "income still works" true
    (Value.equal (Interp.call_on i "income" [ alice ]) (Value.Float 50.0))


(* ------------------------------------------------------------------ *)
(* Drop as restore                                                     *)
(* ------------------------------------------------------------------ *)

let printed schema = Fmt.str "%a" Schema.pp schema

let test_restore_returns_before () =
  let base = Tdp_paper.Fig1.schema in
  let c = Catalog.create base in
  let c, entry = Catalog.define_exn c ~name:"EmpView" emp_view in
  Alcotest.(check bool) "entry records the pre-define schema" true
    (entry.before == base);
  Alcotest.(check bool) "entry records the post-define schema" true
    (entry.after == Catalog.schema c);
  let c = Catalog.drop_exn c ~name:"EmpView" in
  Alcotest.(check bool) "drop returns the pre-define schema itself" true
    (Catalog.schema c == base)

(* A base schema holding an empty surrogate no undo step references:
   the catalog's optimizer may collapse it, replacing the schema the
   define produced, so the drop must take the undo path. *)
let test_drop_after_optimize_undoes () =
  let base =
    Schema.add_type Tdp_paper.Fig1.schema
      (Type_def.make
         ~origin:(Surrogate { source = ty "Person"; view = "old" })
         (ty "Person_old"))
  in
  let c = Catalog.create base in
  let c, entry = Catalog.define_exn c ~name:"EmpView" emp_view in
  let c, removed = Catalog.optimize_exn c in
  Alcotest.(check (list string)) "optimize collapsed the stray surrogate"
    [ "Person_old" ] (List.map Type_name.to_string removed);
  let optimized = Catalog.schema c in
  let c = Catalog.drop_exn c ~name:"EmpView" in
  Alcotest.(check bool) "undo path: not the recorded schema" false
    (Catalog.schema c == entry.before);
  Alcotest.(check int) "no entries" 0 (List.length (Catalog.entries c));
  Alcotest.(check string) "drop ≡ the steps fold"
    (printed (Catalog.undo_steps_exn optimized entry.steps))
    (printed (Catalog.schema c));
  Alcotest.(check string) "the base without the collapsed surrogate"
    (printed Tdp_paper.Fig1.schema)
    (printed (Catalog.schema c))

(* A base schema that already holds the surrogates of an earlier
   projection: collapsing E_hat, which sits between the new view's
   E_hat_hat and the base's B_hat, would leave B_hat inheriting from the
   view's surrogate and the view undroppable. *)
let test_optimize_keeps_step_neighbours () =
  let c = Catalog.create (Tdp_paper.Fig3.project ()).schema in
  let c, entry =
    Catalog.define_exn c ~name:"V"
      (View.Project (View.Base (ty "A"), List.map at [ "a2"; "e2" ]))
  in
  let optimized, removed = Catalog.optimize_exn c in
  Alcotest.(check (list string)) "only the unrelated surrogate collapses"
    [ "F_hat" ] (List.map Type_name.to_string removed);
  let dropped = Catalog.drop_exn optimized ~name:"V" in
  Alcotest.(check int) "no entries" 0 (List.length (Catalog.entries dropped));
  Alcotest.(check string) "drop ≡ the steps fold"
    (printed (Catalog.undo_steps_exn (Catalog.schema optimized) entry.steps))
    (printed (Catalog.schema dropped))

let synth_ddl =
  Synth.generate
    { Synth.default with
      n_types = 24;
      attrs_per_type = 2;
      writer_fraction = 0.5;
      n_gfs = 32;
      methods_per_gf = 4
    }

let test_evolution_unwinds_to_base () =
  let base = synth_ddl in
  let c =
    List.fold_left
      (fun c k ->
        let source, projection = Synth.gen_projection ~seed:k base in
        fst
          (Catalog.define_exn c ~name:(Fmt.str "V%d" k)
             (View.Project (View.Base source, projection))))
      (Catalog.create base) (List.init 4 Fun.id)
  in
  Alcotest.(check int) "four views" 4 (List.length (Catalog.entries c));
  let unwound = Evolution.unwind_exn c in
  Alcotest.(check bool) "unwinds to the base schema itself" true
    (Catalog.schema unwound == base);
  (* evolve re-derives over the changed base: every view survives an
     added attribute *)
  let c', report =
    Evolution.evolve_exn c
      (Evolution.Add_attribute
         { ty = ty "T0"; attr = Attribute.make (at "probe") Value_type.int })
  in
  Alcotest.(check int) "four views re-derived" 4 (List.length (Catalog.entries c'));
  List.iter
    (fun (i : Evolution.view_impact) ->
      match i.status with
      | `Ok -> ()
      | `Broken e -> Alcotest.failf "view %s broke: %a" i.view Error.pp e)
    report.impacts

(* Restore ≡ undo: over random Synth catalogs and random define/drop
   order with occasional optimization, every drop must agree with the
   steps fold on the same catalog — the same printed schema and
   entries, or the same error.  Views project or select base types,
   generalize two of them, or project a base-type view once more: views
   over views pin their inner view, so out-of-order drops fail both
   ways, while a selection is a free leaf any later drop may pass.  Every
   projection re-factors the surrogates earlier views put above its
   source, so types multiply with live views (hundreds by the eighth);
   defines stop at [max_types], which no drop path depends on. *)
type op =
  | Define of int
  | Select of int
  | Define_over of int
  | Generalize of int * int
  | Drop of int
  | Optimize

let gen_op =
  QCheck.Gen.(
    frequency
      [ (4, map (fun k -> Define k) (0 -- 10_000));
        (2, map (fun k -> Select k) (0 -- 100));
        (2, map (fun k -> Define_over k) (0 -- 100));
        (1, map2 (fun a b -> Generalize (a, b)) (0 -- 100) (0 -- 100));
        (5, map (fun k -> Drop k) (0 -- 100));
        (1, return Optimize)
      ])

let pp_op ppf = function
  | Define k -> Fmt.pf ppf "define %d" k
  | Select k -> Fmt.pf ppf "select %d" k
  | Define_over k -> Fmt.pf ppf "define-over %d" k
  | Generalize (a, b) -> Fmt.pf ppf "generalize %d %d" a b
  | Drop k -> Fmt.pf ppf "drop %d" k
  | Optimize -> Fmt.pf ppf "optimize"

let catalog_arb =
  QCheck.make
    ~print:(fun (seed, ops) ->
      Fmt.str "seed %d: %a" seed Fmt.(list ~sep:(any "; ") pp_op) ops)
    QCheck.Gen.(pair (0 -- 1_000_000) (list_size (2 -- 16) gen_op))

let restores = ref 0
let undos = ref 0
let max_views = 8
let max_types = 96

(* Drop the [k]-th live view, favouring the newest as a served
   define+drop does, and hold the result to the steps fold. *)
let drop_checked c k =
  let entries = Catalog.entries c in
  let n = List.length entries in
  let entry = List.nth entries (if k mod 2 = 0 then n - 1 else k mod n) in
  let name = entry.name in
  let undone =
    Error.guard (fun () -> Catalog.undo_steps_exn (Catalog.schema c) entry.steps)
  in
  match (Catalog.drop c ~name, undone) with
  | Ok c', Ok schema ->
      if Catalog.schema c' == entry.before then incr restores else incr undos;
      if printed (Catalog.schema c') <> printed schema then
        QCheck.Test.fail_reportf "drop %s: restore and undo print differently"
          name;
      let names c = List.map (fun (e : Catalog.entry) -> e.name) (Catalog.entries c) in
      if names c' <> List.filter (fun x -> x <> name) (names c) then
        QCheck.Test.fail_reportf "drop %s: entries differ" name;
      c'
  | Error e, Error e' ->
      if Error.message e <> Error.message e' then
        QCheck.Test.fail_reportf "drop %s: errors differ: %s vs %s" name
          (Error.message e) (Error.message e');
      c
  | Ok _, Error e ->
      QCheck.Test.fail_reportf "drop %s: drop succeeds, undo fails: %s" name
        (Error.message e)
  | Error e, Ok _ ->
      QCheck.Test.fail_reportf "drop %s: drop fails, undo succeeds: %s" name
        (Error.message e)

let run_catalog (seed, ops) =
  let base =
    Synth.generate { Synth.default with n_types = 5 + (seed mod 6); n_gfs = 3; seed }
  in
  let base_types = Hierarchy.type_names (Schema.hierarchy base) in
  let pick k l = List.nth l (k mod List.length l) in
  (* views whose operand is a base type may be projected once more *)
  let over_base (e : Catalog.entry) =
    match e.expr with
    | View.Project (View.Base n, _) -> List.exists (Type_name.equal n) base_types
    | _ -> false
  in
  let define c i expr =
    match Catalog.define c ~name:(Fmt.str "V%d" i) expr with
    | Ok (c, _) -> (c, i + 1)
    | Error _ -> (c, i + 1)
  in
  let step (c, i) op =
    let live = Catalog.entries c in
    match op with
    | (Define _ | Select _ | Define_over _ | Generalize _)
      when List.length live >= max_views
           || Hierarchy.cardinal (Schema.hierarchy (Catalog.schema c)) > max_types ->
        (c, i)
    | Define k ->
        let source, projection = Synth.gen_projection ~seed:k base in
        define c i (View.Project (View.Base source, projection))
    | Select k -> (
        let source = pick k base_types in
        match Hierarchy.all_attribute_names (Schema.hierarchy base) source with
        | [] -> (c, i)
        | a :: _ ->
            define c i
              (View.Select (View.Base source, Pred.cmp a Pred.Le (Body.Int k))))
    | Define_over k -> (
        match List.filter over_base live with
        | [] -> (c, i)
        | inner ->
            let e = pick k inner in
            let attrs =
              Hierarchy.all_attribute_names (Schema.hierarchy (Catalog.schema c))
                e.view_type
            in
            let keep = List.filteri (fun j _ -> j <= k mod List.length attrs) attrs in
            define c i (View.Project (View.Base e.view_type, keep)))
    | Generalize (a, b) ->
        define c i
          (View.Generalize (View.Base (pick a base_types), View.Base (pick b base_types)))
    | Drop _ when live = [] -> (c, i)
    | Drop k -> (drop_checked c k, i)
    | Optimize -> (
        match Error.guard (fun () -> Catalog.optimize_exn c) with
        | Ok (c, _) -> (c, i)
        | Error _ -> (c, i))
  in
  ignore (List.fold_left step (Catalog.create base, 0) ops);
  true

let prop_restore_equiv_undo =
  QCheck.Test.make ~name:"restore-drop ≡ undo-drop over Synth catalogs"
    ~count:1_000 catalog_arb run_catalog

let test_restore_equiv_undo () =
  restores := 0;
  undos := 0;
  QCheck.Test.check_exn prop_restore_equiv_undo;
  (* the differential is vacuous unless both paths ran *)
  Alcotest.(check bool) (Fmt.str "restores ran (%d)" !restores) true (!restores > 0);
  Alcotest.(check bool) (Fmt.str "undos ran (%d)" !undos) true (!undos > 0)

let suite =
  [ Alcotest.test_case "define and drop" `Quick test_define_and_drop_single;
    Alcotest.test_case "nested expression" `Quick test_nested_expression_single_entry;
    Alcotest.test_case "drop order enforced" `Quick test_drop_order_enforced;
    Alcotest.test_case "duplicate name" `Quick test_duplicate_name;
    Alcotest.test_case "drop generalization" `Quick test_drop_generalization;
    Alcotest.test_case "drop join" `Quick test_drop_join;
    Alcotest.test_case "optimize protects views" `Quick test_optimize_protects_views;
    Alcotest.test_case "catalog with store" `Quick test_catalog_with_store;
    Alcotest.test_case "drop restores the pre-define schema" `Quick
      test_restore_returns_before;
    Alcotest.test_case "drop after optimize undoes" `Quick
      test_drop_after_optimize_undoes;
    Alcotest.test_case "optimize keeps the neighbours of step types" `Quick
      test_optimize_keeps_step_neighbours;
    Alcotest.test_case "evolution unwinds to the base schema" `Quick
      test_evolution_unwinds_to_base;
    Alcotest.test_case "restore ≡ undo over 1,000 Synth catalogs" `Slow
      test_restore_equiv_undo
  ]

let () = Alcotest.run "catalog" [ ("catalog", suite) ]
