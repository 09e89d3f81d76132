open Tdp_core
module Unfactor = Tdp_algebra.Unfactor
open Helpers

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let test_diff_projection_fig1 () =
  let o = Tdp_paper.Fig1.project () in
  let changes = Diff.schema_changes o.before o.schema in
  let added =
    List.filter_map
      (function Diff.Type_added n -> Some (Type_name.to_string n) | _ -> None)
      changes
  in
  Alcotest.(check (list string)) "surrogates added"
    [ "Employee_hat"; "Person_hat" ]
    (List.sort String.compare added);
  let moved =
    List.filter_map
      (function
        | Diff.Attr_moved { attr; _ } -> Some (Attr_name.to_string attr)
        | _ -> None)
      changes
  in
  Alcotest.(check (list string)) "attrs moved"
    [ "date_of_birth"; "pay_rate"; "ssn" ]
    (List.sort String.compare moved);
  let sig_changed =
    List.filter_map
      (function
        | Diff.Signature_changed { key; _ } -> Some (Method_def.Key.id key)
        | _ -> None)
      changes
  in
  Alcotest.(check (list string)) "signatures changed"
    [ "age"; "get_date_of_birth"; "get_pay_rate"; "get_ssn"; "promote";
      "set_pay_rate"
    ]
    (List.sort String.compare sig_changed)

let test_diff_empty () =
  let s = Tdp_paper.Fig1.schema in
  Alcotest.(check int) "no changes against itself" 0
    (List.length (Diff.schema_changes s s))

let test_diff_edge_and_removal () =
  let s = Tdp_paper.Fig1.schema in
  let h = Schema.hierarchy s in
  let h' =
    Hierarchy.update h (ty "Employee") (fun d ->
        Type_def.with_supers d [])
  in
  let changes = Diff.hierarchy_changes h h' in
  Alcotest.(check bool) "edge removal reported" true
    (List.exists
       (function
         | Diff.Super_removed { sub; super } ->
             Type_name.equal sub (ty "Employee") && Type_name.equal super (ty "Person")
         | _ -> false)
       changes)

(* ------------------------------------------------------------------ *)
(* Unfactor (drop view)                                                *)
(* ------------------------------------------------------------------ *)

(* Equivalence of two schemas over a set of type names: identical
   type-name sets, local attribute lists (in order), supertype lists,
   and method signatures — and, as a whole, the same printed schema. *)
let check_equivalent before after =
  let hb = Schema.hierarchy before and ha = Schema.hierarchy after in
  Alcotest.(check (list string)) "same types"
    (List.map Type_name.to_string (Hierarchy.type_names hb))
    (List.map Type_name.to_string (Hierarchy.type_names ha));
  List.iter
    (fun def ->
      let n = Type_def.name def in
      Alcotest.check attr_names
        (Type_name.to_string n ^ " local attrs")
        (List.map Attribute.name (Type_def.attrs def))
        (List.map Attribute.name (Type_def.attrs (Hierarchy.find ha n)));
      Alcotest.check supers_t
        (Type_name.to_string n ^ " supers")
        (Type_def.supers def)
        (Type_def.supers (Hierarchy.find ha n)))
    (Hierarchy.types hb);
  List.iter
    (fun m ->
      let m' = Schema.find_method after (Method_def.key m) in
      Alcotest.(check bool)
        (Fmt.str "signature of %s" (Method_def.id m))
        true
        (Signature.equal (Method_def.signature m) (Method_def.signature m')))
    (Schema.all_methods before);
  Alcotest.(check string) "printed schema"
    (Fmt.str "%a" Schema.pp before)
    (Fmt.str "%a" Schema.pp after)

let test_drop_view_fig1 () =
  let o = Tdp_paper.Fig1.project () in
  let restored = Unfactor.drop_view_exn o.schema ~before:o.before ~view:"employee_view" in
  check_equivalent o.before restored

let test_drop_view_fig3_with_z () =
  (* includes Augment surrogates and §6.3 re-typed locals/results *)
  let o = Tdp_paper.Fig3.project ~schema:Tdp_paper.Fig3.schema_with_z () in
  let restored = Unfactor.drop_view_exn o.schema ~before:o.before ~view:"a_view" in
  check_equivalent o.before restored

let test_drop_unknown_view () =
  match Unfactor.drop_view Tdp_paper.Fig1.schema ~before:Tdp_paper.Fig1.schema
      ~view:"nope" with
  | Error (Invariant_violation _) -> ()
  | Error e -> Alcotest.failf "unexpected error %a" Error.pp e
  | Ok _ -> Alcotest.fail "expected failure"

let test_drop_depended_upon_view () =
  (* A second view derived from the first one pins its surrogates. *)
  let o1 = Tdp_paper.Fig1.project () in
  let o2 =
    Projection.project_exn o1.schema ~view:"v2" ~derived_name:(ty "Tiny")
      ~source:(ty "Employee_hat") ~projection:[ at "ssn" ] ()
  in
  match Unfactor.drop_view o2.schema ~before:o1.before ~view:"employee_view" with
  | Error (Invariant_violation _) -> ()
  | Error e -> Alcotest.failf "unexpected error %a" Error.pp e
  | Ok _ -> Alcotest.fail "dropping a depended-upon view must fail"

let test_drop_views_in_reverse_order () =
  (* …but dropping outermost-first unwinds cleanly. *)
  let o1 = Tdp_paper.Fig1.project () in
  let o2 =
    Projection.project_exn o1.schema ~view:"v2" ~derived_name:(ty "Tiny")
      ~source:(ty "Employee_hat") ~projection:[ at "ssn" ] ()
  in
  let s1 = Unfactor.drop_view_exn o2.schema ~before:o2.before ~view:"v2" in
  check_equivalent o1.schema s1;
  let s0 = Unfactor.drop_view_exn s1 ~before:o1.before ~view:"employee_view" in
  check_equivalent o1.before s0

let suite_diff =
  [ Alcotest.test_case "projection diff (fig1)" `Quick test_diff_projection_fig1;
    Alcotest.test_case "empty diff" `Quick test_diff_empty;
    Alcotest.test_case "edge removal" `Quick test_diff_edge_and_removal
  ]

let suite_unfactor =
  [ Alcotest.test_case "drop view (fig1)" `Quick test_drop_view_fig1;
    Alcotest.test_case "drop view (fig3 + Z)" `Quick test_drop_view_fig3_with_z;
    Alcotest.test_case "unknown view" `Quick test_drop_unknown_view;
    Alcotest.test_case "depended-upon view" `Quick test_drop_depended_upon_view;
    Alcotest.test_case "reverse-order unwind" `Quick test_drop_views_in_reverse_order
  ]

let () =
  Alcotest.run "diff-unfactor"
    [ ("diff", suite_diff); ("unfactor", suite_unfactor) ]
