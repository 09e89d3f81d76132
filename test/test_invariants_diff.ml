(* The preservation checker against its oracle.

   [Invariants] re-proves the paper's §1/§3 claims after every checked
   projection and well-formedness after every drop, doing only the work
   the change calls for.  [Invariants_oracle] is the full per-type
   formulation it replaced.  These properties hold the two to the same
   verdict on real outcomes of random projections (sizes up to the
   24-type, 32-function load-benchmark schema) and on outcomes mutated
   to break one claim each.  The second half tests the record of
   checked schema values ([Schema.checked]). *)

open Tdp_core
module Synth = Tdp_synth.Synth
module Oracle = Invariants_oracle
module Unfactor = Tdp_algebra.Unfactor
module Catalog = Tdp_algebra.Catalog
module View = Tdp_algebra.View

let ty = Type_name.of_string

(* Sizes range up to the load benchmark's synth-ddl schema (24 types,
   32 generic functions of 4 methods each). *)
let config_of_seed seed =
  { Synth.default with
    n_types = 4 + (seed mod 21);
    max_supers = 1 + (seed mod 3);
    attrs_per_type = 1 + (seed mod 2);
    n_gfs = 2 + (seed mod 31);
    methods_per_gf = 1 + (seed mod 4);
    max_params = 1 + (seed mod 2);
    calls_per_body = 1 + (seed mod 3);
    writer_fraction = (if seed mod 2 = 0 then 0.5 else 0.0);
    recursion = seed mod 3 <> 0;
    seed
  }

(* The schema API cannot redeclare a generic function, so a copy with
   other result types is rebuilt type by type and method by method. *)
let with_results s result =
  let s' = List.fold_left Schema.add_type Schema.empty (Hierarchy.types (Schema.hierarchy s)) in
  let s' =
    List.fold_left
      (fun acc g ->
        Schema.declare_gf acc
          (Generic_function.declare ?result:(result g) ~arity:(Generic_function.arity g)
             (Generic_function.name g)))
      s' (Schema.gfs s)
  in
  List.fold_left Schema.add_method s' (Schema.all_methods s)

(* Generated bodies only call generic functions for effect, so a
   changed result type could never matter to them.  Up to three general
   generic functions are therefore given a result type (the first
   parameter type of their first method) and a consumer method that
   stores a call's result in a local of that type. *)
let with_result_consumers s =
  let first_param g =
    match Generic_function.methods g with
    | m :: _ when List.for_all (fun m -> Method_def.body m <> None) (Generic_function.methods g)
      -> (
        match Signature.params (Method_def.signature m) with
        | (_, t) :: _ -> Some (g, Signature.params (Method_def.signature m), t)
        | [] -> None)
    | _ -> None
  in
  let chosen = List.filteri (fun i _ -> i < 3) (List.filter_map first_param (Schema.gfs s)) in
  let s' =
    with_results s (fun g ->
        match List.find_opt (fun (c, _, _) -> c == g) chosen with
        | Some (_, _, t) -> Some (Value_type.named t)
        | None -> Generic_function.result g)
  in
  List.fold_left
    (fun acc (g, params, t) ->
      let name = "use_" ^ Generic_function.name g in
      Schema.add_method acc
        (Method_def.make ~gf:name ~id:name ~signature:(Signature.make params)
           (General
              [ Body.local "r" (Value_type.named t);
                Body.assign "r"
                  (Body.call (Generic_function.name g)
                     (List.map (fun (x, _) -> Body.var x) params))
              ])))
    s' chosen

let outcome seed =
  let schema = with_result_consumers (Synth.generate (config_of_seed seed)) in
  let source, projection = Synth.gen_projection ~seed schema in
  Projection.project_exn ~check:false schema ~view:(Fmt.str "view%d" seed) ~source
    ~projection ()

(* [None] on acceptance, else the message of the first violation. *)
let verdict f = match f () with () -> None | exception Error.E e -> Some (Error.message e)

let fast_projection (o : Projection.outcome) after () =
  Invariants.check_exn ~before:o.before ~after ~derived:o.derived ~source:o.source
    ~projection:o.projection ~analysis:o.analysis

let oracle_projection (o : Projection.outcome) after () =
  Oracle.projection_exn ~before:o.before ~after ~derived:o.derived ~source:o.source
    ~projection:o.projection ~analysis:o.analysis

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

(* Each mutation lists candidate schemas, each a copy of [s] with one
   claim-relevant change.  Building a candidate may itself be refused
   (an [Error.E] from the schema API); such candidates are skipped. *)
type mutation = {
  m_name : string;
  candidates : olds:Type_name.t list -> derived:Type_name.t -> Schema.t -> Schema.t list;
}

let h = Schema.hierarchy
let unrelated hy a b = (not (Hierarchy.subtype hy a b)) && not (Hierarchy.subtype hy b a)

let next_prec def =
  1 + List.fold_left (fun acc (_, p) -> max acc p) 0 (Type_def.supers def)

let added_edge =
  { m_name = "added edge between old types";
    candidates =
      (fun ~olds ~derived:_ s ->
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if Type_name.equal a b || not (unrelated (h s) a b) then None
                else
                  let prec = next_prec (Hierarchy.find (h s) a) in
                  Some
                    (Schema.map_hierarchy s (fun hy ->
                         Hierarchy.add_super hy ~sub:a ~super:b ~prec)))
              olds)
          olds)
  }

let dropped_edge =
  { m_name = "dropped edge";
    candidates =
      (fun ~olds ~derived:_ s ->
        List.concat_map
          (fun a ->
            List.map
              (fun (sup, _) ->
                Schema.map_hierarchy s (fun hy ->
                    Hierarchy.update hy a (fun d ->
                        Type_def.with_supers d
                          (List.filter
                             (fun (x, _) -> not (Type_name.equal x sup))
                             (Type_def.supers d)))))
              (Type_def.supers (Hierarchy.find (h s) a)))
          olds)
  }

let dropped_method =
  { m_name = "dropped method";
    candidates =
      (fun ~olds:_ ~derived:_ s ->
        List.map (fun m -> Schema.remove_method s (Method_def.key m)) (Schema.all_methods s))
  }

let moved_param =
  { m_name = "parameter moved to an unrelated type";
    candidates =
      (fun ~olds ~derived:_ s ->
        List.concat_map
          (fun m ->
            match Signature.params (Method_def.signature m) with
            | [] -> []
            | (x, p) :: rest ->
                List.filter_map
                  (fun u ->
                    if not (unrelated (h s) u p) then None
                    else
                      Some
                        (Schema.update_method s (Method_def.key m) (fun m ->
                             let sg = Method_def.signature m in
                             Method_def.with_signature m
                               (Signature.make ?result:(Signature.result sg)
                                  ((x, u) :: rest)))))
                  olds)
          (Schema.all_methods s))
  }

let widened_derived =
  { m_name = "widened derived state";
    candidates =
      (fun ~olds:_ ~derived s ->
        [ Schema.map_hierarchy s (fun hy ->
              Hierarchy.update hy derived (fun d ->
                  Type_def.add_attr d
                    (Attribute.make (Attr_name.of_string "widened") Value_type.int)))
        ])
  }

let moved_attr =
  { m_name = "attribute moved off an old type";
    candidates =
      (fun ~olds ~derived:_ s ->
        List.concat_map
          (fun t ->
            List.concat_map
              (fun a ->
                List.filter_map
                  (fun u ->
                    if Hierarchy.subtype (h s) t u then None
                    else
                      Some
                        (Schema.map_hierarchy s (fun hy ->
                             Hierarchy.move_attr hy ~attr:(Attribute.name a) ~from_:t
                               ~to_:u)))
                  (Hierarchy.type_names (h s)))
              (Type_def.attrs (Hierarchy.find (h s) t)))
          olds)
  }

let retyped_local =
  { m_name = "body local retyped to an incompatible type";
    candidates =
      (fun ~olds:_ ~derived:_ s ->
        List.concat_map
          (fun m ->
            match Method_def.body m with
            | None -> []
            | Some b ->
                List.filter_map
                  (fun (x, vt) ->
                    match Value_type.as_named vt with
                    | None -> None
                    | Some _ ->
                        Some
                          (Schema.update_method s (Method_def.key m) (fun m ->
                               Method_def.with_kind m
                                 (General
                                    (Body.map_local_types
                                       (fun y t -> if String.equal x y then Value_type.int else t)
                                       b)))))
                  (Body.locals b))
          (Schema.all_methods s))
  }

let changed_gf_result =
  { m_name = "changed gf result type";
    candidates =
      (fun ~olds:_ ~derived:_ s ->
        List.filter_map
          (fun g ->
            match Generic_function.result g with
            | Some (Value_type.Named _) ->
                Some
                  (with_results s (fun g' ->
                       if g' == g then Some Value_type.int else Generic_function.result g'))
            | Some _ | None -> None)
          (Schema.gfs s))
  }

let mutations =
  [ added_edge;
    dropped_edge;
    dropped_method;
    moved_param;
    widened_derived;
    moved_attr;
    retyped_local;
    changed_gf_result
  ]

(* Up to [k] candidates, in an order drawn from [seed]. *)
let sample ~seed ~k mutation ~olds ~derived s =
  let st = Random.State.make [| seed; Hashtbl.hash mutation.m_name |] in
  let cands =
    match mutation.candidates ~olds ~derived s with
    | l -> List.map (fun c -> (Random.State.bits st, c)) l
    | exception Error.E _ -> []
  in
  List.sort (fun (a, _) (b, _) -> compare a b) cands
  |> List.filteri (fun i _ -> i < k)
  |> List.map snd

(* Per mutation: the seeds on which some candidate was rejected. *)
let rejections = Hashtbl.create 16

let note_rejection name =
  Hashtbl.replace rejections name (1 + Option.value ~default:0 (Hashtbl.find_opt rejections name))

(* Same verdict, and the same first violation reported.  Returns
   whether the oracle accepted. *)
let agree ~what ~fast ~oracle =
  let f = verdict fast and o = verdict oracle in
  if f <> o then
    QCheck.Test.fail_reportf "%s: checker %s, oracle %s" what
      (Option.value ~default:"accepts" f)
      (Option.value ~default:"accepts" o);
  o = None

let prop_projection_differential =
  QCheck.Test.make ~name:"checker ≡ oracle on real and mutated projections" ~count:1000
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let o = outcome seed in
      let olds = Hierarchy.type_names (h o.before) in
      Oracle.projection_exn ~before:o.before ~after:o.schema ~derived:o.derived
        ~source:o.source ~projection:o.projection ~analysis:o.analysis;
      Invariants.check_exn ~before:o.before ~after:o.schema ~derived:o.derived
        ~source:o.source ~projection:o.projection ~analysis:o.analysis;
      List.iter
        (fun mutation ->
          let rejected =
            List.fold_left
              (fun rejected after ->
                let ok =
                  agree ~what:mutation.m_name ~fast:(fast_projection o after)
                    ~oracle:(oracle_projection o after)
                in
                rejected || not ok)
              false
              (sample ~seed ~k:3 mutation ~olds ~derived:o.derived o.schema)
          in
          if rejected then note_rejection mutation.m_name)
        mutations;
      true)

(* Every mutation must also have produced rejected outcomes, or the
   differential proves nothing about the claim it breaks. *)
let test_projection_differential () =
  Hashtbl.reset rejections;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 19 |]) prop_projection_differential;
  List.iter
    (fun m ->
      let n = Option.value ~default:0 (Hashtbl.find_opt rejections m.m_name) in
      Fmt.pr "  %-45s rejected on %4d of 1000 seeds@." m.m_name n;
      if n < 50 then Alcotest.failf "%s: rejected on only %d seeds" m.m_name n)
    mutations

(* The drop's re-check against validating and typing the whole result:
   the real drop is accepted by both; mutated drops get one verdict. *)
let prop_drop_differential =
  QCheck.Test.make ~name:"drop re-check ≡ full check on real and mutated drops"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let o = outcome seed in
      Invariants.check_exn ~before:o.before ~after:o.schema ~derived:o.derived
        ~source:o.source ~projection:o.projection ~analysis:o.analysis;
      if not (Schema.checked o.schema) then
        QCheck.Test.fail_report "a checked outcome was not recorded checked";
      let restored = Unfactor.drop_view_exn o.schema ~before:o.before ~view:o.view in
      Oracle.schema_exn restored;
      let olds = Hierarchy.type_names (h restored) in
      List.iter
        (fun mutation ->
          List.iter
            (fun after ->
              ignore
                (agree ~what:("drop: " ^ mutation.m_name)
                   ~fast:(fun () -> Invariants.recheck_exn ~before:o.schema ~after)
                   ~oracle:(fun () -> Oracle.schema_exn after)))
            (sample ~seed ~k:2 mutation ~olds ~derived:o.source restored))
        [ dropped_edge; moved_param; moved_attr; retyped_local; changed_gf_result ];
      true)

(* ------------------------------------------------------------------ *)
(* The record of checked values                                        *)
(* ------------------------------------------------------------------ *)

let fig1 = Tdp_paper.Fig1.schema

(* A method whose body assigns an object to an integer local. *)
let ill_typed s =
  Schema.add_method s
    (Method_def.make ~gf:"broken" ~id:"broken1"
       ~signature:(Signature.make [ ("e", ty "Employee") ])
       (General
          [ Body.local "n" Value_type.int;
            Body.assign "n" (Body.var "e")
          ]))

let raises f = Option.is_some (verdict f)

let test_failure_not_recorded () =
  let bad = ill_typed fig1 in
  Alcotest.(check bool) "first check raises" true (raises (fun () -> Typing.check_schema_exn bad));
  Alcotest.(check bool) "not recorded" false (Schema.checked bad);
  Alcotest.(check bool) "second check raises" true
    (raises (fun () -> Typing.check_schema_exn bad));
  let project () =
    ignore
      (Projection.project_exn bad ~view:"v" ~source:(ty "Employee")
         ~projection:Tdp_paper.Fig1.projection ())
  in
  Alcotest.(check bool) "projection refuses it" true (raises project);
  Alcotest.(check bool) "and again" true (raises project)

let test_derived_value_checked_afresh () =
  let s = Schema.map_hierarchy fig1 Fun.id in
  Typing.check_schema_exn s;
  Alcotest.(check bool) "recorded" true (Schema.checked s);
  let bad = ill_typed s in
  Alcotest.(check bool) "derived value starts unchecked" false (Schema.checked bad);
  Alcotest.(check bool) "derived value is checked afresh" true
    (raises (fun () -> Typing.check_schema_exn bad));
  let renamed = Schema.with_hierarchy s (Schema.hierarchy s) in
  Alcotest.(check bool) "same hierarchy, new value: unchecked" false (Schema.checked renamed)

(* A checked projection records its result, and dropping the view
   records the restored schema, so a define/drop cycle leaves the
   catalog's schema checked. *)
let test_define_drop_records () =
  let c = Catalog.create fig1 in
  let c, _ =
    Catalog.define_exn c ~name:"B"
      (View.Project (View.Base (ty "Employee"), Tdp_paper.Fig1.projection))
  in
  Alcotest.(check bool) "defined schema recorded" true (Schema.checked (Catalog.schema c));
  let c = Catalog.drop_exn c ~name:"B" in
  Alcotest.(check bool) "dropped schema recorded" true (Schema.checked (Catalog.schema c))

(* Two domains define and drop views in catalogs over one shared,
   not yet checked schema value; both must see exactly what a
   sequential run sees. *)
let synth_ddl =
  Synth.generate
    { Synth.default with
      n_types = 24;
      attrs_per_type = 2;
      writer_fraction = 0.5;
      n_gfs = 32;
      methods_per_gf = 4
    }

let cycles ~worker shared =
  let templates =
    Array.init 16 (fun k ->
        let source, projection = Synth.gen_projection ~seed:k shared in
        View.Project (View.Base source, projection))
  in
  let c = ref (Catalog.create shared) in
  List.init 200 (fun i ->
      let name = Fmt.str "W%dV%d" worker i in
      let defined, _ = Catalog.define_exn !c ~name templates.((i + worker) mod 16) in
      c := Catalog.drop_exn defined ~name;
      (Catalog.schema defined, Catalog.schema !c))

let same_schema a b =
  Hierarchy.equal (Schema.hierarchy a) (Schema.hierarchy b)
  && List.equal
       (fun x y -> Method_def.key x = Method_def.key y && x = y)
       (Schema.all_methods a) (Schema.all_methods b)

let test_two_domains () =
  let shared = Schema.map_hierarchy synth_ddl Fun.id in
  Alcotest.(check bool) "starts unchecked" false (Schema.checked shared);
  let d0 = Domain.spawn (fun () -> cycles ~worker:0 shared)
  and d1 = Domain.spawn (fun () -> cycles ~worker:1 shared) in
  let r0 = Domain.join d0 and r1 = Domain.join d1 in
  let reference = Schema.map_hierarchy synth_ddl Fun.id in
  let s0 = cycles ~worker:0 reference and s1 = cycles ~worker:1 reference in
  List.iter2
    (fun (name, concurrent) sequential ->
      List.iteri
        (fun i ((cd, cr), (sd, sr)) ->
          if not (same_schema cd sd && same_schema cr sr) then
            Alcotest.failf "%s: cycle %d differs from the sequential run" name i)
        (List.combine concurrent sequential))
    [ ("domain 0", r0); ("domain 1", r1) ]
    [ s0; s1 ];
  Alcotest.(check bool) "shared value recorded" true (Schema.checked shared)

let () =
  let to_alco = QCheck_alcotest.to_alcotest in
  Alcotest.run "invariants-diff"
    [ ( "differential",
        [ Alcotest.test_case "checker ≡ oracle on 1000 projections, every mutation rejected"
            `Quick test_projection_differential;
          to_alco prop_drop_differential
        ] );
      ( "checked record",
        [ Alcotest.test_case "a failed check is not recorded" `Quick
            test_failure_not_recorded;
          Alcotest.test_case "a derived value is checked afresh" `Quick
            test_derived_value_checked_afresh;
          Alcotest.test_case "define and drop record their results" `Quick
            test_define_drop_records;
          Alcotest.test_case "two domains agree with a sequential run" `Quick
            test_two_domains
        ] )
    ]
