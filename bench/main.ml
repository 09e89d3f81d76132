(* Benchmark and experiment harness.

   The paper's evaluation consists of worked examples (Figures 1-5,
   Examples 1-4), not performance tables.  This harness therefore
   regenerates, for every figure, the exact structure the paper prints
   (tables E1-E6), verifies the preservation claims in bulk (E7), and
   adds the scaling measurements S1-S4 described in EXPERIMENTS.md.

   Run: dune exec bench/main.exe            (the tables)
        dune exec bench/main.exe -- tables  (the same)
        dune exec bench/main.exe -- bench --json [--small] [--out FILE]
                                            (machine-readable baseline:
                                             ns/op + cached-vs-uncached
                                             speedups + the schema-index
                                             scaling sweep + store recovery
                                             and MVCC commit throughput + a
                                             Tdp_obs metrics snapshot of one
                                             instrumented pass + the columnar
                                             store sweep + replica/router
                                             throughput + the statement
                                             language's eval path + MVCC
                                             snapshot reads + served
                                             extent replies + catalog DDL
                                             (define, drop, define+drop
                                             over live views); FILE
                                             defaults to BENCH_15.json,
                                             "-" = stdout)
        dune exec bench/main.exe -- bench --check FILE
                                            (re-measure in --small mode and
                                             fail if a guarded benchmark
                                             regressed >3x vs the baseline
                                             JSON in FILE, or if a required
                                             columnar speedup floor is not
                                             met by the current tree) *)

open Tdp_core
module Fig1 = Tdp_paper.Fig1
module Fig3 = Tdp_paper.Fig3
module Synth = Tdp_synth.Synth
module Dispatch = Tdp_dispatch.Dispatch
module Obs = Tdp_obs

let ty = Type_name.of_string
let at = Attr_name.of_string
let key = Method_def.Key.make

let section title = Fmt.pr "@.=== %s ===@." title
let row2 c1 c2 = Fmt.pr "  %-34s %s@." c1 c2
let row3 c1 c2 c3 = Fmt.pr "  %-26s %-28s %s@." c1 c2 c3
let row4 c1 c2 c3 c4 = Fmt.pr "  %-14s %-22s %-22s %s@." c1 c2 c3 c4
let verdict ok = if ok then "MATCH" else "** MISMATCH **"

let status_string = function
  | `Applicable -> "applicable"
  | `Not_applicable -> "not applicable"
  | `Unknown -> "unknown"

(* ------------------------------------------------------------------ *)
(* E1 / E2: Figure 1 -> Figure 2                                       *)
(* ------------------------------------------------------------------ *)

let describe_type h name =
  let def = Hierarchy.find h (ty name) in
  Fmt.str "{%s} / [%s]"
    (String.concat ","
       (List.map (fun a -> Attr_name.to_string (Attribute.name a)) (Type_def.attrs def)))
    (String.concat ","
       (List.map
          (fun (s, p) -> Fmt.str "%s@%d" (Type_name.to_string s) p)
          (Type_def.supers def)))

let table_e1_e2 () =
  section
    "E1: Fig. 1 method applicability under Π_{ssn,date_of_birth,pay_rate} Employee";
  let o = Fig1.project () in
  row4 "method" "paper" "measured" "verdict";
  List.iter
    (fun (gf, paper) ->
      let measured = status_string (Applicability.status o.analysis (key gf gf)) in
      row4 gf paper measured (verdict (String.equal paper measured)))
    [ ("age", "applicable");
      ("promote", "applicable");
      ("income", "not applicable");
      ("get_ssn", "applicable");
      ("get_name", "not applicable");
      ("get_date_of_birth", "applicable");
      ("get_pay_rate", "applicable");
      ("get_hrs_worked", "not applicable")
    ];
  section "E2: Fig. 2 refactored hierarchy";
  let h = Schema.hierarchy o.schema in
  row3 "type" "paper: local attrs / supers" "measured";
  List.iter
    (fun (name, paper) ->
      let measured = describe_type h name in
      row3 name paper
        (Fmt.str "%-28s %s" measured (verdict (String.equal paper measured))))
    [ ("Person_hat", "{ssn,date_of_birth} / []");
      ("Person", "{name} / [Person_hat@0]");
      ("Employee_hat", "{pay_rate} / [Person_hat@1]");
      ("Employee", "{hrs_worked} / [Employee_hat@0,Person@1]")
    ]

(* ------------------------------------------------------------------ *)
(* E3: Examples 1 and 2                                                *)
(* ------------------------------------------------------------------ *)

let table_e3 () =
  section "E3: Fig. 3 / Example 2 classification under Π_{a2,e2,h2} A";
  let o = Fig3.project () in
  row4 "method" "paper" "measured" "verdict";
  let all =
    List.map (fun (g, i) -> (g, i, "applicable")) Fig3.expected_applicable
    @ List.map (fun (g, i) -> (g, i, "not applicable")) Fig3.expected_not_applicable
  in
  List.iter
    (fun (gf, id, paper) ->
      let measured = status_string (Applicability.status o.analysis (key gf id)) in
      row4 id paper measured (verdict (String.equal paper measured)))
    (List.sort compare all);
  row2 "driver passes"
    (Fmt.str "%d (paper: y1 is retracted and re-checked => >1)" o.analysis.passes)

(* ------------------------------------------------------------------ *)
(* E4: Figure 4                                                        *)
(* ------------------------------------------------------------------ *)

let fig4_expected =
  [ ("A_hat", "{a2} / [C_hat@1,B_hat@2]");
    ("A", "{a1} / [A_hat@0,C@1,B@2]");
    ("B_hat", "{} / [E_hat@2]");
    ("B", "{b1} / [B_hat@0,D@1,E@2]");
    ("C_hat", "{} / [F_hat@1,E_hat@2]");
    ("C", "{c1} / [C_hat@0,F@1,E@2]");
    ("D", "{d1} / []");
    ("E_hat", "{e2} / [H_hat@2]");
    ("E", "{e1} / [E_hat@0,G@1,H@2]");
    ("F_hat", "{} / [H_hat@1]");
    ("F", "{f1} / [F_hat@0,H@1]");
    ("G", "{g1} / []");
    ("H_hat", "{h2} / []");
    ("H", "{h1} / [H_hat@0]")
  ]

let table_e4 () =
  section "E4: Fig. 4 factored hierarchy (Section 5.2 trace)";
  let o = Fig3.project () in
  let h = Schema.hierarchy o.schema in
  row3 "type" "paper" "measured";
  List.iter
    (fun (name, paper) ->
      let measured = describe_type h name in
      row3 name paper
        (Fmt.str "%-28s %s" measured (verdict (String.equal paper measured))))
    fig4_expected

(* ------------------------------------------------------------------ *)
(* E5: Example 3                                                       *)
(* ------------------------------------------------------------------ *)

let table_e5 () =
  section "E5: Example 3 rewritten signatures (FactorMethods)";
  let o = Fig3.project () in
  row4 "method" "paper" "measured" "verdict";
  List.iter
    (fun (gf, id, paper) ->
      let m = Schema.find_method o.schema (key gf id) in
      let measured =
        Fmt.str "(%s)"
          (String.concat ","
             (List.map Type_name.to_string
                (Signature.param_types (Method_def.signature m))))
      in
      row4 id paper measured (verdict (String.equal paper measured)))
    [ ("v", "v1", "(A_hat,C_hat)");
      ("u", "u3", "(B_hat)");
      ("w", "w2", "(C_hat)");
      ("get_h2", "get_h2", "(B_hat)")
    ]

(* ------------------------------------------------------------------ *)
(* E6: Figure 5 / Example 4                                            *)
(* ------------------------------------------------------------------ *)

let table_e6 () =
  section "E6: Fig. 5 augmented hierarchy (Z from def-use analysis)";
  let o = Fig3.project ~schema:Fig3.schema_with_z () in
  let z =
    String.concat "," (List.map Type_name.to_string (Type_name.Set.elements o.z))
  in
  row4 "quantity" "paper" "measured" "verdict";
  row4 "Z" "D,G" z (verdict (String.equal z "D,G"));
  let h = Schema.hierarchy o.schema in
  List.iter
    (fun (name, paper) ->
      let measured = describe_type h name in
      row4 name paper measured (verdict (String.equal paper measured)))
    [ ("D_hat", "{} / []");
      ("G_hat", "{} / []");
      ("D", "{d1} / [D_hat@0]");
      ("G", "{g1} / [G_hat@0]");
      ("B_hat", "{} / [D_hat@1,E_hat@2]");
      ("E_hat", "{e2} / [G_hat@1,H_hat@2]")
    ]

(* ------------------------------------------------------------------ *)
(* E7: preservation claims over random schemas                         *)
(* ------------------------------------------------------------------ *)

let table_e7 () =
  section "E7: invariant checks over 100 random schemas (Tdp_synth)";
  let cases = 100 in
  let violations = ref 0 and ran = ref 0 in
  for seed = 0 to cases - 1 do
    let cfg =
      { Synth.default with
        n_types = 4 + (seed mod 12);
        max_supers = 1 + (seed mod 3);
        n_gfs = 2 + (seed mod 4);
        seed
      }
    in
    let schema = Synth.generate cfg in
    let source, projection = Synth.gen_projection ~seed schema in
    incr ran;
    match
      Projection.project_exn schema ~view:(Fmt.str "v%d" seed) ~source ~projection ()
    with
    | (_ : Projection.outcome) -> ()
    | exception Error.E e ->
        incr violations;
        Fmt.pr "  seed %d: %a@." seed Error.pp e
  done;
  row4 "property" "paper claim" "measured" "verdict";
  row4 "all invariants"
    (Fmt.str "0 violations / %d" cases)
    (Fmt.str "%d violations / %d" !violations !ran)
    (verdict (!violations = 0))

(* ------------------------------------------------------------------ *)
(* Synthetic hierarchies for the scaling experiments                   *)
(* ------------------------------------------------------------------ *)

(* A linear chain T(d-1) ⪯ … ⪯ T0, one attribute per type. *)
let chain_schema d =
  let rec go schema i =
    if i = d then schema
    else
      let supers = if i = 0 then [] else [ (ty (Fmt.str "T%d" (i - 1)), 1) ] in
      go
        (Schema.add_type schema
           (Type_def.make
              ~attrs:[ Attribute.make (at (Fmt.str "x%d" i)) Value_type.int ]
              ~supers (ty (Fmt.str "T%d" i))))
        (i + 1)
  in
  go Schema.empty 0

let chain_projection d =
  (ty (Fmt.str "T%d" (d - 1)), List.init d (fun i -> at (Fmt.str "x%d" i)))

(* A star: source with w direct supertypes, one attribute each. *)
let star_schema w =
  let schema =
    List.fold_left
      (fun schema i ->
        Schema.add_type schema
          (Type_def.make
             ~attrs:[ Attribute.make (at (Fmt.str "s%d" i)) Value_type.int ]
             (ty (Fmt.str "S%d" i))))
      Schema.empty
      (List.init w (fun i -> i))
  in
  Schema.add_type schema
    (Type_def.make
       ~attrs:[ Attribute.make (at "own") Value_type.int ]
       ~supers:(List.init w (fun i -> (ty (Fmt.str "S%d" i), i + 1)))
       (ty "Src"))

let star_projection w = (ty "Src", List.init w (fun i -> at (Fmt.str "s%d" i)))

let synth_for_methods m =
  Synth.generate
    { Synth.default with
      n_types = 16;
      n_gfs = max 1 (m / 5);
      methods_per_gf = 5;
      calls_per_body = 3;
      seed = 11
    }

(* The load benchmark's synth-ddl schema (24 types, ~200 methods over
   a multiple-inheritance DAG) and its 16 view templates: the shape a
   served `define view` derives over. *)
let synth_ddl () =
  Synth.generate
    { Synth.default with
      n_types = 24;
      attrs_per_type = 2;
      writer_fraction = 0.5;
      n_gfs = 32;
      methods_per_gf = 4
    }

let synth_ddl_templates schema =
  List.init 16 (fun k -> Synth.gen_projection ~seed:k schema)

(* CPU seconds per call of [f].  The repetition count grows until one
   batch takes 20 ms; then five batches are timed, each after a full
   major collection — so no batch pays for garbage an earlier benchmark
   left — and the median batch is reported. *)
let time_it f =
  let batch reps =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    Sys.time () -. t0
  in
  let rec calibrate reps =
    if reps < 1_000_000 && batch reps < 0.02 then calibrate (reps * 4) else reps
  in
  let reps = calibrate 1 in
  let samples =
    List.init 5 (fun _ ->
        Gc.full_major ();
        batch reps)
  in
  List.nth (List.sort Float.compare samples) 2 /. float_of_int reps

let pp_time ppf s =
  if s < 1e-6 then Fmt.pf ppf "%8.1f ns" (s *. 1e9)
  else if s < 1e-3 then Fmt.pf ppf "%8.2f us" (s *. 1e6)
  else Fmt.pf ppf "%8.3f ms" (s *. 1e3)

(* Catalog DDL over the synth-ddl schema.  Figures are per template,
   averaged over the 16. *)
module Catalog = Tdp_algebra.Catalog
module View = Tdp_algebra.View

let ddl_views schema =
  List.mapi
    (fun k (source, projection) ->
      (Fmt.str "V%d" k, View.Project (View.Base source, projection)))
    (synth_ddl_templates schema)

(* A catalog over [schema] holding [live] selection views, round-robin
   over the base types.  Live views are selections, free leaves, because
   each live projection re-factors the surrogates the earlier ones put
   above its source: eight synth-ddl templates live at once make 805
   types, and the eighth define alone takes over a minute. *)
let with_live_selections schema live =
  let h = Schema.hierarchy schema in
  let sources =
    List.filter_map
      (fun n ->
        match Hierarchy.all_attribute_names h n with
        | a :: _ -> Some (n, a)
        | [] -> None)
      (Hierarchy.type_names h)
  in
  List.fold_left
    (fun c i ->
      let source, a = List.nth sources (i mod List.length sources) in
      fst
        (Catalog.define_exn c ~name:(Fmt.str "L%d" i)
           (View.Select
              (View.Base source, Tdp_algebra.Pred.cmp a Tdp_algebra.Pred.Le (Body.Int i)))))
    (Catalog.create schema) (List.init live Fun.id)

(* CPU seconds of one drop right after a checked define of the same
   view: the drop a served define+drop pair pays. *)
let ddl_drop_after_define schema =
  let catalog = Catalog.create schema in
  let defined =
    List.map
      (fun (name, expr) -> (name, fst (Catalog.define_exn catalog ~name expr)))
      (ddl_views schema)
  in
  time_it (fun () ->
      List.iter (fun (name, c) -> ignore (Catalog.drop_exn c ~name)) defined)
  /. float_of_int (List.length defined)

(* CPU seconds of a define+drop pair on top of [live] selection views. *)
let ddl_define_drop schema ~live =
  let catalog = with_live_selections schema live in
  let views = ddl_views schema in
  time_it (fun () ->
      List.iter
        (fun (name, expr) ->
          let c, _ = Catalog.define_exn catalog ~name expr in
          ignore (Catalog.drop_exn c ~name))
        views)
  /. float_of_int (List.length views)

let table_s1 () =
  section "S1: IsApplicable scaling vs. number of methods (16 types, recursion on)";
  row3 "methods" "analysis time" "time / method";
  List.iter
    (fun m ->
      let schema = synth_for_methods m in
      let n_methods = List.length (Schema.all_methods schema) in
      let source, projection = Synth.gen_projection ~seed:1 schema in
      let t =
        time_it (fun () -> Applicability.analyze_exn schema ~source ~projection)
      in
      row3 (string_of_int n_methods)
        (Fmt.str "%a" pp_time t)
        (Fmt.str "%a" pp_time (t /. float_of_int n_methods)))
    [ 10; 20; 40; 80; 160; 320 ]

let table_s2 () =
  section "S2: FactorState scaling vs. hierarchy depth (chain) and width (star)";
  row3 "shape" "types factored" "time";
  List.iter
    (fun d ->
      let schema = chain_schema d in
      let source, projection = chain_projection d in
      let t =
        time_it (fun () ->
            Factor_state.run_exn (Schema.hierarchy schema) ~view:"s2" ~source
              ~projection ())
      in
      row3 (Fmt.str "chain depth %d" d) (string_of_int d) (Fmt.str "%a" pp_time t))
    [ 4; 8; 16; 32; 64; 128 ];
  List.iter
    (fun w ->
      let schema = star_schema w in
      let source, projection = star_projection w in
      let t =
        time_it (fun () ->
            Factor_state.run_exn (Schema.hierarchy schema) ~view:"s2" ~source
              ~projection ())
      in
      row3
        (Fmt.str "star width %d" w)
        (string_of_int (w + 1))
        (Fmt.str "%a" pp_time t))
    [ 4; 8; 16; 32; 64; 128 ]

let table_s3 () =
  section "S3: dispatch cost before vs. after refactoring (transparency)";
  let before = Fig3.schema in
  let o = Fig3.project () in
  let d_before = Dispatch.create before in
  let d_after = Dispatch.create o.schema in
  row3 "call" "original hierarchy" "refactored hierarchy";
  List.iter
    (fun (gf, args) ->
      let tb = time_it (fun () -> Dispatch.most_specific d_before ~gf ~arg_types:args) in
      let ta = time_it (fun () -> Dispatch.most_specific d_after ~gf ~arg_types:args) in
      row3
        (Fmt.str "%s(%s)" gf (String.concat "," (List.map Type_name.to_string args)))
        (Fmt.str "%a" pp_time tb)
        (Fmt.str "%a" pp_time ta))
    [ ("u", [ ty "A" ]); ("v", [ ty "A"; ty "C" ]); ("x", [ ty "A"; ty "B" ]) ];
  row2 "view-type dispatch u(A_hat)"
    (Fmt.str "%a"
       (fun ppf () ->
         pp_time ppf
           (time_it (fun () ->
                Dispatch.most_specific d_after ~gf:"u" ~arg_types:[ ty "A_hat" ])))
       ())

let chained k =
  let rec go schema source i protect =
    if i = k then (schema, protect)
    else
      let name = ty (Fmt.str "W%d" i) in
      let o =
        Projection.project_exn ~check:false schema ~view:(Fmt.str "w%d" i)
          ~derived_name:name ~source
          ~projection:[ at "a2"; at "e2"; at "h2" ]
          ()
      in
      go o.schema name (i + 1) (Type_name.Set.add name protect)
  in
  go Fig3.schema (ty "A") 0 Type_name.Set.empty

let table_s4 () =
  section "S4: views-over-views surrogate growth and collapse (Section 7)";
  row4 "chain length" "types total" "empty surrogates" "after collapse";
  List.iter
    (fun k ->
      let schema, protect = chained k in
      let empty = Tdp_algebra.Optimize.empty_surrogate_count schema in
      let collapsed, removed = Tdp_algebra.Optimize.collapse_exn ~protect schema in
      row4 (string_of_int k)
        (string_of_int (Hierarchy.cardinal (Schema.hierarchy schema)))
        (string_of_int empty)
        (Fmt.str "%d (removed %d)"
           (Tdp_algebra.Optimize.empty_surrogate_count collapsed)
           (List.length removed)))
    [ 1; 2; 4; 8 ]

let table_s5 () =
  section "S5: ablation — cost of the invariant checks in the pipeline";
  row3 "workload" "project (no checks)" "project (all checks)";
  List.iter
    (fun (name, schema, views) ->
      let run check () =
        List.iter
          (fun (source, projection) ->
            ignore
              (Projection.project_exn ~check schema
                 ~view:(Fmt.str "s5%s" name)
                 ~source ~projection ()))
          views
      in
      let per_view t = t /. float_of_int (List.length views) in
      row3 name
        (Fmt.str "%a" pp_time (per_view (time_it (run false))))
        (Fmt.str "%a" pp_time (per_view (time_it (run true)))))
    [ ("fig1", Fig1.schema, [ (ty "Employee", Fig1.projection) ]);
      ("fig3+z", Fig3.schema_with_z, [ (ty "A", Fig3.projection) ]);
      ( "synth-160",
        synth_for_methods 160,
        [ Synth.gen_projection ~seed:1 (synth_for_methods 160) ] );
      (let schema = synth_ddl () in
       ("synth-24 (16 views)", schema, synth_ddl_templates schema))
    ]

let table_s6 () =
  section "S6: object-store operation throughput (100 objects, fig1 schema + view)";
  let o = Fig1.project () in
  let db = Tdp_store.Database.create o.schema in
  let oids =
    List.map
      (fun i ->
        Tdp_store.Database.new_object db (ty "Employee")
          ~init:
            [ (at "ssn", Tdp_store.Value.Int i);
              (at "date_of_birth", Tdp_store.Value.Date (1950 + (i mod 60)));
              (at "pay_rate", Tdp_store.Value.Float 10.0);
              (at "hrs_worked", Tdp_store.Value.Float 40.0)
            ])
      (List.init 100 (fun i -> i))
  in
  let interp = Tdp_store.Interp.create db in
  let some = List.nth oids 50 in
  row3 "operation" "time" "";
  List.iter
    (fun (name, f) -> row3 name (Fmt.str "%a" pp_time (time_it f)) "")
    [ ("get_attr", fun () -> ignore (Tdp_store.Database.get_attr db some (at "ssn")));
      ( "set_attr",
        fun () ->
          Tdp_store.Database.set_attr db some (at "pay_rate")
            (Tdp_store.Value.Float 11.0) );
      ( "interpreted accessor call",
        fun () -> ignore (Tdp_store.Interp.call_on interp "get_ssn" [ some ]) );
      ( "interpreted method (age)",
        fun () -> ignore (Tdp_store.Interp.call_on interp "age" [ some ]) );
      ( "extent of view type",
        fun () -> ignore (Tdp_store.Database.extent db (ty "Employee_hat")) )
    ]

(* The tie harness for S7: a source type A {x, y} and, per index i, a
   chain Cᵢ ⪯ Dᵢ with two methods of the generic function mᵢ that tie
   on position 0:

     mᵢ_app(A, Cᵢ) reading x   — applicable to Π_{x} A, relocated
     mᵢ_na (A, Dᵢ) reading y   — not applicable, kept

   Before the projection, the call mᵢ(A, Cᵢ) selects mᵢ_app (position
   1 decides).  After it, a naive ranking lets mᵢ_na win position 0
   (A before Â), flipping dispatch for original objects — unless the
   dispatcher gives Â the rank of A (surrogate transparency). *)
let tie_schema k =
  let attr n = Attribute.make (at n) Value_type.int in
  let s =
    Schema.empty
    |> fun s ->
    Schema.add_type s (Type_def.make ~attrs:[ attr "x"; attr "y" ] (ty "A"))
    |> fun s ->
    Schema.add_method s
      (Method_def.reader ~gf:"get_x" ~id:"get_x" ~param:"self" ~param_type:(ty "A")
         ~attr:(at "x") ~result:Value_type.int)
    |> fun s ->
    Schema.add_method s
      (Method_def.reader ~gf:"get_y" ~id:"get_y" ~param:"self" ~param_type:(ty "A")
         ~attr:(at "y") ~result:Value_type.int)
  in
  let rec add s i =
    if i = k then s
    else
      let di = Fmt.str "D%d" i and ci = Fmt.str "C%d" i in
      let s = Schema.add_type s (Type_def.make (ty di)) in
      let s = Schema.add_type s (Type_def.make ~supers:[ (ty di, 1) ] (ty ci)) in
      let s =
        Schema.add_method s
          (Method_def.make ~gf:(Fmt.str "m%d" i) ~id:(Fmt.str "m%d_app" i)
             ~signature:(Signature.make [ ("a", ty "A"); ("c", ty ci) ])
             (General [ Body.expr (Body.call "get_x" [ Body.var "a" ]) ]))
      in
      let s =
        Schema.add_method s
          (Method_def.make ~gf:(Fmt.str "m%d" i) ~id:(Fmt.str "m%d_na" i)
             ~signature:(Signature.make [ ("a", ty "A"); ("d", ty di) ])
             (General [ Body.expr (Body.call "get_y" [ Body.var "a" ]) ]))
      in
      add s (i + 1)
  in
  add s 0

let table_s7 () =
  section
    "S7: ablation — dispatch flips without surrogate-transparent ranking (tie \
     harness)";
  row4 "tied method pairs" "flips (naive ranking)" "flips (transparent)" "verdict";
  List.iter
    (fun k ->
      let schema = tie_schema k in
      let o =
        Projection.project_exn ~check:false schema ~view:"s7" ~source:(ty "A")
          ~projection:[ at "x" ] ()
      in
      let count transparent =
        let d =
          Dispatch.create ~surrogate_transparent:transparent o.schema
        in
        let d0 = Dispatch.create o.before in
        List.length
          (List.filter
             (fun i ->
               let gf = Fmt.str "m%d" i in
               let args = [ ty "A"; ty (Fmt.str "C%d" i) ] in
               let pick d =
                 Option.map Method_def.key (Dispatch.most_specific d ~gf ~arg_types:args)
               in
               not (Option.equal Method_def.Key.equal (pick d0) (pick d)))
             (List.init k (fun i -> i)))
      in
      let naive = count false and transparent = count true in
      row4 (string_of_int k) (string_of_int naive) (string_of_int transparent)
        (verdict (naive = k && transparent = 0)))
    [ 1; 5; 10; 25; 50 ]

(* ------------------------------------------------------------------ *)
(* S8: durable-store recovery throughput                               *)
(* ------------------------------------------------------------------ *)

module Txn_log = Tdp_txn.Txn_log

(* [store_fixture n] builds a database of [n] Employee objects over the
   fig1 schema and returns, alongside the schema, the two on-disk images
   recovery consumes: the snapshot text (Dump grammar) and a txn.log of
   one [begin]/[op]/[commit] bracket per creation — the records a served
   single-op commit or an [odb store append] op writes. *)
let store_fixture n =
  let o = Fig1.project () in
  let db = Tdp_store.Database.create o.schema in
  let buf = Buffer.create (n * 128) in
  for i = 0 to n - 1 do
    let op =
      Tdp_store.Database.Op_new
        { oid = Tdp_store.Oid.of_int (i + 1);
          ty = ty "Employee";
          init =
            [ (at "ssn", Tdp_store.Value.Int i);
              (at "date_of_birth", Tdp_store.Value.Date (1950 + (i mod 60)));
              (at "pay_rate", Tdp_store.Value.Float (10.0 +. float_of_int (i mod 7)));
              (at "hrs_worked", Tdp_store.Value.Float 40.0)
            ]
        }
    in
    Tdp_store.Wal.apply db op;
    let txid = i + 1 in
    List.iteri
      (fun k r -> Buffer.add_string buf (Txn_log.encode ~seq:((3 * i) + k + 1) r))
      [ Txn_log.Begin { txid; branch = "main" };
        Txn_log.Op { txid; op };
        Txn_log.Commit { txid }
      ]
  done;
  (o.schema, Tdp_store.Dump.to_string db, Buffer.contents buf)

let bench_snapshot_load schema snapshot () =
  Tdp_store.Dump.load_into (Tdp_store.Database.create schema) snapshot

let bench_wal_replay schema txn () = Tdp_txn.Mvcc.recover_text ~schema ~txn ()

let table_s8 () =
  section "S8: durable-store recovery throughput (snapshot load vs. log replay)";
  row3 "objects" "snapshot load" "log replay";
  List.iter
    (fun n ->
      let schema, snapshot, wal = store_fixture n in
      let t_snap = time_it (bench_snapshot_load schema snapshot) in
      let t_wal = time_it (bench_wal_replay schema wal) in
      let rate t = Fmt.str "%a  (%7.0f objs/s)" pp_time t (float_of_int n /. t) in
      row3 (string_of_int n) (rate t_snap) (rate t_wal))
    [ 100; 1000 ]

(* ------------------------------------------------------------------ *)
(* S9: MVCC commit throughput (in-memory store, fig1 schema)           *)
(* ------------------------------------------------------------------ *)

module Mvcc = Tdp_txn.Mvcc

(* An in-memory MVCC store pre-populated with [n] Employee objects, so
   concurrent writers can update disjoint rows without conflicting. *)
let mvcc_fixture n =
  let o = Fig1.project () in
  let store = Mvcc.create o.schema in
  let t = Mvcc.begin_ store in
  let oids =
    List.map
      (fun i ->
        Mvcc.new_object t (ty "Employee")
          ~init:
            [ (at "ssn", Tdp_store.Value.Int i);
              (at "date_of_birth", Tdp_store.Value.Date (1950 + (i mod 60)));
              (at "pay_rate", Tdp_store.Value.Float 10.0);
              (at "hrs_worked", Tdp_store.Value.Float 40.0)
            ])
      (List.init n (fun i -> i))
  in
  (match Mvcc.commit t with
  | Ok _ -> ()
  | Error e -> failwith (Mvcc.commit_error_message e));
  (store, Array.of_list oids)

(* One update transaction against row [oid]; [false] means the commit
   lost a first-writer-wins race. *)
let commit_once store oid v =
  let t = Mvcc.begin_ store in
  Mvcc.set_attr t oid (at "pay_rate") (Tdp_store.Value.Float v);
  match Mvcc.commit t with Ok _ -> true | Error _ -> false

(* Wall-clock throughput of [workers] domains each committing
   [per_worker] transactions on disjoint rows.  Uses gettimeofday, not
   Sys.time: CPU time sums across domains and would hide the
   parallelism this measures. *)
let concurrent_commits store oids ~workers ~per_worker =
  let conflicts = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker w () =
    let oid = oids.(w) in
    for k = 1 to per_worker do
      if not (commit_once store oid (float_of_int k)) then Atomic.incr conflicts
    done
  in
  let ds = List.init workers (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join ds;
  let dt = Unix.gettimeofday () -. t0 in
  (float_of_int (workers * per_worker) /. dt, Atomic.get conflicts)

let table_s9 () =
  section "S9: MVCC commit throughput (in-memory store, disjoint rows)";
  let store, oids = mvcc_fixture 64 in
  let t_serial = time_it (fun () -> ignore (commit_once store oids.(0) 11.0)) in
  row3 "serial commit"
    (Fmt.str "%a" pp_time t_serial)
    (Fmt.str "(%7.0f txn/s)" (1.0 /. t_serial));
  row3 "writer domains" "throughput" "conflicts";
  List.iter
    (fun w ->
      let rate, conflicts = concurrent_commits store oids ~workers:w ~per_worker:200 in
      row3 (string_of_int w) (Fmt.str "%7.0f txn/s" rate) (string_of_int conflicts))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Schema-index scaling sweep: layered diamond lattices                *)
(* ------------------------------------------------------------------ *)

(* A layered multiple-inheritance lattice: [width] types per layer,
   every type above the first layer inheriting from two types of the
   previous layer (wrapping), so deep diamonds dominate and ancestor
   sets grow to a constant fraction of the hierarchy.  This is the
   worst case for the per-query ancestor-set construction the compiled
   index replaces, and the shape the closure bitset has to absorb. *)
let diamond_hierarchy ?(width = 10) n =
  let name i = ty (Fmt.str "N%d" i) in
  let rec go h i =
    if i >= n then h
    else
      let supers =
        if i < width then []
        else
          let p = i mod width and base = ((i / width) - 1) * width in
          [ (name (base + p), 1); (name (base + ((p + 1) mod width)), 2) ]
      in
      go (Hierarchy.add h (Type_def.make ~supers (name i))) (i + 1)
  in
  go Hierarchy.empty 0

(* Deterministic query mix (an LCG, so every run and both sides of a
   comparison measure the same pairs). *)
let query_pairs n k =
  let state = ref 1 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  List.init k (fun _ ->
      let a = next () mod n in
      let b = next () mod n in
      (a, b))

let ns t = t *. 1e9

type sweep_point = {
  sw_n : int;
  sw_build_ns : float;  (* one Schema_index.compile *)
  sw_index_ns : float;  (* one subtype query, compiled index *)
  sw_cached_set_ns : float;  (* one query via memoized ancestor sets *)
  sw_set_ns : float;  (* one query via per-query Hierarchy.subtype *)
}

let sweep_queries = 512

let sweep_point n =
  let h = diamond_hierarchy n in
  let idx = Schema_index.compile h in
  let queries =
    List.map
      (fun (a, b) -> (Schema_index.name idx a, Schema_index.name idx b))
      (query_pairs n sweep_queries)
  in
  let per_query t = ns t /. float_of_int sweep_queries in
  let t_build = time_it (fun () -> Schema_index.compile h) in
  let t_index =
    time_it (fun () ->
        List.iter (fun (a, b) -> ignore (Schema_index.subtype idx a b)) queries)
  in
  (* the pre-index cached-set strategy: memoize one Type_name.Set of
     ancestors per queried type, then test membership *)
  let t_cached_set =
    time_it (fun () ->
        List.iter
          (fun (a, b) ->
            ignore (Type_name.Set.mem b (Schema_index.ancestor_set idx a)))
          queries)
  in
  (* the uncached strategy the acceptance criterion bans from hot
     paths: build the ancestor set afresh on every query *)
  let t_set =
    time_it (fun () ->
        List.iter (fun (a, b) -> ignore (Hierarchy.subtype h a b)) queries)
  in
  { sw_n = n;
    sw_build_ns = ns t_build;
    sw_index_ns = per_query t_index;
    sw_cached_set_ns = per_query t_cached_set;
    sw_set_ns = per_query t_set
  }

let sweep_sizes ~small = if small then [ 100; 400 ] else [ 100; 1000; 5000 ]

(* ------------------------------------------------------------------ *)
(* S10: columnar extent engine vs. the map-backed store it replaced    *)
(* ------------------------------------------------------------------ *)

(* The pre-columnar store kept one attribute map per object in a single
   object table and answered extents by scanning the whole table.
   [Mapstore] transcribes that representation so the sweep measures the
   struct-of-arrays layout against the design it replaced, on identical
   data.  Its predicate path is even cheaper than the old generic
   [Pred.eval] (a hand-specialized closure over the slot map), so the
   measured speedups are conservative. *)
module Mapstore = struct
  type obj = { mo_ty : Type_name.t; mo_slots : Tdp_store.Value.t Attr_name.Map.t }

  type t = {
    ms_index : Schema_index.t;
    ms_objects : (int, obj) Hashtbl.t;
    mutable ms_next : int;
  }

  let create schema n =
    { ms_index = Schema_index.compile (Schema.hierarchy schema);
      ms_objects = Hashtbl.create (max 16 n);
      ms_next = 1
    }

  let insert t ty_ init =
    let slots =
      List.fold_left
        (fun m (a, v) -> Attr_name.Map.add a v m)
        Attr_name.Map.empty init
    in
    let oid = t.ms_next in
    t.ms_next <- oid + 1;
    Hashtbl.replace t.ms_objects oid { mo_ty = ty_; mo_slots = slots }

  (* the old [Database.extent]: descendant set, whole-table scan, sort *)
  let extent t nm =
    let desc =
      Type_name.Set.of_list (Schema_index.descendants_or_self t.ms_index nm)
    in
    List.sort compare
      (Hashtbl.fold
         (fun oid o acc ->
           if Type_name.Set.mem o.mo_ty desc then oid :: acc else acc)
         t.ms_objects [])

  (* the old per-row predicate path: extent, then slot-map lookups *)
  let scan t nm pred =
    List.filter
      (fun oid -> pred (Hashtbl.find t.ms_objects oid).mo_slots)
      (extent t nm)
end

let employee_init i =
  [ (at "ssn", Tdp_store.Value.Int i);
    (at "date_of_birth", Tdp_store.Value.Date (1950 + (i mod 60)));
    (at "pay_rate", Tdp_store.Value.Float (10.0 +. float_of_int (i mod 7)));
    (at "hrs_worked", Tdp_store.Value.Float 40.0)
  ]

let columnar_fixture n =
  let o = Fig1.project () in
  let db = Tdp_store.Database.create o.schema in
  Tdp_store.Database.reserve db n;
  for i = 0 to n - 1 do
    ignore (Tdp_store.Database.new_object db (ty "Employee") ~init:(employee_init i))
  done;
  (o.schema, db)

let mapstore_fixture schema n =
  let ms = Mapstore.create schema n in
  for i = 0 to n - 1 do
    Mapstore.insert ms (ty "Employee") (employee_init i)
  done;
  ms

(* ~4/7 selective conjunction over two unboxed float columns *)
let sweep_pred =
  Tdp_algebra.Pred.(
    And
      ( Cmp { attr = at "pay_rate"; op = Ge; value = Body.Float 13.0 },
        Cmp { attr = at "hrs_worked"; op = Eq; value = Body.Float 40.0 } ))

(* the same predicate, hand-specialized for the map-backed side *)
let sweep_pred_map slots =
  (match Attr_name.Map.find_opt (at "pay_rate") slots with
  | Some (Tdp_store.Value.Float v) -> v >= 13.0
  | _ -> false)
  && (match Attr_name.Map.find_opt (at "hrs_worked") slots with
     | Some (Tdp_store.Value.Float v) -> Float.equal v 40.0
     | _ -> false)

type col_point = {
  cp_n : int;
  cp_extent_ns : float;  (* columnar deep extent of Person, one call *)
  cp_extent_map_ns : float;
  cp_scan_ns : float;  (* compiled predicate scan over Employee, one call *)
  cp_scan_map_ns : float;
  cp_mv_steady_ns : float;  (* matview refresh, all rows clean *)
  cp_mv_force_ns : float;  (* matview refresh, stamp skipping disabled *)
}

let columnar_point n =
  let person = ty "Person" and employee = ty "Employee" in
  (* Each design is measured against its own heap: the boxed slot maps
     of the map-backed mirror tax every allocation made while they are
     live (major-GC marking debt is proportional to the live heap), and
     that debt belongs to the map design, not to whoever happens to
     allocate next.  So: columnar side first, then the mirror, with a
     full collection at each hand-off. *)
  let schema, db = columnar_fixture n in
  Gc.full_major ();
  let t_extent = time_it (fun () -> Tdp_store.Database.extent db person) in
  let t_scan = time_it (fun () -> Tdp_algebra.Pred.scan db employee sweep_pred) in
  let t_extent_map, t_scan_map =
    let ms = mapstore_fixture schema n in
    Gc.full_major ();
    let t_extent_map = time_it (fun () -> Mapstore.extent ms person) in
    let t_scan_map = time_it (fun () -> Mapstore.scan ms employee sweep_pred_map) in
    (t_extent_map, t_scan_map)
  in
  (* view maintenance over the same rows: Employee_hat copies of every
     Employee.  The steady refresh sees only clean row stamps; [force]
     re-diffs every pair, which is what every refresh cost before dirty
     tracking.  Measured last — the copies would pollute the extents
     (the mirror is unreachable by now; collect it). *)
  Gc.full_major ();
  let mv =
    Tdp_algebra.Matview.create db ~view_type:(ty "Employee_hat")
      (Tdp_algebra.View.Project (Tdp_algebra.View.Base employee, Fig1.projection))
  in
  let t_steady = time_it (fun () -> Tdp_algebra.Matview.refresh db mv) in
  let t_force = time_it (fun () -> Tdp_algebra.Matview.refresh ~force:true db mv) in
  { cp_n = n;
    cp_extent_ns = ns t_extent;
    cp_extent_map_ns = ns t_extent_map;
    cp_scan_ns = ns t_scan;
    cp_scan_map_ns = ns t_scan_map;
    cp_mv_steady_ns = ns t_steady;
    cp_mv_force_ns = ns t_force
  }

(* 100k is in every mode: the acceptance floors are keyed on it. *)
let columnar_sizes ~small =
  if small then [ 1_000; 100_000 ] else [ 1_000; 100_000; 1_000_000 ]

let table_s10 () =
  section "S10: columnar extents vs. map-backed store (fig1 Employees)";
  row4 "objects" "extent col | map" "pred-scan col | map" "matview steady | force";
  let pair a b =
    Fmt.str "%a |%a (%5.1fx)" pp_time (a /. 1e9) pp_time (b /. 1e9) (b /. a)
  in
  List.iter
    (fun n ->
      let p = columnar_point n in
      row4 (string_of_int n)
        (pair p.cp_extent_ns p.cp_extent_map_ns)
        (pair p.cp_scan_ns p.cp_scan_map_ns)
        (pair p.cp_mv_steady_ns p.cp_mv_force_ns))
    [ 1_000; 100_000 ]

(* ------------------------------------------------------------------ *)
(* S11: replica catch-up throughput and routed-extent fan-out          *)
(* ------------------------------------------------------------------ *)

module Replica = Tdp_replica.Replica
module Router = Tdp_replica.Router
module Server = Tdp_txn.Server

(* A scratch directory that is removed with everything in it. *)
let with_bench_dir f =
  let dir = Filename.temp_file "tdp_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () -> f dir)

type rep_point = {
  rp_n : int;
  rp_ship_ns : float;  (* open + drain the whole log, per shipped creation *)
  rp_idle_ns : float;  (* one caught-up poll: the steady-state heartbeat *)
}

(* The shipping workload: a primary directory whose txn.log holds [n]
   one-creation brackets, drained by a fresh replica.  Per-creation cost
   is the replica's catch-up rate — the bound on how fast lag burns
   down. *)
let replica_point n =
  with_bench_dir (fun dir ->
      let schema, _snapshot, txn = store_fixture n in
      Out_channel.with_open_bin (Filename.concat dir "txn.log") (fun oc ->
          Out_channel.output_string oc txn);
      let t_ship =
        time_it (fun () ->
            let r = Replica.open_ ~schema dir in
            let shipped = Replica.poll r in
            Replica.close r;
            assert (shipped = 3 * n))
      in
      let r = Replica.open_ ~schema dir in
      ignore (Replica.poll r);
      let t_idle = time_it (fun () -> Replica.poll r) in
      Replica.close r;
      { rp_n = n;
        rp_ship_ns = ns t_ship /. float_of_int n;
        rp_idle_ns = ns t_idle
      })

(* Two live shards behind the OID-range router, over Unix sockets.
   [router/extent] is one fanned-out deep extent, merged in global OID
   order; [direct] is the same extent against a single backend holding
   all the rows — the delta is what the fan-out and merge cost. *)
let router_point n =
  let shard lo hi =
    let db = Tdp_store.Database.create Fig1.schema in
    for i = lo to hi do
      Tdp_store.Wal.apply db
        (Tdp_store.Database.Op_new
           { oid = Tdp_store.Oid.of_int i;
             ty = ty "Employee";
             init = [ (at "ssn", Tdp_store.Value.Int i) ]
           })
    done;
    Mvcc.of_database db
  in
  let serve store =
    let path = Filename.temp_file "tdp_bshard" ".sock" in
    Sys.remove path;
    Server.start ~domains:2 ~store (Unix.ADDR_UNIX path)
  in
  let sock srv =
    match Server.sockaddr srv with Unix.ADDR_UNIX p -> p | _ -> assert false
  in
  let half = n / 2 in
  let s1 = serve (shard 1 half) in
  let s2 = serve (shard (half + 1) n) in
  let s_all = serve (shard 1 n) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop s1;
      Server.stop s2;
      Server.stop s_all)
    (fun () ->
      let router =
        match
          Router.make
            [ { Router.b_name = "s1";
                b_lo = 1;
                b_hi = half;
                b_addr = Unix.ADDR_UNIX (sock s1)
              };
              { Router.b_name = "s2";
                b_lo = half + 1;
                b_hi = max_int;
                b_addr = Unix.ADDR_UNIX (sock s2)
              }
            ]
        with
        | Ok r -> r
        | Error m -> failwith m
      in
      let rs = Router.session router in
      let direct = Server.connect (Unix.ADDR_UNIX (sock s_all)) in
      Fun.protect
        ~finally:(fun () ->
          Router.close_session rs;
          Server.close_client direct)
        (fun () ->
          let t_routed =
            time_it (fun () -> Router.handle_line rs "extent Person")
          in
          let t_direct = time_it (fun () -> Server.request direct "extent Person") in
          let t_get =
            time_it (fun () -> Router.handle_line rs (Fmt.str "get #%d ssn" n))
          in
          (t_routed, t_direct, t_get)))

(* The statement language's eval hot path (odb repl / server eval /
   Session API): [typecheck] is one non-scanning statement — parse
   once, then resolve + principal inference against the live schema;
   [extent] is one selecting extent statement over [n] Employees,
   reported per row.  Both run on a warm Session over a Database. *)
let session_point n =
  let db = Tdp_store.Database.create Fig1.schema in
  for i = 1 to n do
    Tdp_store.Wal.apply db
      (Tdp_store.Database.Op_new
         { oid = Tdp_store.Oid.of_int i;
           ty = ty "Employee";
           init =
             [ (at "ssn", Tdp_store.Value.Int i);
               (at "pay_rate", Tdp_store.Value.Float (float_of_int (i mod 200)))
             ]
         })
  done;
  let s = Tdp_lang.Session.of_database db in
  let stmt src =
    match Tdp_lang.Stmt.parse_string src with
    | [ st ] -> st
    | _ -> assert false
  in
  let type_stmt =
    stmt ":type select project Employee on [ssn, pay_rate] where pay_rate < 100.0"
  in
  let extent_stmt = stmt ":extent select Employee where pay_rate < 100.0" in
  let check o = assert (not (Tdp_lang.Session.failed o)) in
  check (Tdp_lang.Session.eval s type_stmt);
  check (Tdp_lang.Session.eval s extent_stmt);
  let t_type = time_it (fun () -> Tdp_lang.Session.eval s type_stmt) in
  let t_extent = time_it (fun () -> Tdp_lang.Session.eval s extent_stmt) in
  (t_type, t_extent)

(* ------------------------------------------------------------------ *)
(* S12: MVCC snapshot reads over the columnar base                      *)
(* ------------------------------------------------------------------ *)

(* A snapshot's selections run [Pred.scan] over its immutable base and
   a per-row test over its delta, so on the same rows they must stay
   close to a bare scan.  [n] named Employees (ssn = 0..n-1) become the first
   base of an in-memory store; [delta] committed updates then sit in
   the head's delta (below the compaction threshold). *)
type mvcc_point = {
  mp_n : int;
  mp_delta : int;
  mp_eq_ns : float;  (* Mvcc.instances, one-row ssn == k *)
  mp_eq_scan_ns : float;  (* Pred.scan of the same predicate over the base *)
  mp_range_ns : float;  (* Mvcc.instances, ssn < n/200 *)
  mp_range_scan_ns : float;
  mp_get_ns : float;  (* Mvcc.get_attr, one read *)
  mp_compact_ns : float;  (* one compaction of base + delta *)
}

let mvcc_point ~n ~delta =
  let employee = ty "Employee" in
  (* distinct names, as a served store holds: a compaction copies the
     string pool too *)
  let db = Tdp_store.Database.create (Fig1.project ()).schema in
  Tdp_store.Database.reserve db n;
  for i = 0 to n - 1 do
    ignore
      (Tdp_store.Database.new_object db employee
         ~init:((at "name", Tdp_store.Value.String (Fmt.str "e%07d" i)) :: employee_init i))
  done;
  let store = Mvcc.of_database db in
  (* the updates set hrs_worked on [delta] distinct rows, in
     transactions of 8 *)
  let rec commit_updates k =
    if k < delta then begin
      let t = Mvcc.begin_ store in
      for j = k to min delta (k + 8) - 1 do
        Mvcc.set_attr t
          (Tdp_store.Oid.of_int (1 + (j * 7919 mod n)))
          (at "hrs_worked") (Tdp_store.Value.Float 41.0)
      done;
      (match Mvcc.commit t with
      | Ok _ -> ()
      | Error e -> failwith (Mvcc.commit_error_message e));
      commit_updates (k + 8)
    end
  in
  commit_updates 0;
  let snap = Mvcc.head store ~branch:Mvcc.main_branch in
  let cmp op v =
    Tdp_algebra.Pred.Cmp { attr = at "ssn"; op; value = Body.Int v }
  in
  let eq = cmp Eq (n / 2) and range = cmp Lt (n / 200) in
  let select p = Tdp_algebra.View.Select (Tdp_algebra.View.Base employee, p) in
  (* the snapshot's answer must be the scan's: no update touches ssn *)
  assert (Mvcc.instances snap (select eq) = Tdp_algebra.Pred.scan db employee eq);
  Gc.full_major ();
  (* The floors compare two timings, so they are taken in alternation,
     five rounds each, and each side's median kept: a drift in the
     machine's speed then moves both sides, not the ratio. *)
  let paired a b =
    let rounds = List.init 5 (fun _ -> (time_it a, time_it b)) in
    let med l = List.nth (List.sort Float.compare l) 2 in
    (med (List.map fst rounds), med (List.map snd rounds))
  in
  let t_eq, t_eq_scan =
    paired
      (fun () -> Mvcc.instances snap (select eq))
      (fun () -> Tdp_algebra.Pred.scan db employee eq)
  in
  let t_range, t_range_scan =
    paired
      (fun () -> Mvcc.instances snap (select range))
      (fun () -> Tdp_algebra.Pred.scan db employee range)
  in
  let k = ref 0 in
  let t_get =
    time_it (fun () ->
        k := (!k + 7919) mod n;
        Mvcc.get_attr snap (Tdp_store.Oid.of_int (1 + !k)) (at "ssn"))
  in
  let t_compact = time_it (fun () -> Mvcc.to_database snap) in
  { mp_n = n;
    mp_delta = delta;
    mp_eq_ns = ns t_eq;
    mp_eq_scan_ns = ns t_eq_scan;
    mp_range_ns = ns t_range;
    mp_range_scan_ns = ns t_range_scan;
    mp_get_ns = ns t_get;
    mp_compact_ns = ns t_compact
  }

(* 100k rows (20k under --small), 1% of them in the delta *)
let mvcc_bench ~small =
  let n = if small then 20_000 else 100_000 in
  mvcc_point ~n ~delta:(n / 100)

let table_s12 () =
  section "S12: MVCC snapshot reads over the columnar base (fig1 Employees)";
  let p = mvcc_bench ~small:false in
  row3 "objects / delta" (Fmt.str "%d / %d" p.mp_n p.mp_delta) "";
  row3 "select ssn == k" (Fmt.str "%a" pp_time (p.mp_eq_ns /. 1e9))
    (Fmt.str "Pred.scan %a" pp_time (p.mp_eq_scan_ns /. 1e9));
  row3 "select ssn < n/200" (Fmt.str "%a" pp_time (p.mp_range_ns /. 1e9))
    (Fmt.str "Pred.scan %a" pp_time (p.mp_range_scan_ns /. 1e9));
  row3 "get_attr" (Fmt.str "%a" pp_time (p.mp_get_ns /. 1e9)) "";
  row3 "compaction" (Fmt.str "%a" pp_time (p.mp_compact_ns /. 1e9)) ""

(* ------------------------------------------------------------------ *)
(* S13: selection kernels, one Pred.scan per predicate shape          *)
(* ------------------------------------------------------------------ *)

(* [Pred.scan] runs each comparison atom as one typed loop over a
   selection vector; these shapes cover an integer equality (one row
   out), a float range (two float atoms under [And]) and [Or]/[Not]
   over three column kinds.  Over S10's fixture: ssn = i,
   pay_rate = 10 + i mod 7, date_of_birth = 1950 + i mod 60. *)
type kernel_point = {
  kp_n : int;
  kp_int_eq_ns : float;  (* ssn == n/2 *)
  kp_float_range_ns : float;  (* pay_rate >= 11.0 and pay_rate < 14.0 *)
  kp_and_or_ns : float;  (* ssn < n/2 and (pay_rate == 10.0 or not dob < 1980) *)
}

let kernel_point n =
  let _, db = columnar_fixture n in
  let employee = ty "Employee" in
  let open Tdp_algebra.Pred in
  let c a op value = Cmp { attr = at a; op; value } in
  let int_eq = c "ssn" Eq (Body.Int (n / 2)) in
  let float_range =
    And (c "pay_rate" Ge (Body.Float 11.0), c "pay_rate" Lt (Body.Float 14.0))
  in
  let and_or =
    And
      ( c "ssn" Lt (Body.Int (n / 2)),
        Or (c "pay_rate" Eq (Body.Float 10.0), Not (c "date_of_birth" Lt (Body.Int 1980))) )
  in
  Gc.full_major ();
  let t p = ns (time_it (fun () -> scan db employee p)) in
  { kp_n = n;
    kp_int_eq_ns = t int_eq;
    kp_float_range_ns = t float_range;
    kp_and_or_ns = t and_or
  }

(* 100k rows (20k under --small), as S12 *)
let kernel_bench ~small = kernel_point (if small then 20_000 else 100_000)

let table_s13 () =
  section "S13: selection kernels (fig1 Employees, one Pred.scan)";
  let p = kernel_bench ~small:false in
  row3 "objects" (string_of_int p.kp_n) "";
  row3 "ssn == n/2" (Fmt.str "%a" pp_time (p.kp_int_eq_ns /. 1e9)) "";
  row3 "11.0 <= pay_rate < 14.0" (Fmt.str "%a" pp_time (p.kp_float_range_ns /. 1e9)) "";
  row3 "and / or / not" (Fmt.str "%a" pp_time (p.kp_and_or_ns /. 1e9)) ""

(* ------------------------------------------------------------------ *)
(* S14: served extent replies, rendered straight into the reply         *)
(* ------------------------------------------------------------------ *)

(* A served [:extent] of 500 rows, as loadbench's scan-eval sends it:
   [n] named fig1 Employees, every (n/500)-th paid below 1.0, in an
   in-memory store behind one server session.  Beside the time, the
   words one request allocates ([Gc.counters] deltas, averaged). *)
type reply_point = {
  rp_n : int;
  rp_scan_ns : float;  (* Server.handle_line of the 500-row scan *)
  rp_minor_words : float;  (* per request *)
  rp_major_words : float;  (* per request, promoted words included *)
  rp_float_ns : float;  (* Value.add_to_buffer of one float, over 1,000 *)
}

let reply_rows = 500

let reply_point n =
  let employee = ty "Employee" in
  let db = Tdp_store.Database.create (Fig1.project ()).schema in
  Tdp_store.Database.reserve db n;
  let step = n / reply_rows in
  for i = 0 to n - 1 do
    let pay =
      if i mod step = 0 then 0.25 *. float_of_int (1 + (i / step mod 3))
      else 10.0 +. (float_of_int (i * 7919 mod 9000) /. 100.0)
    in
    ignore
      (Tdp_store.Database.new_object db employee
         ~init:
           [ (at "ssn", Tdp_store.Value.Int i);
             (at "name", Tdp_store.Value.String (Fmt.str "e%06d" i));
             (at "date_of_birth", Tdp_store.Value.Date (1950 + (i mod 60)));
             (at "pay_rate", Tdp_store.Value.Float pay);
             (at "hrs_worked", Tdp_store.Value.Float 40.0)
           ])
  done;
  let session = Tdp_txn.Server.session ~store:(Mvcc.of_database db) () in
  let line = "eval \":extent select Employee where pay_rate < 1.0\"" in
  let request () = Tdp_txn.Server.handle_line session line in
  let head = Fmt.str "ok \"extent: %d\\n#" reply_rows in
  assert (String.sub (request ()) 0 (String.length head) = head);
  let reps = 200 in
  let minor0, _, major0 = Gc.counters () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (request ()))
  done;
  let minor1, _, major1 = Gc.counters () in
  let floats =
    Array.init 1_000 (fun i ->
        Tdp_store.Value.Float
          (if i mod 4 = 0 then 0.25 *. float_of_int (1 + (i mod 3))
           else 10.0 +. (float_of_int (i * 7919 mod 9000) /. 100.0)))
  in
  let b = Buffer.create 16_384 in
  let t_floats =
    time_it (fun () ->
        Buffer.clear b;
        Array.iter (Tdp_store.Value.add_to_buffer b) floats)
  in
  { rp_n = n;
    rp_scan_ns = ns (time_it request);
    rp_minor_words = (minor1 -. minor0) /. float_of_int reps;
    rp_major_words = (major1 -. major0) /. float_of_int reps;
    rp_float_ns = ns t_floats /. float_of_int (Array.length floats)
  }

(* 100k rows (20k under --small), as S12 *)
let reply_bench ~small = reply_point (if small then 20_000 else 100_000)

let table_s14 () =
  section "S14: served extent replies (fig1 Employees, one server session)";
  let p = reply_bench ~small:false in
  row3 "objects" (string_of_int p.rp_n) "";
  row3 "500-row :extent"
    (Fmt.str "%a" pp_time (p.rp_scan_ns /. 1e9))
    (Fmt.str "%.0f minor / %.0f major words" p.rp_minor_words p.rp_major_words);
  row3 "one float, %.6g" (Fmt.str "%a" pp_time (p.rp_float_ns /. 1e9)) ""

let table_s11 () =
  section "S11: replica catch-up and routed extents (fig1 Employees)";
  row3 "shipped creations" "catch-up per creation" "idle poll";
  List.iter
    (fun n ->
      let p = replica_point n in
      row3 (string_of_int n)
        (Fmt.str "%a  (%7.0f obj/s)" pp_time (p.rp_ship_ns /. 1e9)
           (1e9 /. p.rp_ship_ns))
        (Fmt.str "%a" pp_time (p.rp_idle_ns /. 1e9)))
    [ 100; 1000 ];
  row3 "rows (2 shards)" "routed extent | direct" "routed get";
  List.iter
    (fun n ->
      let t_routed, t_direct, t_get = router_point n in
      row3 (string_of_int n)
        (Fmt.str "%a |%a (%4.1fx)" pp_time t_routed pp_time t_direct
           (t_routed /. t_direct))
        (Fmt.str "%a" pp_time t_get))
    [ 1000 ]

(* ------------------------------------------------------------------ *)
(* JSON baseline: cached vs. uncached hot paths (docs/performance.md)  *)
(* ------------------------------------------------------------------ *)

(* The report is the machine-readable perf trajectory of the repo: one
   BENCH_<pr>.json per PR that touches a hot path.  Keep the shape
   stable — field additions are fine, renames are not. *)

type entry = { name : string; ns_per_op : float }

type speedup = {
  s_name : string;
  uncached_ns : float;
  cached_ns : float;
  ops : int;  (* distinct operations per measured iteration *)
}

(* A dispatch workload: every method's own parameter tuple is a valid
   call of its generic function, giving a realistic mix of arities and
   candidate-set sizes over one schema.  Calls whose argument types
   have no consistent linearization (possible under random multiple
   inheritance) cannot be ranked and are skipped. *)
let dispatch_workload schema =
  let h = Schema.hierarchy schema in
  let linearizes t = match Linearize.cpl_result h t with Ok _ -> true | Error _ -> false in
  List.filter_map
    (fun m ->
      let tys = Signature.param_types (Method_def.signature m) in
      if List.for_all linearizes tys then Some (Method_def.gf m, tys) else None)
    (Schema.all_methods schema)

(* Many views of one schema, as `odb lint` and the S-tables issue them:
   k distinct projections of the same source type. *)
let multi_view_workload schema k =
  let source, all = Synth.gen_projection ~seed:1 schema in
  let n = List.length all in
  List.init k (fun i ->
      let proj =
        if i = 0 || n = 1 then all
        else List.filteri (fun j _ -> j <> i mod n) all
      in
      (source, proj))

(* Single inheritance keeps every type linearizable, so the whole
   method population is a usable dispatch workload. *)
let synth_linear m =
  Synth.generate
    { Synth.default with
      n_types = 16;
      max_supers = 1;
      n_gfs = max 1 (m / 5);
      methods_per_gf = 5;
      calls_per_body = 3;
      seed = 11
    }

let json_report ~small =
  (* guarded measurements run with the registry off — the gate verifies
     the instrumentation is free when disabled *)
  Obs.Metrics.disable ();
  let methods = if small then 40 else 160 in
  let n_views = if small then 4 else 12 in
  let schema = synth_linear methods in
  let calls = dispatch_workload schema in
  let n_calls = List.length calls in
  (* repeated dispatch: rank candidates per call vs. hit the table *)
  let d = Dispatch.create schema in
  let run_uncached () =
    List.iter
      (fun (gf, arg_types) -> ignore (Dispatch.applicable_uncached d ~gf ~arg_types))
      calls
  in
  let run_cached () =
    List.iter
      (fun (gf, arg_types) -> ignore (Dispatch.applicable d ~gf ~arg_types))
      calls
  in
  run_cached () (* steady state: table populated *)
  ;
  let t_disp_un = time_it run_uncached and t_disp_ca = time_it run_cached in
  (* multi-view applicability: fresh state per view vs. one shared batch *)
  let views = multi_view_workload schema n_views in
  let t_views_un =
    time_it (fun () ->
        List.map
          (fun (source, projection) ->
            Applicability.analyze_exn schema ~source ~projection)
          views)
  in
  let t_views_ca = time_it (fun () -> Applicability.analyze_all_exn schema ~views) in
  let source1, proj1 = List.hd views in
  let t_single =
    time_it (fun () -> Applicability.analyze_exn schema ~source:source1 ~projection:proj1)
  in
  (* pipeline inference: solve the same multi-view workload as one
     program, then check each principal against the schema *)
  let infer_program_of vs =
    List.map
      (fun (i, (source, projection)) ->
        (Fmt.str "v%d" i,
         Tdp_infer.Pipeline.Project (Tdp_infer.Pipeline.Source source, projection)))
      (List.mapi (fun i v -> (i, v)) vs)
  in
  let inf_prog = infer_program_of views in
  let t_infer = time_it (fun () -> ignore (Tdp_infer.Infer.infer_program inf_prog)) in
  let principals =
    List.filter_map
      (fun (_, r) -> Result.to_option r)
      (Tdp_infer.Infer.infer_program inf_prog)
  in
  let t_admit =
    time_it (fun () ->
        List.iter (fun p -> ignore (Tdp_infer.Infer.admits schema p)) principals)
  in
  let stats = Dispatch.stats d in
  (* durable-store recovery throughput: load one snapshot image /
     replay one txn.log of single-creation brackets, per object *)
  let store_n = if small then 200 else 1000 in
  let s_schema, s_snapshot, s_wal = store_fixture store_n in
  let t_snap = time_it (bench_snapshot_load s_schema s_snapshot) in
  let t_wal = time_it (bench_wal_replay s_schema s_wal) in
  let per_obj t = ns t /. float_of_int store_n in
  let objs_per_sec t = float_of_int store_n /. t in
  (* MVCC commit throughput: one serial committer, then 8 writer
     domains on disjoint rows (wall clock — see concurrent_commits) *)
  let txn_workers = 8 in
  let txn_per_worker = if small then 50 else 200 in
  let tstore, toids = mvcc_fixture 64 in
  let t_commit = time_it (fun () -> ignore (commit_once tstore toids.(0) 11.0)) in
  let txn_rate, txn_conflicts =
    (* one wall-clock sample of 8 domains swings ~6x on a 2-vCPU host:
       like [time_it], take the median of five runs, each after a full
       major collection *)
    List.init 5 (fun _ ->
        Gc.full_major ();
        concurrent_commits tstore toids ~workers:txn_workers ~per_worker:txn_per_worker)
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    |> fun runs -> List.nth runs 2
  in
  (* observability: cost of the disabled gates on the hot-path wrappers,
     cost of a live observation, and a registry snapshot taken from one
     instrumented pass over the same workloads *)
  let obs_h = Obs.Metrics.histogram "bench.probe_ns" in
  let t_time_off = time_it (fun () -> Obs.Metrics.time obs_h (fun () -> ())) in
  let t_span_off = time_it (fun () -> Obs.Trace.with_span "bench" (fun () -> ())) in
  Obs.Metrics.enable ();
  let t_observe_on = time_it (fun () -> Obs.Metrics.observe obs_h 100.) in
  Obs.Metrics.reset ();
  run_cached ();
  ignore (Applicability.analyze_exn schema ~source:source1 ~projection:proj1);
  List.iter
    (fun p -> ignore (Tdp_infer.Infer.admits schema p))
    (List.filter_map
       (fun (_, r) -> Result.to_option r)
       (Tdp_infer.Infer.infer_program inf_prog));
  ignore (bench_snapshot_load s_schema s_snapshot ());
  ignore (bench_wal_replay s_schema s_wal ());
  let metrics_snapshot = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  let sweep = List.map sweep_point (sweep_sizes ~small) in
  let cols = List.map columnar_point (columnar_sizes ~small) in
  (* replica catch-up and routed extents (S11): fixed at 1000 records
     in both modes so the entry names stay comparable across baselines *)
  let rep = replica_point 1_000 in
  let t_routed, t_direct, _ = router_point 1_000 in
  (* statement-language eval path, fixed at 1000 rows likewise *)
  let repl_n = 1_000 in
  let t_repl_type, t_repl_extent = session_point repl_n in
  (* one checked catalog define over the synth-ddl schema, averaged over
     its 16 view templates; the catalog's schema is recorded checked
     after the first pass, as a served catalog's is *)
  let ddl = synth_ddl () in
  let ddl_catalog = Catalog.create ddl in
  let views = ddl_views ddl in
  let t_define =
    time_it (fun () ->
        List.iter
          (fun (name, expr) -> ignore (Catalog.define_exn ddl_catalog ~name expr))
          views)
    /. float_of_int (List.length views)
  in
  let t_drop = ddl_drop_after_define ddl in
  let t_pairs =
    List.map (fun live -> (live, ddl_define_drop ddl ~live)) [ 0; 8; 64 ]
  in
  (* the acceptance floors for the columnar engine are keyed on the
     100k point, which every mode measures *)
  let c100k = List.find (fun p -> p.cp_n = 100_000) cols in
  let mp = mvcc_bench ~small in
  let kp = kernel_bench ~small in
  let rp = reply_bench ~small in
  (* the smallest sweep point is measured in every mode, so its entries
     carry stable names the --check regression gate can key on *)
  let p0 = List.hd sweep in
  let largest = List.nth sweep (List.length sweep - 1) in
  let entries =
    [ { name = "dispatch/applicable/uncached"; ns_per_op = ns t_disp_un /. float_of_int n_calls };
      { name = "dispatch/applicable/cached"; ns_per_op = ns t_disp_ca /. float_of_int n_calls };
      { name = "applicability/analyze/single-view"; ns_per_op = ns t_single };
      { name = "applicability/analyze-all/per-view";
        ns_per_op = ns t_views_ca /. float_of_int n_views
      };
      { name = "subtype/index"; ns_per_op = p0.sw_index_ns };
      { name = "subtype/cached-set"; ns_per_op = p0.sw_cached_set_ns };
      { name = "subtype/set"; ns_per_op = p0.sw_set_ns };
      { name = "infer/pipeline"; ns_per_op = ns t_infer /. float_of_int n_views };
      { name = "infer/admits";
        ns_per_op = ns t_admit /. float_of_int (max 1 (List.length principals))
      };
      { name = "store/snapshot-load"; ns_per_op = per_obj t_snap };
      { name = "store/wal-replay"; ns_per_op = per_obj t_wal };
      { name = "txn/commit/serial"; ns_per_op = ns t_commit };
      { name = Fmt.str "txn/commit/concurrent-%d" txn_workers;
        ns_per_op = 1e9 /. txn_rate
      };
      { name = "obs/time/disabled"; ns_per_op = ns t_time_off };
      { name = "obs/with_span/disabled"; ns_per_op = ns t_span_off };
      { name = "obs/observe/enabled"; ns_per_op = ns t_observe_on };
      { name = "replica/lag"; ns_per_op = rep.rp_ship_ns };
      { name = "replica/poll-idle"; ns_per_op = rep.rp_idle_ns };
      { name = "router/extent"; ns_per_op = ns t_routed };
      { name = "router/extent/direct"; ns_per_op = ns t_direct };
      { name = "repl/eval/typecheck"; ns_per_op = ns t_repl_type };
      { name = "repl/eval/extent-row";
        ns_per_op = ns t_repl_extent /. float_of_int repl_n
      };
      { name = "projection/define/checked"; ns_per_op = ns t_define };
      { name = "projection/drop/after-define"; ns_per_op = ns t_drop };
      { name = "mvcc/instances/select-eq"; ns_per_op = mp.mp_eq_ns };
      { name = "mvcc/instances/select-range"; ns_per_op = mp.mp_range_ns };
      { name = "mvcc/get_attr"; ns_per_op = mp.mp_get_ns };
      { name = "mvcc/compact"; ns_per_op = mp.mp_compact_ns };
      { name = "scan/pred/int-eq"; ns_per_op = kp.kp_int_eq_ns };
      { name = "scan/pred/float-range"; ns_per_op = kp.kp_float_range_ns };
      { name = "scan/pred/and-or"; ns_per_op = kp.kp_and_or_ns };
      { name = Fmt.str "server/eval/extent-rows=%d" reply_rows; ns_per_op = rp.rp_scan_ns };
      { name = "value/render/float"; ns_per_op = rp.rp_float_ns }
    ]
    @ List.map
        (fun (live, t) ->
          { name = Fmt.str "projection/define-drop/live=%d" live; ns_per_op = ns t })
        t_pairs
    @ List.concat_map
        (fun p ->
          [ { name = Fmt.str "index/build/n=%d" p.sw_n; ns_per_op = p.sw_build_ns };
            { name = Fmt.str "subtype/index/n=%d" p.sw_n; ns_per_op = p.sw_index_ns };
            { name = Fmt.str "subtype/cached-set/n=%d" p.sw_n;
              ns_per_op = p.sw_cached_set_ns
            };
            { name = Fmt.str "subtype/set/n=%d" p.sw_n; ns_per_op = p.sw_set_ns }
          ])
        sweep
    @ List.concat_map
        (fun p ->
          [ { name = Fmt.str "store/extent/columnar/n=%d" p.cp_n;
              ns_per_op = p.cp_extent_ns
            };
            { name = Fmt.str "store/extent/map/n=%d" p.cp_n;
              ns_per_op = p.cp_extent_map_ns
            };
            { name = Fmt.str "scan/pred/columnar/n=%d" p.cp_n;
              ns_per_op = p.cp_scan_ns
            };
            { name = Fmt.str "scan/pred/map/n=%d" p.cp_n;
              ns_per_op = p.cp_scan_map_ns
            };
            { name = Fmt.str "matview/refresh-steady/n=%d" p.cp_n;
              ns_per_op = p.cp_mv_steady_ns
            };
            { name = Fmt.str "matview/refresh-force/n=%d" p.cp_n;
              ns_per_op = p.cp_mv_force_ns
            }
          ])
        cols
  in
  let speedups =
    [ { s_name = "repeated-dispatch";
        uncached_ns = ns t_disp_un /. float_of_int n_calls;
        cached_ns = ns t_disp_ca /. float_of_int n_calls;
        ops = n_calls
      };
      { s_name = "multi-view-applicability";
        uncached_ns = ns t_views_un /. float_of_int n_views;
        cached_ns = ns t_views_ca /. float_of_int n_views;
        ops = n_views
      };
      { s_name = "subtype/index-vs-set";
        uncached_ns = largest.sw_set_ns;
        cached_ns = largest.sw_index_ns;
        ops = sweep_queries
      };
      { s_name = "subtype/index-vs-cached-set";
        uncached_ns = largest.sw_cached_set_ns;
        cached_ns = largest.sw_index_ns;
        ops = sweep_queries
      };
      (* columnar engine headline wins, measured at 100k rows; the
         first two carry the --check acceptance floors *)
      { s_name = "store/extent/columnar-vs-map";
        uncached_ns = c100k.cp_extent_map_ns;
        cached_ns = c100k.cp_extent_ns;
        ops = c100k.cp_n
      };
      { s_name = "scan/pred/columnar-vs-map";
        uncached_ns = c100k.cp_scan_map_ns;
        cached_ns = c100k.cp_scan_ns;
        ops = c100k.cp_n
      };
      { s_name = "matview/steady-vs-force";
        uncached_ns = c100k.cp_mv_force_ns;
        cached_ns = c100k.cp_mv_steady_ns;
        ops = c100k.cp_n
      };
      (* snapshot selections against a bare scan of the same rows; the
         --check floor keeps the snapshot within 2x (speedup >= 0.5) *)
      { s_name = "mvcc/select-eq/scan-vs-snapshot";
        uncached_ns = mp.mp_eq_scan_ns;
        cached_ns = mp.mp_eq_ns;
        ops = mp.mp_n
      };
      { s_name = "mvcc/select-range/scan-vs-snapshot";
        uncached_ns = mp.mp_range_scan_ns;
        cached_ns = mp.mp_range_ns;
        ops = mp.mp_n
      }
    ]
  in
  let buf = Buffer.create 1024 in
  let f v = Fmt.str "%.1f" v in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema_version\": 1,\n";
  Buffer.add_string buf (Fmt.str "  \"suite\": \"tdp-bench\",\n");
  Buffer.add_string buf
    (Fmt.str
       "  \"config\": { \"small\": %b, \"methods\": %d, \"views\": %d, \
        \"sweep_sizes\": [%s], \"sweep_queries\": %d, \
        \"columnar_sizes\": [%s], \"mvcc_rows\": %d, \"mvcc_delta\": %d },\n"
       small methods n_views
       (String.concat ", " (List.map string_of_int (sweep_sizes ~small)))
       sweep_queries
       (String.concat ", " (List.map string_of_int (columnar_sizes ~small)))
       mp.mp_n mp.mp_delta);
  Buffer.add_string buf
    (Fmt.str
       "  \"dispatch_table\": { \"entries\": %d, \"hits\": %d, \"misses\": %d },\n"
       stats.entries stats.hits stats.misses);
  Buffer.add_string buf
    (Fmt.str
       "  \"store\": { \"objects\": %d, \"snapshot_load_objs_per_sec\": %s, \
        \"wal_replay_objs_per_sec\": %s },\n"
       store_n
       (f (objs_per_sec t_snap))
       (f (objs_per_sec t_wal)));
  Buffer.add_string buf
    (Fmt.str
       "  \"txn\": { \"workers\": %d, \"commits\": %d, \"conflicts\": %d, \
        \"commits_per_sec\": %s },\n"
       txn_workers (txn_workers * txn_per_worker) txn_conflicts (f txn_rate));
  Buffer.add_string buf
    (Fmt.str "  \"metrics\": %s,\n"
       (Obs.Json.to_string (Obs.Metrics.to_json metrics_snapshot)));
  Buffer.add_string buf "  \"benchmarks\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Fmt.str "    { \"name\": %S, \"ns_per_op\": %s }%s\n" e.name
           (f e.ns_per_op)
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"speedups\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Fmt.str
           "    { \"name\": %S, \"ops\": %d, \"uncached_ns_per_op\": %s, \
            \"cached_ns_per_op\": %s, \"speedup\": %s }%s\n"
           s.s_name s.ops (f s.uncached_ns) (f s.cached_ns)
           (f (s.uncached_ns /. s.cached_ns))
           (if i = List.length speedups - 1 then "" else ",")))
    speedups;
  Buffer.add_string buf "  ]\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let run_json ~small ~out =
  let report = json_report ~small in
  if out = "-" then print_string report
  else begin
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc report);
    Fmt.pr "wrote %s@." out
  end

(* ------------------------------------------------------------------ *)
(* Bench-regression gate (CI smoke): re-measure in --small mode and    *)
(* compare the guarded benchmarks against a checked-in baseline JSON.  *)
(* ------------------------------------------------------------------ *)

(* Benchmarks whose regression fails the gate.  The 3x tolerance is
   deliberately loose: CI machines are noisy, and the gate exists to
   catch order-of-magnitude losses (an accidentally quadratic path, a
   dropped memo table), not single-digit drift. *)
let guarded_benchmarks =
  [ "dispatch/applicable/cached";
    "subtype/index";
    "infer/pipeline";
    "infer/admits";
    "store/snapshot-load";
    "store/wal-replay";
    (* MVCC commit path: absent from pre-PR-7 baselines, so checks
       against those skip them (the gate's missing-entry rule) *)
    "txn/commit/serial";
    "txn/commit/concurrent-8";
    (* disabled-instrumentation gates: these must stay within noise of
       a bare call; entries absent from older baselines are skipped *)
    "obs/time/disabled";
    "obs/with_span/disabled";
    (* columnar extent engine: absent from pre-PR-8 baselines, so
       checks against those skip them *)
    "store/extent/columnar/n=1000";
    "scan/pred/columnar/n=1000";
    "matview/refresh-steady/n=1000";
    (* replication: catch-up rate per shipped record and one routed
       extent fan-out over two live shards; absent from pre-PR-9
       baselines *)
    "replica/lag";
    "router/extent";
    (* statement-language eval path (repl / Session / server eval);
       absent from pre-PR-10 baselines *)
    "repl/eval/typecheck";
    "repl/eval/extent-row";
    (* a checked view definition, preservation proof included; absent
       from BENCH_10.json and older baselines, first in BENCH_11.json *)
    "projection/define/checked";
    (* a drop right after its define, which restores the recorded
       pre-define schema; first in BENCH_13.json *)
    "projection/drop/after-define";
    (* snapshot reads over the columnar base and one compaction; first
       in BENCH_12.json *)
    "mvcc/instances/select-eq";
    "mvcc/instances/select-range";
    "mvcc/get_attr";
    "mvcc/compact";
    (* selection kernels, one Pred.scan per predicate shape over 20k
       rows; first in BENCH_14.json *)
    "scan/pred/int-eq";
    "scan/pred/float-range";
    "scan/pred/and-or";
    (* a served 500-row extent reply and one float's text; first in
       BENCH_15.json *)
    "server/eval/extent-rows=500";
    "value/render/float"
  ]
let check_tolerance = 3.0

(* Absolute floors the current tree must hold regardless of baseline:
   the columnar engine's reason to exist is these wins, so losing them
   is a gate failure even when no guarded entry regressed.  Keyed on
   the speedup records of the current --small report (both modes
   measure the 100k point).  A snapshot selection must stay within 2x
   of a bare [Pred.scan] over the same rows (speedup >= 0.5). *)
let required_speedups =
  [ ("store/extent/columnar-vs-map", 10.0);
    ("scan/pred/columnar-vs-map", 10.0);
    ("mvcc/select-eq/scan-vs-snapshot", 0.5);
    ("mvcc/select-range/scan-vs-snapshot", 0.5)
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Pull a float field for a named entry out of a report.  The report
   format is ours (json_report above), so a string scan beats hauling
   in a JSON parser the container may not have: find the name, then
   the next occurrence of the field after it. *)
let float_field_of ~json ~field name =
  let needle = Fmt.str "\"name\": %S" name in
  let nlen = String.length needle and len = String.length json in
  let rec find i =
    if i + nlen > len then None
    else if String.sub json i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  Option.bind (find 0) (fun start ->
      let field = Fmt.str "\"%s\": " field in
      let flen = String.length field in
      let rec find_field i =
        if i + flen > len then None
        else if String.sub json i flen = field then Some (i + flen)
        else find_field (i + 1)
      in
      Option.bind (find_field start) (fun v ->
          let stop = ref v in
          while
            !stop < len
            && (match json.[!stop] with '0' .. '9' | '.' | '-' -> true | _ -> false)
          do
            incr stop
          done;
          float_of_string_opt (String.sub json v (!stop - v))))

let ns_per_op_of ~json name = float_field_of ~json ~field:"ns_per_op" name
let speedup_of ~json name = float_field_of ~json ~field:"speedup" name

let run_check ~baseline_file =
  let baseline = read_file baseline_file in
  Fmt.pr "measuring current tree (--small) against %s@." baseline_file;
  let current = json_report ~small:true in
  let failures =
    List.filter_map
      (fun name ->
        match (ns_per_op_of ~json:baseline name, ns_per_op_of ~json:current name) with
        | None, _ ->
            Fmt.pr "  %-32s not in baseline; skipped@." name;
            None
        | _, None -> Some (Fmt.str "%s: missing from current report" name)
        | Some base, Some cur ->
            let ratio = cur /. base in
            Fmt.pr "  %-32s baseline %10.1f ns  current %10.1f ns  (%.2fx)@." name
              base cur ratio;
            if ratio > check_tolerance then
              Some
                (Fmt.str "%s regressed %.2fx (tolerance %.1fx)" name ratio
                   check_tolerance)
            else None)
      guarded_benchmarks
  in
  let floor_failures =
    List.filter_map
      (fun (name, floor) ->
        match speedup_of ~json:current name with
        | None -> Some (Fmt.str "%s: missing from current report" name)
        | Some s ->
            Fmt.pr "  %-32s speedup %8.1fx  (floor %.1fx)@." name s floor;
            if s < floor then
              Some (Fmt.str "%s: %.1fx below required %.1fx" name s floor)
            else None)
      required_speedups
  in
  match failures @ floor_failures with
  | [] ->
      Fmt.pr "bench check OK@.";
      exit 0
  | fs ->
      List.iter (fun f -> Fmt.pr "FAIL: %s@." f) fs;
      exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_flag a = String.length a >= 2 && String.sub a 0 2 = "--" in
  let mode =
    match List.find_opt (fun a -> not (is_flag a)) args with
    | Some m -> m
    | None -> "all"
  in
  let rec out_of = function
    | "--out" :: v :: _ -> v
    | _ :: rest -> out_of rest
    | [] -> "BENCH_15.json"
  in
  let rec check_of = function
    | "--check" :: v :: _ -> Some v
    | _ :: rest -> check_of rest
    | [] -> None
  in
  (match check_of args with
  | Some baseline_file -> run_check ~baseline_file
  | None -> ());
  if List.mem "--json" args then begin
    run_json ~small:(List.mem "--small" args) ~out:(out_of args);
    exit 0
  end;
  if mode = "all" || mode = "tables" then begin
    table_e1_e2 ();
    table_e3 ();
    table_e4 ();
    table_e5 ();
    table_e6 ();
    table_e7 ();
    table_s1 ();
    table_s2 ();
    table_s3 ();
    table_s4 ();
    table_s5 ();
    table_s6 ();
    table_s7 ();
    table_s8 ();
    table_s9 ();
    table_s10 ();
    table_s11 ();
    table_s12 ();
    table_s13 ();
    table_s14 ();
    Fmt.pr "@.done.@."
  end
  else begin
    prerr_endline
      "usage: main.exe [tables] | bench --json [--small] [--out FILE] | bench --check FILE";
    exit 2
  end
