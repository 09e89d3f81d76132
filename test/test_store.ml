open Tdp_core
module Database = Tdp_store.Database
module Value = Tdp_store.Value
module Interp = Tdp_store.Interp
open Helpers

let v_int i = Value.Int i
let v_float f = Value.Float f
let v_date y = Value.Date y
let v_str s = Value.String s

let fig1_db () =
  let db = Database.create Tdp_paper.Fig1.schema in
  let alice =
    Database.new_object db (ty "Employee")
      ~init:
        [ (at "ssn", v_int 111);
          (at "name", v_str "alice");
          (at "date_of_birth", v_date 1990);
          (at "pay_rate", v_float 50.0);
          (at "hrs_worked", v_float 10.0)
        ]
  in
  let bob =
    Database.new_object db (ty "Person")
      ~init:
        [ (at "ssn", v_int 222); (at "name", v_str "bob"); (at "date_of_birth", v_date 2000) ]
  in
  (db, alice, bob)

let test_new_object_and_slots () =
  let db, alice, _ = fig1_db () in
  Alcotest.(check bool) "ssn stored" true
    (Value.equal (Database.get_attr db alice (at "ssn")) (v_int 111));
  Alcotest.(check string) "type" "Employee"
    (Type_name.to_string (Database.type_of db alice));
  Alcotest.(check int) "two objects" 2 (Database.count db)

let test_uninitialized_is_null () =
  let db = Database.create Tdp_paper.Fig1.schema in
  let p = Database.new_object db (ty "Person") ~init:[ (at "ssn", v_int 1) ] in
  Alcotest.(check bool) "name is null" true
    (Value.equal (Database.get_attr db p (at "name")) Value.Null)

let test_type_errors () =
  let db, alice, _ = fig1_db () in
  (match Database.set_attr db alice (at "ssn") (v_str "oops") with
  | exception Database.Store_error _ -> ()
  | () -> Alcotest.fail "string into int slot must fail");
  (match Database.new_object db (ty "Nope") ~init:[] with
  | exception Database.Store_error _ -> ()
  | _ -> Alcotest.fail "unknown type must fail");
  (match Database.new_object db (ty "Person") ~init:[ (at "pay_rate", v_float 1.) ] with
  | exception Database.Store_error _ -> ()
  | _ -> Alcotest.fail "attribute not in state must fail");
  match Database.get_attr db alice (at "nope") with
  | exception Database.Store_error _ -> ()
  | _ -> Alcotest.fail "unknown attribute must fail"

let test_deep_extent () =
  let db, alice, bob = fig1_db () in
  Alcotest.(check int) "Person extent has both" 2
    (List.length (Database.extent db (ty "Person")));
  Alcotest.(check (list int)) "Employee extent"
    [ Tdp_store.Oid.to_int alice ]
    (List.map Tdp_store.Oid.to_int (Database.extent db (ty "Employee")));
  ignore bob

let test_interp_reader_and_method () =
  let db, alice, bob = fig1_db () in
  let i = Interp.create ~now:2026 db in
  Alcotest.(check bool) "age alice = 36" true
    (Value.equal (Interp.call_on i "age" [ alice ]) (v_int 36));
  Alcotest.(check bool) "age bob = 26" true
    (Value.equal (Interp.call_on i "age" [ bob ]) (v_int 26));
  Alcotest.(check bool) "income = 500" true
    (Value.equal (Interp.call_on i "income" [ alice ]) (v_float 500.0));
  Alcotest.(check bool) "promote: old enough, cheap enough" true
    (Value.equal (Interp.call_on i "promote" [ alice ]) (Value.Bool true))

let test_interp_writer () =
  let db, alice, _ = fig1_db () in
  let i = Interp.create db in
  ignore (Interp.call i "set_pay_rate" [ Value.Ref alice; v_float 75.0 ]);
  Alcotest.(check bool) "written" true
    (Value.equal (Database.get_attr db alice (at "pay_rate")) (v_float 75.0))

let test_interp_no_applicable () =
  let db, _, bob = fig1_db () in
  let i = Interp.create db in
  match Interp.call_on i "income" [ bob ] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "income(Person) must fail to dispatch"

(* The dynamic half of the paper's behavior-preservation claim: after
   the projection refactors the schema, every call on pre-existing
   objects returns the same value. *)
let test_behavior_preserved_dynamically () =
  let db, alice, bob = fig1_db () in
  let i = Interp.create ~now:2026 db in
  let before =
    [ Interp.call_on i "age" [ alice ];
      Interp.call_on i "age" [ bob ];
      Interp.call_on i "income" [ alice ];
      Interp.call_on i "promote" [ alice ];
      Interp.call_on i "get_name" [ bob ]
    ]
  in
  let o = Tdp_paper.Fig1.project () in
  Database.set_schema db o.schema;
  let i = Interp.refresh i in
  let after =
    [ Interp.call_on i "age" [ alice ];
      Interp.call_on i "age" [ bob ];
      Interp.call_on i "income" [ alice ];
      Interp.call_on i "promote" [ alice ];
      Interp.call_on i "get_name" [ bob ]
    ]
  in
  Alcotest.(check bool) "same results" true (List.for_all2 Value.equal before after)

let test_view_extent_and_native_instances () =
  let db, alice, bob = fig1_db () in
  let o = Tdp_paper.Fig1.project () in
  Database.set_schema db o.schema;
  (* every Employee is an Employee_hat instance, Persons are not *)
  let view_ext = Database.extent db (ty "Employee_hat") in
  Alcotest.(check bool) "alice in view" true (List.mem alice view_ext);
  Alcotest.(check bool) "bob not in view" false (List.mem bob view_ext);
  (* a native view instance carries only the projected state *)
  let carol =
    Database.new_object db (ty "Employee_hat")
      ~init:
        [ (at "ssn", v_int 333); (at "date_of_birth", v_date 1980);
          (at "pay_rate", v_float 60.0)
        ]
  in
  let i = Interp.create ~now:2026 db in
  Alcotest.(check bool) "age works on a native view instance" true
    (Value.equal (Interp.call_on i "age" [ carol ]) (v_int 46));
  (match Database.get_attr db carol (at "name") with
  | exception Database.Store_error _ -> ()
  | _ -> Alcotest.fail "view instance must not have name");
  (* income depends on hrs_worked, outside the view: no method *)
  match Interp.call_on i "income" [ carol ] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "income must not apply to the view type"

let test_reference_attributes () =
  (* An object-typed attribute accepts subtype instances and rejects
     others. *)
  let s = Tdp_paper.Fig1.schema in
  let s =
    Schema.add_type s
      (Type_def.make
         ~attrs:[ Attribute.make (at "manager") (Value_type.named (ty "Employee")) ]
         (ty "Team"))
  in
  let db = Database.create s in
  let alice =
    Database.new_object db (ty "Employee")
      ~init:[ (at "ssn", v_int 1); (at "pay_rate", v_float 1.0) ]
  in
  let bob = Database.new_object db (ty "Person") ~init:[ (at "ssn", v_int 2) ] in
  let _team =
    Database.new_object db (ty "Team") ~init:[ (at "manager", Value.Ref alice) ]
  in
  match Database.new_object db (ty "Team") ~init:[ (at "manager", Value.Ref bob) ] with
  | exception Database.Store_error _ -> ()
  | _ -> Alcotest.fail "Person is not an Employee"

let test_builtin_arithmetic () =
  let db, alice, _ = fig1_db () in
  let i = Interp.create db in
  ignore i;
  ignore alice;
  (* exercise the builtin evaluator through a synthetic method *)
  let s =
    Schema.add_method (Database.schema db)
      (Method_def.make ~gf:"calc" ~id:"calc"
         ~signature:(Signature.make ~result:Value_type.int [ ("e", ty "Employee") ])
         (General
            [ Body.local "x" Value_type.int ~init:(Body.int 10);
              Body.while_
                (Body.builtin "<" [ Body.var "x"; Body.int 40 ])
                [ Body.assign "x" (Body.builtin "+" [ Body.var "x"; Body.int 10 ]) ];
              Body.if_
                (Body.builtin "=" [ Body.var "x"; Body.int 40 ])
                [ Body.return_ (Body.var "x") ]
                [ Body.return_ (Body.int (-1)) ]
            ]))
  in
  Database.set_schema db s;
  let i = Interp.create db in
  Alcotest.(check bool) "loop + if" true
    (Value.equal (Interp.call_on i "calc" [ alice ]) (v_int 40))

let test_delete_policies () =
  let s = Tdp_paper.Fig1.schema in
  let s =
    Schema.add_type s
      (Type_def.make
         ~attrs:[ Attribute.make (at "manager") (Value_type.named (ty "Employee")) ]
         (ty "Team"))
  in
  let db = Database.create s in
  let alice =
    Database.new_object db (ty "Employee")
      ~init:[ (at "ssn", v_int 1); (at "pay_rate", v_float 1.0) ]
  in
  let team =
    Database.new_object db (ty "Team") ~init:[ (at "manager", Value.Ref alice) ]
  in
  Alcotest.(check int) "one referrer" 1 (List.length (Database.referrers db alice));
  (* Restrict refuses *)
  (match Database.delete db alice with
  | exception Database.Store_error _ -> ()
  | () -> Alcotest.fail "restricted delete must fail");
  Alcotest.(check int) "still two objects" 2 (Database.count db);
  (* Nullify clears the slot *)
  Database.delete db ~policy:Database.Nullify alice;
  Alcotest.(check int) "one object" 1 (Database.count db);
  Alcotest.(check bool) "slot nulled" true
    (Value.equal (Database.get_attr db team (at "manager")) Value.Null);
  (* unreferenced delete is plain *)
  Database.delete db team;
  Alcotest.(check int) "empty" 0 (Database.count db)

let test_call_next_method () =
  (* promote2 on Employee shadows promote; it defers to the Person
     method via call_next_method and combines results. *)
  let s = Tdp_paper.Fig1.schema in
  let s =
    Schema.add_method s
      (Method_def.make ~gf:"describe" ~id:"describe_person"
         ~signature:(Signature.make ~result:Value_type.int [ ("p", ty "Person") ])
         (General [ Body.return_ (Body.int 1) ]))
  in
  let s =
    Schema.add_method s
      (Method_def.make ~gf:"describe" ~id:"describe_employee"
         ~signature:(Signature.make ~result:Value_type.int [ ("e", ty "Employee") ])
         (General
            [ Body.return_
                (Body.builtin "+"
                   [ Body.int 10; Body.builtin "call_next_method" [] ])
            ]))
  in
  let db = Database.create s in
  let alice =
    Database.new_object db (ty "Employee")
      ~init:[ (at "ssn", v_int 1); (at "pay_rate", v_float 1.0) ]
  in
  let bob = Database.new_object db (ty "Person") ~init:[ (at "ssn", v_int 2) ] in
  let i = Interp.create db in
  Alcotest.(check bool) "employee: own + next" true
    (Value.equal (Interp.call_on i "describe" [ alice ]) (v_int 11));
  Alcotest.(check bool) "person: base only" true
    (Value.equal (Interp.call_on i "describe" [ bob ]) (v_int 1))

let test_runaway_recursion_guard () =
  let s = Tdp_paper.Fig1.schema in
  let s =
    Schema.add_method s
      (Method_def.make ~gf:"loop_forever" ~id:"loop_forever"
         ~signature:(Signature.make [ ("p", ty "Person") ])
         (General [ Body.expr (Body.call "loop_forever" [ Body.var "p" ]) ]))
  in
  let db = Database.create s in
  let bob = Database.new_object db (ty "Person") ~init:[] in
  let i = Interp.create ~max_depth:64 db in
  (match Interp.call_on i "loop_forever" [ bob ] with
  | exception Interp.Runtime_error msg ->
      Alcotest.(check bool) "mentions depth" true
        (let n = "recursion depth" in
         let rec go k =
           k + String.length n <= String.length msg
           && (String.sub msg k (String.length n) = n || go (k + 1))
         in
         go 0)
  | _ -> Alcotest.fail "expected a depth error");
  (* the guard unwinds cleanly: the interpreter still works *)
  Alcotest.(check bool) "interpreter usable afterwards" true
    (Value.equal (Interp.call_on i "get_ssn" [ bob ]) Value.Null)

let test_call_next_method_exhausted () =
  let s = Tdp_paper.Fig1.schema in
  let s =
    Schema.add_method s
      (Method_def.make ~gf:"solo" ~id:"solo"
         ~signature:(Signature.make ~result:Value_type.int [ ("p", ty "Person") ])
         (General [ Body.return_ (Body.builtin "call_next_method" []) ]))
  in
  let db = Database.create s in
  let bob = Database.new_object db (ty "Person") ~init:[ (at "ssn", v_int 2) ] in
  let i = Interp.create db in
  match Interp.call_on i "solo" [ bob ] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "exhausted next-method chain must fail"

(* End-to-end: schema written in the surface language, views applied,
   objects stored, methods run through the interpreter with
   multiple-inheritance dispatch (TA ⪯ Student, Instructor). *)
let test_dsl_end_to_end () =
  let src =
    {|
type Person { pid : int; byear : int; }
type Student : Person(1) { gpa : float; credits : int; }
type Instructor : Person(1) { salary : float; }
type TA : Student(1), Instructor(2) { stipend : float; }

reader get_pid(self : Person) -> pid;
reader get_gpa(self : Student) -> gpa;
reader get_credits(self : Student) -> credits;
reader get_salary(self : Instructor) -> salary;
reader get_stipend(self : TA) -> stipend;

method cost(i : Instructor) : float { return get_salary(i); }
method cost#cost_ta(t : TA) : float {
  return get_stipend(t) + call_next_method();
}
method honors(s : Student) : bool {
  return get_gpa(s) >= 3.7 and get_credits(s) >= 30;
}

view Transcript = project Student on [pid, gpa, credits];
|}
  in
  let r = Tdp_lang.Elaborate.load_exn src in
  let schema, _ = Tdp_lang.Elaborate.apply_views_exn r in
  let db = Database.create schema in
  let ta =
    Database.new_object db (ty "TA")
      ~init:
        [ (at "pid", v_int 1); (at "byear", v_int 2000);
          (at "gpa", Value.Float 3.9); (at "credits", v_int 40);
          (at "salary", Value.Float 100.0); (at "stipend", Value.Float 25.0)
        ]
  in
  let i = Interp.create db in
  (* TA-specific method defers to the Instructor one via call_next_method *)
  Alcotest.(check bool) "cost(ta) = stipend + salary" true
    (Value.equal (Interp.call_on i "cost" [ ta ]) (v_float 125.0));
  Alcotest.(check bool) "honors through Student branch" true
    (Value.equal (Interp.call_on i "honors" [ ta ]) (Value.Bool true));
  (* the TA is in the Transcript view's extent and answers honors there *)
  Alcotest.(check bool) "ta in Transcript extent" true
    (List.mem ta (Database.extent db (ty "Transcript")));
  (* a native Transcript instance cannot answer cost *)
  let native =
    Database.new_object db (ty "Transcript")
      ~init:[ (at "pid", v_int 2); (at "gpa", Value.Float 3.8); (at "credits", v_int 31) ]
  in
  Alcotest.(check bool) "native view instance honors" true
    (Value.equal (Interp.call_on i "honors" [ native ]) (Value.Bool true));
  match Interp.call_on i "cost" [ native ] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "cost must not apply to the view type"

(* The digit writer behind every printed integer must be
   [string_of_int], at the extremes and anywhere between. *)
let int_text i =
  let b = Buffer.create 24 in
  Value.add_int b i;
  Buffer.contents b

let test_add_int_extremes () =
  List.iter
    (fun i -> Alcotest.(check string) (string_of_int i) (string_of_int i) (int_text i))
    [ min_int; min_int + 1; max_int; 0; 1; -1; 9; 10; -9; -10; 99; 100 ]

let prop_add_int =
  QCheck.Test.make ~name:"Value.add_int = string_of_int" ~count:2000
    QCheck.(oneof [ int; small_signed_int ])
    (fun i -> String.equal (int_text i) (string_of_int i))

(* A float prints as "%.6g" prints it; most magnitudes take an exact
   digit loop, the rest the C formatter, and the two must not differ. *)
let float_text f = Value.to_string (Value.Float f)

let check_float f =
  Alcotest.(check string) (Printf.sprintf "%h" f) (Printf.sprintf "%.6g" f) (float_text f)

let test_float_edges () =
  let around x = [ Float.pred x; x; Float.succ x ] in
  List.iter
    (fun f ->
      check_float f;
      check_float (-.f))
    ([ 0.0;
       nan;
       infinity;
       max_float;
       min_float;
       Float.pred min_float (* the largest subnormal *);
       Float.succ 0.0 (* the smallest subnormal *);
       (* six-digit ties, and carries into a seventh digit *)
       1.234565;
       0.5;
       2.5;
       0.0001234565;
       123456.5;
       9.999995;
       99999.95;
       999999.4;
       0.000999999
     ]
    @ around 1e-4 @ around 999999.5 @ around 1.0 @ around 0.1 @ around 1e5
    @ around 0.001);
  Alcotest.(check string) "-0.0" "-0" (float_text (-0.0))

(* Random bit patterns cover every exponent; decimals [k / 10^j] and
   their neighbours sit on and beside the six-digit rounding ties. *)
let float_gen =
  let open QCheck.Gen in
  let decimal =
    map2
      (fun k j -> float_of_int k /. (10. ** float_of_int j))
      (int_range (-99_999_999) 99_999_999)
      (int_range 0 12)
  in
  let neighbour = oneof [ return Fun.id; return Float.pred; return Float.succ ] in
  frequency
    [ (1, map Int64.float_of_bits ui64);
      (3, map2 (fun f x -> f x) neighbour decimal);
      (1, float_range (-1e6) 1e6)
    ]

let prop_float_text =
  QCheck.Test.make ~name:"Value float text = %.6g" ~count:100_000
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
    (fun f -> String.equal (float_text f) (Printf.sprintf "%.6g" f))

let suite =
  [ Alcotest.test_case "new object and slots" `Quick test_new_object_and_slots;
    Alcotest.test_case "DSL end-to-end (multi-inheritance)" `Quick
      test_dsl_end_to_end;
    Alcotest.test_case "delete policies" `Quick test_delete_policies;
    Alcotest.test_case "call_next_method" `Quick test_call_next_method;
    Alcotest.test_case "call_next_method exhausted" `Quick
      test_call_next_method_exhausted;
    Alcotest.test_case "runaway recursion guard" `Quick test_runaway_recursion_guard;
    Alcotest.test_case "uninitialized is null" `Quick test_uninitialized_is_null;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "deep extent" `Quick test_deep_extent;
    Alcotest.test_case "reader + general methods" `Quick test_interp_reader_and_method;
    Alcotest.test_case "writer" `Quick test_interp_writer;
    Alcotest.test_case "no applicable method" `Quick test_interp_no_applicable;
    Alcotest.test_case "behavior preserved dynamically" `Quick
      test_behavior_preserved_dynamically;
    Alcotest.test_case "view extents + native instances" `Quick
      test_view_extent_and_native_instances;
    Alcotest.test_case "reference attributes" `Quick test_reference_attributes;
    Alcotest.test_case "builtin arithmetic" `Quick test_builtin_arithmetic;
    Alcotest.test_case "add_int at the extremes" `Quick test_add_int_extremes;
    QCheck_alcotest.to_alcotest prop_add_int;
    Alcotest.test_case "float text at the edges" `Quick test_float_edges;
    QCheck_alcotest.to_alcotest prop_float_text
  ]

let () = Alcotest.run "store" [ ("store", suite) ]
