(* The statement language: Session evaluation units, the print∘parse
   round-trip for Stmt.t, and the differential test proving the four
   frontends — Session directly, the repl, the server's [eval] verb, a
   Session without a one-pass extent evaluator — produce the same
   outcomes for the same statements. *)

module Ast = Tdp_lang.Ast
module Stmt = Tdp_lang.Stmt
module Session = Tdp_lang.Session
module Repl = Tdp_lang.Repl
module Elaborate = Tdp_lang.Elaborate
module Database = Tdp_store.Database
module Value = Tdp_store.Value
module Mvcc = Tdp_txn.Mvcc
module Server = Tdp_txn.Server
open Helpers

(* The paper's Figure 1 schema (examples/schemas/employee.odb). *)
let schema_src =
  {|
type Person {
  ssn : int;
  name : string;
  date_of_birth : date;
}

type Employee : Person(1) {
  pay_rate : float;
  hrs_worked : float;
}

reader get_ssn(self : Person) -> ssn;
reader get_name(self : Person) -> name;
reader get_date_of_birth(self : Person) -> date_of_birth;
reader get_pay_rate(self : Employee) -> pay_rate;
reader get_hrs_worked(self : Employee) -> hrs_worked;
writer set_pay_rate(self : Employee) -> pay_rate;

method age(p : Person) : int {
  return years_since(get_date_of_birth(p));
}

method income(e : Employee) : float {
  return get_pay_rate(e) * get_hrs_worked(e);
}

method promote(e : Employee) : bool {
  return years_since(get_date_of_birth(e)) >= 5 and get_pay_rate(e) < 100;
}

view EmpView = project Employee on [ssn, date_of_birth, pay_rate];
view Seniors = select EmpView where date_of_birth <= 1980;
|}

let elab = lazy (Elaborate.load_exn schema_src)

let fresh_session ?(views = true) () =
  let r = Lazy.force elab in
  let s = Session.of_database (Database.create r.Elaborate.schema) in
  if views then Session.install_views s r.Elaborate.views;
  s

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let unexpected what o =
  Alcotest.failf "expected %s, got: %s" what (Session.render o)

(* Evaluate [src] expecting exactly one outcome. *)
let one s src =
  match Session.eval_string s src with
  | [ o ] -> o
  | os ->
      Alcotest.failf "expected one outcome for %S, got %d" src (List.length os)

let check_diag s src code =
  match one s src with
  | Session.Diag _ as o when contains (Session.render o) code -> ()
  | o -> unexpected code o

(* ---- statement evaluation units ------------------------------------- *)

let test_bindings () =
  let s = fresh_session () in
  (match one s "let cheap = select Employee where pay_rate < 100.0;" with
  | Session.Bound { var = "cheap"; _ } -> ()
  | o -> unexpected "Bound cheap" o);
  (match one s "define view Pay = project Employee on [ssn, pay_rate];" with
  | Session.Defined { name = "Pay"; attrs; _ } ->
      Alcotest.check attr_names "Pay attrs" [ at "pay_rate"; at "ssn" ]
        (List.sort Tdp_core.Attr_name.compare attrs)
  | o -> unexpected "Defined Pay" o);
  (* lets resolve inside later expressions, catalog views likewise *)
  (match one s ":type select Pay where pay_rate < 50.0" with
  | Session.Typed _ -> ()
  | o -> unexpected "Typed" o);
  (match one s "drop view Pay;" with
  | Session.Dropped "Pay" -> ()
  | o -> unexpected "Dropped Pay" o);
  check_diag s ":extent Pay" "TDP051";
  (match one s ":views" with
  | Session.Views { defined; bound } ->
      (* EmpView and Seniors installed from the schema file; Pay dropped *)
      Alcotest.(check (list string)) "defined" [ "EmpView"; "Seniors" ]
        (List.sort compare (List.map fst defined));
      Alcotest.(check (list string)) "bound" [ "cheap" ] (List.map fst bound)
  | o -> unexpected "Views" o)

let test_diagnostics () =
  let s = fresh_session () in
  check_diag s "select where;" "TDP050";
  check_diag s ":extent Payroll" "TDP051";
  check_diag s "define view EmpView = project Employee on [ssn];" "TDP052";
  check_diag s ":extent project Employee on [salary]" "TDP053";
  check_diag s "type Extra { x : int; }" "TDP056";
  check_diag s "new Employee { ssn = \"not-an-int\" };" "TDP055";
  (* the session survives every failure above *)
  match one s ":schema" with
  | Session.Schema_info { types = 2; _ } -> ()
  | o -> unexpected "Schema_info with 2 types" o

let test_join_has_no_extent () =
  let s = fresh_session () in
  (match one s "let names = project Person on [ssn, name];" with
  | Session.Bound _ -> ()
  | o -> unexpected "Bound names" o);
  (match one s "define view Directory = join names with EmpView;" with
  | Session.Defined _ -> ()
  | o -> unexpected "Defined Directory" o);
  (* well-typed... *)
  (match one s ":type Directory" with
  | Session.Typed _ -> ()
  | o -> unexpected "Typed Directory" o);
  (* ...but not materializable: structured TDP054, not an exception *)
  check_diag s ":extent Directory" "TDP054"

let test_data_statements () =
  let s = fresh_session () in
  (match
     one s
       "new Employee { ssn = 1; name = \"amy\"; date_of_birth = year(1970); \
        pay_rate = 50.0; hrs_worked = 30.0 };"
   with
  | Session.Created { oid; ty = t } ->
      Alcotest.(check int) "oid" 1 (Tdp_store.Oid.to_int oid);
      Alcotest.(check string) "ty" "Employee" (Tdp_core.Type_name.to_string t)
  | o -> unexpected "Created" o);
  (match one s "call income on Employee;" with
  | Session.Called { gf = "income"; results = [ (_, Value.Float f) ] } ->
      Alcotest.(check (float 1e-9)) "income" 1500.0 f
  | o -> unexpected "Called income" o);
  (match one s "call age on Employee;" with
  | Session.Called { results = [ (_, Value.Int 56) ]; _ } -> ()
  | o -> unexpected "age 56 (now = 2026)" o);
  (match one s "set #1 { pay_rate = 60.0 };" with
  | Session.Updated { attrs = [ a ]; _ } ->
      Alcotest.(check string) "attr" "pay_rate" (Tdp_core.Attr_name.to_string a)
  | o -> unexpected "Updated" o);
  (match one s ":extent Seniors" with
  | Session.Extent { rows = [ (_, _) ]; attrs; _ } ->
      Alcotest.(check int) "Seniors width" 3 (List.length attrs)
  | o -> unexpected "Extent of Seniors" o);
  (match one s "del #1;" with
  | Session.Deleted _ -> ()
  | o -> unexpected "Deleted" o);
  check_diag s "del #1;" "TDP055";
  (* evaluation stops after :quit *)
  match Session.eval_string s ":quit\n:views" with
  | [ Session.Bye ] -> ()
  | os -> Alcotest.failf "expected [Bye], got %d outcomes" (List.length os)

let test_one_shot_helpers () =
  (match Session.check_source ~file:"employee.odb" schema_src with
  | Session.Checked { issues = []; views; _ } ->
      Alcotest.(check int) "declared views" 2 (List.length views)
  | o -> unexpected "clean Checked" o);
  (match Session.infer_source schema_src with
  | Session.Inferred { views; _ } ->
      List.iter
        (fun (name, vi) ->
          match vi with
          | Session.Admitted _ -> ()
          | _ -> Alcotest.failf "view %s not admitted" name)
        views
  | o -> unexpected "Inferred" o);
  let schema = (Lazy.force elab).Elaborate.schema in
  (match
     Session.resolve_call schema ~gf:"income" ~arg_types:[ ty "Employee" ]
       ~chain:false
   with
  | Session.Resolved { resolution = Session.Selected _; _ } as o ->
      Alcotest.(check bool) "selected is a success" false (Session.failed o)
  | o -> unexpected "Resolved/Selected" o);
  match
    Session.resolve_call schema ~gf:"income" ~arg_types:[ ty "Person" ]
      ~chain:false
  with
  | Session.Resolved { resolution = Session.No_method; _ } as o ->
      Alcotest.(check bool) "no-method is a failure" true (Session.failed o)
  | o -> unexpected "Resolved/No_method" o

(* ---- print∘parse round-trip (QCheck) -------------------------------- *)

module Gen_stmt = struct
  open Ast
  open QCheck.Gen

  (* Fixed pools keep identifiers clear of the keyword set. *)
  let attr = oneofl [ "ssn"; "name"; "pay_rate"; "dept"; "x1" ]
  let tyname = oneofl [ "Person"; "Employee"; "Dept"; "T9" ]
  let vname = oneofl [ "EmpPay"; "Cheap"; "V1" ]
  let var = oneofl [ "v"; "q"; "cheap1" ]
  let gfname = oneofl [ "income"; "age"; "promote" ]

  let lit =
    oneof
      [
        map (fun i -> LInt i) (int_range (-99) 999);
        (* quarters are exact in binary, and the lexer has no exponent
           form — %.12g of these always reparses *)
        map (fun k -> LFloat (float_of_int k /. 4.)) (int_range 0 399);
        map (fun s -> LString s) (oneofl [ "amy"; "acme corp"; "" ]);
        map (fun b -> LBool b) bool;
      ]

  let cmp = oneofl [ "=="; "!="; "<"; "<="; ">"; ">=" ]

  let rec pred n =
    if n <= 0 then map3 (fun a o l -> PCmp (a, o, l)) attr cmp lit
    else
      frequency
        [
          (3, pred 0);
          (1, map2 (fun a b -> PAnd (a, b)) (pred (n - 1)) (pred (n - 1)));
          (1, map2 (fun a b -> POr (a, b)) (pred (n - 1)) (pred (n - 1)));
          (1, map (fun a -> PNot a) (pred (n - 1)));
        ]

  let rec view n =
    if n <= 0 then map (fun t -> VBase t) tyname
    else
      frequency
        [
          (2, view 0);
          ( 2,
            map2
              (fun v attrs -> VProject (v, attrs))
              (view (n - 1))
              (list_size (int_range 1 3) attr) );
          (2, map2 (fun v p -> VSelect (v, p)) (view (n - 1)) (pred 1));
          (1, map2 (fun a b -> VGeneralize (a, b)) (view (n - 1)) (view (n - 1)));
          (1, map2 (fun a b -> VJoin (a, b)) (view (n - 1)) (view (n - 1)));
        ]

  let svalue =
    oneof
      [
        map (fun l -> SVLit l) lit;
        return SVNull;
        map (fun n -> SVRef n) (int_range 0 99);
        map (fun y -> SVDate y) (int_range 1900 2100);
      ]

  let fields = list_size (int_range 1 3) (pair attr svalue)

  let desc =
    let v = view 2 in
    frequency
      [
        (3, map2 (fun x e -> SLet { var = x; expr = e }) var v);
        (3, map2 (fun n e -> SDefine { name = n; expr = e }) vname v);
        (1, map (fun n -> SDrop n) vname);
        (2, map2 (fun g e -> SCallOn { gf = g; expr = e }) gfname v);
        (3, map2 (fun t fs -> SNew { ty = t; inits = fs }) tyname fields);
        ( 2,
          map2 (fun o fs -> SSet { oid = o; updates = fs }) (int_range 1 99)
            fields );
        ( 1,
          map2
            (fun o p -> SDelete { oid = o; policy = p })
            (int_range 1 99)
            (oneofl [ `Restrict; `Nullify ]) );
        (2, map (fun e -> SShow e) v);
        (2, map (fun e -> SType e) v);
        (2, map (fun e -> SExtent e) v);
        (1, oneofl [ SViews; SSchema; SQuit ]);
        (1, map2 (fun n e -> SDecl (IView { name = n; expr = e })) vname v);
      ]

  let stmt = map (fun d -> { spos = { line = 1; col = 1 }; sdesc = d }) desc
end

let stmt_arb = QCheck.make ~print:Stmt.to_string Gen_stmt.stmt

let prop_roundtrip =
  QCheck.Test.make ~name:"print∘parse round-trips statements" ~count:500
    stmt_arb (fun s ->
      match Stmt.parse (Stmt.to_string s) with
      | Ok [ s' ] -> Stmt.equal s s'
      | Ok l ->
          QCheck.Test.fail_reportf "%S parsed to %d statements"
            (Stmt.to_string s) (List.length l)
      | Error e ->
          QCheck.Test.fail_reportf "%S failed to parse: %s" (Stmt.to_string s)
            (Fmt.str "%a" Tdp_core.Error.pp e))

(* ---- four-frontend differential ------------------------------------- *)

(* Each line is one parse unit in every frontend (the repl buffers per
   line; the server gets one [eval] per line), so a line may carry
   several statements. *)
let diff_stmts =
  [
    "define view EmpPay = project Employee on [ssn, date_of_birth, pay_rate];";
    "define view Cheap = select EmpPay where pay_rate < 100.0;";
    "new Employee { ssn = 1; name = \"amy\"; date_of_birth = year(1970); \
     pay_rate = 50.0; hrs_worked = 30.0 };";
    "new Employee { ssn = 2; name = \"bob\"; date_of_birth = year(1990); \
     pay_rate = 120.0; hrs_worked = 40.0 };";
    ":extent Cheap";
    "call income on Employee;";
    "call age on Cheap;";
    "set #1 { pay_rate = 75.5 };";
    (* rejected writes: the served store validates through Database's
       object rules, so all four frontends print the same message *)
    "new Employee { foo = 1; bar = 2 };";
    "set #1 { nope = 1 };";
    "set #1 { ssn = \"x\" };";
    ":extent Cheap";
    ":type Cheap";
    "let q = select Cheap where ssn == 1;";
    ":extent q";
    "del #2;";
    ":extent project Employee on [ssn, pay_rate]";
    ":views";
    "new Person { ssn = 3; name = \"cy\"; date_of_birth = year(1980) };";
    ":extent select Employee where not (pay_rate < 60.0) or ssn == 3";
    ":extent select generalize EmpPay with Person where ssn != 1";
    "call income on select Employee where ssn == 1 or not (pay_rate > 0.0);";
    (* several statements on one line: one parse unit, one [eval] *)
    "let both = generalize Cheap with Person; both; \
     select both where ssn >= 1 and not (ssn == 3);";
    ":extent Payroll" (* a failing statement renders identically too *);
  ]

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Frontend A: the Session API, statement by statement. *)
let direct_transcript () =
  let r = Lazy.force elab in
  let s = Session.of_database (Database.create r.Elaborate.schema) in
  String.concat "\n"
    (List.concat_map
       (fun line -> List.map Session.render (Session.eval_string s line))
       diff_stmts)

(* Frontend B: the repl over file channels (no echo, no prompts). *)
let repl_transcript () =
  let r = Lazy.force elab in
  let s = Session.of_database (Database.create r.Elaborate.schema) in
  let in_f = Filename.temp_file "tdp_diff" ".in"
  and out_f = Filename.temp_file "tdp_diff" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_f;
      Sys.remove out_f)
    (fun () ->
      let oc = open_out in_f in
      List.iter (fun l -> Printf.fprintf oc "%s\n" l) diff_stmts;
      close_out oc;
      let ic = open_in in_f and out = open_out out_f in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          close_out_noerr out)
        (fun () -> Repl.run s ic out);
      read_file out_f)

(* A served session over an MVCC store, inside a transaction. *)
let served_session () =
  let r = Lazy.force elab in
  let load_schema src = (Elaborate.load_exn src).Elaborate.schema in
  let store = Mvcc.create ~load_schema r.Elaborate.schema in
  let s = Server.session ~store () in
  (match Server.handle_line s "begin" with
  | resp when String.length resp >= 2 && String.sub resp 0 2 = "ok" -> ()
  | resp -> Alcotest.failf "begin refused: %s" resp);
  s

(* Frontend C: a served eval session over an MVCC store. *)
let server_transcript () =
  let s = served_session () in
  let run line = Server.handle_line s line in
  let payload line =
    let resp = run (Fmt.str "eval %S" line) in
    try Scanf.sscanf resp "ok %S%!" Fun.id
    with _ -> (
      try Scanf.sscanf resp "err %S%!" Fun.id
      with _ -> Alcotest.failf "unparseable eval response: %s" resp)
  in
  let text = String.concat "\n" (List.map payload diff_stmts) in
  (match run "commit" with
  | resp when String.length resp >= 2 && String.sub resp 0 2 = "ok" -> ()
  | resp -> Alcotest.failf "commit refused: %s" resp);
  text

(* Frontend D: the Session API over [s_instances = None], so every
   extent runs [View.instances_with]'s per-object leaf. *)
let fallback_transcript () =
  let r = Lazy.force elab in
  let db = Database.create r.Elaborate.schema in
  let s = Session.create { (Session.database_ops db) with s_instances = None } in
  String.concat "\n"
    (List.concat_map
       (fun line -> List.map Session.render (Session.eval_string s line))
       diff_stmts)

let test_differential () =
  let a = direct_transcript () in
  Alcotest.(check string) "repl = direct" (a ^ "\n") (repl_transcript ());
  Alcotest.(check string) "served eval = direct" a (server_transcript ());
  Alcotest.(check string) "per-object fallback = direct" a (fallback_transcript ())

(* A mutating statement outside a transaction is a TDP055 diagnostic,
   not a protocol error: the eval session survives. *)
let test_server_eval_needs_txn () =
  let r = Lazy.force elab in
  let load_schema src = (Elaborate.load_exn src).Elaborate.schema in
  let store = Mvcc.create ~load_schema r.Elaborate.schema in
  let s = Server.session ~store () in
  let resp = Server.handle_line s "eval \"new Employee { ssn = 1 };\"" in
  if not (contains resp "TDP055") then
    Alcotest.failf "wanted a TDP055 diagnostic, got: %s" resp;
  let resp = Server.handle_line s "eval \":schema\"" in
  if not (contains resp "ok ") then
    Alcotest.failf "session should survive: %s" resp

(* ---- the served reply is render + String.escaped ------------------ *)

(* The [eval] reply as plain text would quote it: the escaping sink
   must give exactly these bytes without building the text. *)
let escaped_reply os =
  String.concat ""
    [ (if List.exists Session.failed os then "err \"" else "ok \"");
      String.escaped (String.concat "\n" (List.map Session.render os));
      "\""
    ]

(* Rows for the generated statements to read.  The statement lexer
   keeps every byte of a string literal and decodes only a backslash
   before a quote, so these names hold a quote, a backslash, a newline,
   a tab, control and non-ASCII bytes: each is escaped once in the text
   and twice in a reply. *)
let reply_seed =
  [ "new Employee { ssn = 1; name = \"amy \\\"q\\\" \\ a\nb\"; \
     date_of_birth = year(1970); pay_rate = 50.0; hrs_worked = 30.5 };";
    "new Employee { ssn = 2; name = \"\t\001\127\200\255 caf\195\169\"; \
     date_of_birth = year(1999); pay_rate = 0.1; hrs_worked = 0.00001 };";
    "new Person { ssn = 3; name = \"\"; date_of_birth = year(1980) };";
    "new Employee { ssn = 4; name = \"d\"; date_of_birth = year(2000); \
     pay_rate = 123456.5; hrs_worked = 2.0 };"
  ]

(* ... and reads of every row after the script, several per line. *)
let reply_reads =
  [ ":extent Person"; "call income on Employee; call age on Person;" ]

(* A script runs statement by statement through the Session API and
   through a served session inside one transaction, between
   [reply_seed] and [reply_reads]; every served reply must be the
   escaped render of the direct outcomes. *)
let prop_served_reply =
  QCheck.Test.make ~name:"served eval reply = ok/err + String.escaped render"
    ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "\n" (List.map Stmt.to_string l))
       QCheck.Gen.(list_size (int_range 1 12) Gen_stmt.stmt))
    (fun script ->
      let direct = fresh_session ~views:false () and served = served_session () in
      List.for_all
        (fun line ->
          let os = Session.eval_string direct line in
          let want = escaped_reply os in
          let resp = Server.handle_line served (Fmt.str "eval %S" line) in
          if resp <> want then
            QCheck.Test.fail_reportf "served %S:\n%s\nwanted\n%s" line resp want;
          true)
        (reply_seed @ List.map Stmt.to_string script @ reply_reads))

(* Rows no statement literal can write: every byte in a string, NaN
   and infinite floats, nulls.  Rendered through the escaping sink as
   outcomes, and stored through the protocol's [new] and read back by
   served extents and calls. *)
let awkward_rows =
  let all = String.init 256 Char.chr in
  [ (all, Value.Float Float.nan, Value.Null);
    (all ^ all, Value.Float Float.infinity, Value.Float Float.neg_infinity);
    ("\"\\\"\\\\\n\n\r", Value.Float (-0.0), Value.Float 1e-300);
    ("caf\xc3\xa9 \xe2\x88\x80x \xf0\x9f\x98\x80", Value.Float 123456.5, Value.Float 0.1);
    ("", Value.Null, Value.Float 9.999995)
  ]

let test_escaped_render_awkward () =
  let attrs = [ at "name"; at "pay_rate"; at "hrs_worked" ] in
  let rows =
    List.mapi
      (fun i (name, pay, hrs) ->
        (Tdp_store.Oid.of_int (i + 1), [ Value.String name; pay; hrs ]))
      awkward_rows
  in
  let extent rows =
    Session.Extent { expr = Tdp_algebra.View.Base (ty "Employee"); attrs; rows }
  in
  let called =
    Session.Called
      { gf = "income"; results = List.map (fun (o, vs) -> (o, List.hd vs)) rows }
  in
  let failed =
    Session.Diag
      (Tdp_analysis.Diagnostic.make ~code:"TDP055" ~severity:Tdp_analysis.Diagnostic.Error
         "bad \"x\"\n\\")
  in
  List.iter
    (fun o ->
      let b = Buffer.create 16 in
      Session.render_to Session.Escaped b o;
      Alcotest.(check string) "escaping sink" (String.escaped (Session.render o))
        (Buffer.contents b))
    [ extent []; extent rows; called; failed; Session.Called { gf = "f"; results = [] } ];
  (* the same rows through a served store, against a direct session *)
  let served = served_session () in
  let r = Lazy.force elab in
  let db = Database.create r.Elaborate.schema in
  List.iter
    (fun (name, pay, hrs) ->
      let init = [ (at "name", Value.String name); (at "pay_rate", pay); (at "hrs_worked", hrs) ] in
      ignore (Database.new_object db (ty "Employee") ~init);
      let slot (a, v) = Fmt.str "%a=%s" Tdp_core.Attr_name.pp a (Tdp_store.Dump.value_to_string v) in
      let resp = Server.handle_line served (String.concat " " ("new Employee" :: List.map slot init)) in
      if String.length resp < 2 || String.sub resp 0 2 <> "ok" then
        Alcotest.failf "new refused: %s" resp)
    awkward_rows;
  let direct = Session.of_database db in
  List.iter
    (fun line ->
      Alcotest.(check string) line
        (escaped_reply (Session.eval_string direct line))
        (Server.handle_line served (Fmt.str "eval %S" line)))
    [ ":extent Employee";
      ":extent project Employee on [name, hrs_worked]";
      "call get_name on Employee; call get_hrs_worked on Employee;";
      ":extent Employee; :extent Nope";
      ":extent Nope; call get_name on Employee;"
    ]

let () =
  Alcotest.run "session"
    [
      ( "eval",
        [
          Alcotest.test_case "bindings and catalog" `Quick test_bindings;
          Alcotest.test_case "diagnostics TDP050-TDP056" `Quick
            test_diagnostics;
          Alcotest.test_case "join views have no extent" `Quick
            test_join_has_no_extent;
          Alcotest.test_case "data statements and calls" `Quick
            test_data_statements;
          Alcotest.test_case "one-shot CLI helpers" `Quick
            test_one_shot_helpers;
        ] );
      ("roundtrip", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
      ( "frontends",
        [
          Alcotest.test_case "same statements, same outcomes" `Quick
            test_differential;
          Alcotest.test_case "eval without txn is TDP055" `Quick
            test_server_eval_needs_txn;
          Alcotest.test_case "escaped render of awkward rows" `Quick
            test_escaped_render_awkward;
          QCheck_alcotest.to_alcotest prop_served_reply;
        ] );
    ]
