module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Value = Tdp_store.Value
module Wal = Tdp_store.Wal
module Txn_log = Tdp_txn.Txn_log
module Mvcc = Tdp_txn.Mvcc
open Helpers

let schema = Tdp_paper.Fig1.schema
let oid = Tdp_store.Oid.of_int
let load_schema src = (Tdp_lang.Elaborate.load_exn src).Tdp_lang.Elaborate.schema

let with_temp_dir f =
  let dir = Filename.temp_file "tdp_txn" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let commit_exn txn =
  match Mvcc.commit txn with
  | Ok v -> v
  | Error e -> Alcotest.failf "commit failed: %s" (Mvcc.commit_error_message e)

let new_employee txn n =
  Mvcc.new_object txn (ty "Employee")
    ~init:[ (at "ssn", Value.Int n); (at "name", Value.String "e") ]

(* ---- transaction lifecycle and snapshot isolation ------------------- *)

let test_commit_publishes () =
  let s = Mvcc.create schema in
  let t1 = Mvcc.begin_ s in
  let o = new_employee t1 1 in
  Mvcc.set_attr t1 o (at "pay_rate") (Value.Float 60.0);
  (* staged but uncommitted: visible in the overlay, not at the head *)
  Alcotest.(check int) "overlay sees the write" 1 (Mvcc.count (Mvcc.view t1));
  Alcotest.(check int) "head does not" 0
    (Mvcc.count (Mvcc.head s ~branch:Mvcc.main_branch));
  let v = commit_exn t1 in
  Alcotest.(check int) "first version" 1 v;
  let head = Mvcc.head s ~branch:Mvcc.main_branch in
  Alcotest.(check int) "published" 1 (Mvcc.count head);
  Alcotest.(check string) "value" "60.0"
    (Dump.value_to_string (Mvcc.get_attr head o (at "pay_rate")))

let test_snapshot_isolation () =
  let s = Mvcc.create schema in
  let t1 = Mvcc.begin_ s in
  let o = new_employee t1 1 in
  ignore (commit_exn t1);
  (* a reader pins the version it started from *)
  let reader = Mvcc.head s ~branch:Mvcc.main_branch in
  let t2 = Mvcc.begin_ s in
  Mvcc.set_attr t2 o (at "ssn") (Value.Int 99);
  ignore (commit_exn t2);
  Alcotest.(check string) "reader still sees version 1" "1"
    (Dump.value_to_string (Mvcc.get_attr reader o (at "ssn")));
  Alcotest.(check string) "new head sees version 2" "99"
    (Dump.value_to_string
       (Mvcc.get_attr (Mvcc.head s ~branch:Mvcc.main_branch) o (at "ssn")))

let test_first_writer_wins () =
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let o = new_employee t0 1 in
  ignore (commit_exn t0);
  (* two open transactions race on the same object *)
  let ta = Mvcc.begin_ s and tb = Mvcc.begin_ s in
  Mvcc.set_attr ta o (at "ssn") (Value.Int 10);
  Mvcc.set_attr tb o (at "ssn") (Value.Int 20);
  ignore (commit_exn ta);
  (match Mvcc.commit tb with
  | Ok _ -> Alcotest.fail "second writer must conflict"
  | Error (Mvcc.Conflict _) -> ()
  | Error (Mvcc.Invalid m) -> Alcotest.failf "expected conflict, got invalid: %s" m);
  (match Mvcc.state tb with
  | Mvcc.Aborted _ -> ()
  | _ -> Alcotest.fail "loser must be aborted");
  Alcotest.(check string) "winner's write survives" "10"
    (Dump.value_to_string
       (Mvcc.get_attr (Mvcc.head s ~branch:Mvcc.main_branch) o (at "ssn")));
  (* disjoint write sets do not conflict *)
  let tc = Mvcc.begin_ s and td = Mvcc.begin_ s in
  ignore (new_employee tc 2);
  Mvcc.set_attr td o (at "ssn") (Value.Int 30);
  ignore (commit_exn tc);
  ignore (commit_exn td)

let test_revalidation_conflict () =
  (* write sets are disjoint, but the staged op no longer applies: a
     concurrent commit deleted the object the reference points at *)
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let o = new_employee t0 1 in
  ignore (commit_exn t0);
  let ta = Mvcc.begin_ s and tb = Mvcc.begin_ s in
  Mvcc.delete ta o;
  Mvcc.set_attr tb o (at "ssn") (Value.Int 9);
  ignore (commit_exn ta);
  match Mvcc.commit tb with
  | Ok _ -> Alcotest.fail "write to a deleted object must conflict"
  | Error (Mvcc.Conflict _) -> ()
  | Error (Mvcc.Invalid m) -> Alcotest.failf "expected conflict, got invalid: %s" m

let test_uncontended_commit_publishes_view () =
  (* nothing committed since begin_: the head that commit publishes is
     exactly the txn's own view *)
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let o = new_employee t0 1 in
  ignore (commit_exn t0);
  let t1 = Mvcc.begin_ s in
  let o2 = new_employee t1 2 in
  Mvcc.set_attr t1 o (at "ssn") (Value.Int 11);
  Mvcc.set_attr t1 o2 (at "pay_rate") (Value.Float 12.5);
  Mvcc.delete t1 o;
  let view = Mvcc.dump (Mvcc.view t1) in
  Alcotest.(check int) "version 2" 2 (commit_exn t1);
  let head = Mvcc.head s ~branch:Mvcc.main_branch in
  Alcotest.(check string) "head dumps as the view" view (Mvcc.dump head);
  Alcotest.(check int) "head carries the new version" 2 (Mvcc.version head);
  Alcotest.(check int) "oid allocation carried over" (Mvcc.next_oid (Mvcc.view t1))
    (Mvcc.next_oid head)

let test_abort_and_read_only () =
  let s = Mvcc.create schema in
  let t1 = Mvcc.begin_ s in
  ignore (new_employee t1 1);
  Mvcc.abort t1;
  Alcotest.(check int) "abort publishes nothing" 0
    (Mvcc.count (Mvcc.head s ~branch:Mvcc.main_branch));
  (match Mvcc.commit t1 with
  | Error (Mvcc.Invalid _) -> ()
  | _ -> Alcotest.fail "committing an aborted txn must be invalid");
  (* read-only commits do not bump the version *)
  let t2 = Mvcc.begin_ s in
  Alcotest.(check int) "read-only commit" 0 (commit_exn t2);
  Alcotest.(check int) "version unchanged" 0 (Mvcc.current_version s)

let test_staging_failure_keeps_txn_open () =
  let s = Mvcc.create schema in
  let t1 = Mvcc.begin_ s in
  let o = new_employee t1 1 in
  (match Mvcc.set_attr t1 o (at "nonexistent") (Value.Int 1) with
  | () -> Alcotest.fail "bad attr must raise"
  | exception Database.Store_error _ -> ());
  (* the failed op left no trace; the transaction still commits *)
  Alcotest.(check int) "still one object staged" 1 (Mvcc.count (Mvcc.view t1));
  ignore (commit_exn t1)

let test_branches () =
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let o = new_employee t0 1 in
  ignore (commit_exn t0);
  ignore (Mvcc.fork s ~from_:Mvcc.main_branch ~branch:"dev");
  (* same-object writes on different branches are independent *)
  let tm = Mvcc.begin_ s and td = Mvcc.begin_ ~branch:"dev" s in
  Mvcc.set_attr tm o (at "ssn") (Value.Int 100);
  Mvcc.set_attr td o (at "ssn") (Value.Int 200);
  ignore (commit_exn tm);
  ignore (commit_exn td);
  Alcotest.(check string) "main head" "100"
    (Dump.value_to_string
       (Mvcc.get_attr (Mvcc.head s ~branch:Mvcc.main_branch) o (at "ssn")));
  Alcotest.(check string) "dev head" "200"
    (Dump.value_to_string (Mvcc.get_attr (Mvcc.head s ~branch:"dev") o (at "ssn")));
  Alcotest.(check (list (pair string int))) "branches listed"
    [ ("dev", 3); ("main", 2) ]
    (Mvcc.branches s)

(* ---- head publication ---------------------------------------------- *)

(* Heads are published atomically and read without the store lock:
   reader domains polling [head] while a writer commits must see
   versions that never go backwards, each a whole committed state. *)
let test_head_lock_free_readers () =
  let rows = 10 and rounds = 300 in
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let oids = List.init rows (fun _ -> new_employee t0 0) in
  ignore (commit_exn t0);
  let started = Atomic.make 0 and stop = Atomic.make false in
  (* the writer's invariant: every row carries the same ssn *)
  let consistent snap =
    match List.map (fun o -> Mvcc.get_attr snap o (at "ssn")) oids with
    | [] -> true
    | v :: rest -> List.for_all (Value.equal v) rest
  in
  let reader () =
    let last = ref 0 and bad = ref 0 and reads = ref 0 in
    Atomic.incr started;
    while not (Atomic.get stop) do
      let h = Mvcc.head s ~branch:Mvcc.main_branch in
      if Mvcc.version h < !last || not (consistent h) then incr bad;
      last := Mvcc.version h;
      incr reads
    done;
    (!reads, !bad)
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  Fun.protect
    ~finally:(fun () -> Atomic.set stop true)
    (fun () ->
      while Atomic.get started < 2 do Domain.cpu_relax () done;
      for k = 1 to rounds do
        let t = Mvcc.begin_ s in
        List.iter (fun o -> Mvcc.set_attr t o (at "ssn") (Value.Int k)) oids;
        ignore (commit_exn t)
      done);
  let results = List.map Domain.join readers in
  Alcotest.(check bool) "readers ran" true (List.for_all (fun (r, _) -> r > 0) results);
  Alcotest.(check int) "monotone, consistent heads" 0
    (List.fold_left (fun n (_, b) -> n + b) 0 results);
  Alcotest.(check int) "last head" (rounds + 1)
    (Mvcc.version (Mvcc.head s ~branch:Mvcc.main_branch))

(* [stage] runs on session domains without the store lock, and
   validation reads the memoized [Schema_index] layouts.  Domains that
   stage the first [new]s over a freshly compiled index race to fill
   the same memo cells; every staged row must equal a sequential run's. *)
let test_concurrent_staging () =
  let open Tdp_core in
  let schema =
    Tdp_synth.Synth.generate { Tdp_synth.Synth.default with n_types = 48; attrs_per_type = 3 }
  in
  let h = Schema.hierarchy schema in
  let types = Hierarchy.type_names h in
  let init_of ty =
    List.mapi (fun i a -> (Attribute.name a, Value.Int i)) (Hierarchy.all_attributes h ty)
  in
  let rows_of s =
    let t = Mvcc.begin_ s in
    let rows =
      List.map (fun ty -> Mvcc.slots (Mvcc.view t) (Mvcc.new_object t ty ~init:(init_of ty))) types
    in
    Mvcc.abort t;
    rows
  in
  let expected = rows_of (Mvcc.create schema) in
  let k = 4 in
  for _ = 1 to 10 do
    (* a fresh store compiles a fresh index: every memo cell is empty *)
    let s = Mvcc.create schema in
    let ready = Atomic.make 0 in
    let worker () =
      Atomic.incr ready;
      while Atomic.get ready < k do Domain.cpu_relax () done;
      rows_of s
    in
    List.iter
      (fun rows ->
        Alcotest.(check bool) "staged rows equal the sequential run's" true
          (List.equal (Attr_name.Map.equal Value.equal) expected rows))
      (List.map Domain.join (List.init k (fun _ -> Domain.spawn worker)))
  done

let ssn_on s branch o =
  Dump.value_to_string (Mvcc.get_attr (Mvcc.head s ~branch) o (at "ssn"))

let test_head_of_forked_branches () =
  with_temp_dir (fun dir ->
      let s = (Mvcc.open_dir ~load_schema ~sync:false ~schema dir).Mvcc.store in
      let t = Mvcc.begin_ s in
      let o = new_employee t 1 in
      ignore (commit_exn t);
      Alcotest.(check int) "fork version" 1
        (Mvcc.fork s ~from_:Mvcc.main_branch ~branch:"dev");
      Alcotest.(check string) "head of a forked branch" "1" (ssn_on s "dev" o);
      let t = Mvcc.begin_ ~branch:"dev" s in
      Mvcc.set_attr t o (at "ssn") (Value.Int 5);
      ignore (commit_exn t);
      Alcotest.(check string) "dev moved" "5" (ssn_on s "dev" o);
      Alcotest.(check string) "main did not" "1" (ssn_on s Mvcc.main_branch o);
      Mvcc.close s;
      (* recovery re-creates dev from its logged fork record *)
      let s = (Mvcc.open_dir ~load_schema ~sync:false ~schema dir).Mvcc.store in
      Alcotest.(check (list (pair string int))) "branches replayed"
        [ ("dev", 2); ("main", 1) ] (Mvcc.branches s);
      Alcotest.(check string) "head of a replayed fork" "5" (ssn_on s "dev" o);
      Alcotest.(check string) "main replayed" "1" (ssn_on s Mvcc.main_branch o);
      Alcotest.check_raises "unknown branch"
        (Database.Store_error "unknown branch nope") (fun () ->
          ignore (Mvcc.head s ~branch:"nope"));
      Mvcc.close s)

(* Recovery settles forked branches that share one replayed base.  New
   strings on both sides of a fork, and a schema swap on the fork, must
   come back as each branch wrote them: a string interned on one branch
   never takes an id another branch already gave its own string. *)
let test_forked_strings_survive_reopen () =
  with_temp_dir (fun dir ->
      let open_store () = (Mvcc.open_dir ~load_schema ~sync:false ~schema dir).Mvcc.store in
      let name s branch o =
        Dump.value_to_string (Mvcc.get_attr (Mvcc.head s ~branch) o (at "name"))
      in
      let named s branch str =
        Mvcc.instances (Mvcc.head s ~branch)
          (Tdp_algebra.View.Select
             ( Tdp_algebra.View.Base (ty "Employee"),
               Tdp_algebra.Pred.Cmp
                 { attr = at "name"; op = Tdp_algebra.Pred.Eq; value = Tdp_core.Body.String str }
             ))
        |> List.map Tdp_store.Oid.to_int
      in
      let set s branch o str =
        let t = Mvcc.begin_ ~branch s in
        Mvcc.set_attr t o (at "name") (Value.String str);
        ignore (commit_exn t)
      in
      let s = open_store () in
      let t = Mvcc.begin_ s in
      let o1 = Mvcc.new_object t (ty "Employee") ~init:[ (at "name", Value.String "x") ] in
      let o2 = Mvcc.new_object t (ty "Employee") ~init:[ (at "name", Value.String "x") ] in
      ignore (commit_exn t);
      ignore (Mvcc.fork s ~from_:Mvcc.main_branch ~branch:"dev");
      ignore (Mvcc.fork s ~from_:Mvcc.main_branch ~branch:"swap");
      set s "dev" o1 "d";
      set s Mvcc.main_branch o1 "m";
      let t = Mvcc.begin_ ~branch:"swap" s in
      Mvcc.set_schema t ~source:(Tdp_lang.Printer.print Tdp_paper.Fig1.schema);
      Mvcc.set_attr t o1 (at "name") (Value.String "w");
      ignore (commit_exn t);
      let dumps s = List.map (fun (b, _) -> Mvcc.dump (Mvcc.head s ~branch:b)) (Mvcc.branches s) in
      let want = dumps s in
      Mvcc.close s;
      let s = open_store () in
      Alcotest.(check (list string)) "every branch recovers its own state" want (dumps s);
      List.iter
        (fun (branch, str, other) ->
          Alcotest.(check string) (branch ^ " reads its string") (Fmt.str "%S" str)
            (name s branch o1);
          Alcotest.(check (list int)) (branch ^ " selects its string") [ 1 ] (named s branch str);
          Alcotest.(check (list int)) (branch ^ " does not select another's") []
            (named s branch other);
          (* a new write of another branch's string reads back as written *)
          set s branch o2 other;
          Alcotest.(check string) (branch ^ " writes another's string") (Fmt.str "%S" other)
            (name s branch o2);
          Alcotest.(check (list int)) (branch ^ " selects it") [ 2 ] (named s branch other))
        [ ("dev", "d", "m"); (Mvcc.main_branch, "m", "w"); ("swap", "w", "d") ];
      let want = dumps s in
      Mvcc.close s;
      let s = open_store () in
      Alcotest.(check (list string)) "and again after those writes" want (dumps s);
      Mvcc.close s)

let test_head_after_close () =
  let s = Mvcc.create schema in
  ignore (Mvcc.head s ~branch:Mvcc.main_branch);
  Mvcc.close s;
  Alcotest.check_raises "closed" (Database.Store_error "store is closed") (fun () ->
      ignore (Mvcc.head s ~branch:Mvcc.main_branch))

(* ---- snapshot instances ≡ a per-object evaluator over a Database ---- *)

module View = Tdp_algebra.View
module Pred = Tdp_algebra.Pred
module Body = Tdp_core.Body

let person_attrs = [ "ssn"; "name"; "date_of_birth" ]
let employee_attrs = person_attrs @ [ "pay_rate"; "hrs_worked" ]

(* View expressions paired with the attributes they carry, so
   predicates and projections only name available ones (literals of
   any kind: comparisons are total). *)
let view_gen =
  QCheck.Gen.(
    let atom attrs =
      map3
        (fun a op v -> Pred.Cmp { attr = at a; op; value = v })
        (oneofl attrs)
        (oneofl Pred.[ Eq; Ne; Lt; Le; Gt; Ge ])
        (frequency
           [ (3, map (fun i -> Body.Int i) (int_range 0 20));
             (2, map (fun f -> Body.Float f) (oneofl [ 1.5; 20.0; 1975.0 ]));
             (2, map (fun s -> Body.String s) (oneofl [ "a"; "bob"; "late" ]));
             (1, return Body.Null)
           ])
    in
    let rec pred attrs depth =
      if attrs = [] then return Pred.True
      else if depth = 0 then atom attrs
      else
        frequency
          [ (3, atom attrs);
            (1, return Pred.True);
            (2, map2 (fun a b -> Pred.And (a, b)) (pred attrs (depth - 1)) (pred attrs (depth - 1)));
            (2, map2 (fun a b -> Pred.Or (a, b)) (pred attrs (depth - 1)) (pred attrs (depth - 1)));
            (1, map (fun a -> Pred.Not a) (pred attrs (depth - 1)))
          ]
    in
    let rec expr depth =
      let base =
        oneofl
          [ (View.Base (ty "Person"), person_attrs);
            (View.Base (ty "Employee"), employee_attrs)
          ]
      in
      if depth = 0 then base
      else
        let sub = expr (depth - 1) in
        frequency
          [ (2, base);
            ( 2,
              sub >>= function
              | e, [] -> return (e, [])
              | e, (first :: _ as attrs) ->
                  map
                    (fun keep ->
                      let kept = List.filteri (fun i _ -> List.nth keep i) attrs in
                      let kept = if kept = [] then [ first ] else kept in
                      (View.Project (e, List.map at kept), kept))
                    (list_repeat (List.length attrs) bool) );
            ( 3,
              sub >>= fun (e, attrs) ->
              map (fun p -> (View.Select (e, p), attrs)) (pred attrs 2) );
            ( 2,
              map2
                (fun (a, ra) (b, rb) ->
                  (View.Generalize (a, b), List.filter (fun x -> List.mem x rb) ra))
                sub sub );
            (* no identity instances: every evaluator must fail alike *)
            ( 1,
              map2
                (fun (a, ra) (b, rb) ->
                  (View.Join (a, b), ra @ List.filter (fun x -> not (List.mem x ra)) rb))
                sub sub )
          ]
    in
    map fst (expr 3))

(* The oracle is a plain columnar [Database] fed the same ops as the
   store, op by op; the store commits every few ops, so its heads carry
   deltas on both sides of compactions (the store compacts every 64
   distinct writes at this size, and at once on a schema swap).
   Deletes leave tombstones over base rows, [new] makes Persons,
   Employees (a subtype) and Teams (references), sets hit the
   predicated attributes, and the name "late" is only ever set — so a
   predicate on it finds no id in a base's string pool until a
   compaction folds it in.  Views are answered three ways: by
   [Mvcc.instances] over the head, by [View.instances] over the
   Database, and by [Instances_oracle], the per-object evaluator that
   shares no code with [View.instances_with]; all three must agree.
   Every pinned head must still answer as it did when it was
   published. *)

open Tdp_core

let team_def =
  Type_def.make
    ~attrs:
      [ Attribute.make (at "manager") (Value_type.named (ty "Employee"));
        Attribute.make (at "buddy") (Value_type.named (ty "Person"))
      ]
    (ty "Team")

let team_schema = Schema.add_type schema team_def
let evolved_team_schema = Schema.add_type (Tdp_paper.Fig1.project ()).schema team_def

type sop =
  | S_new of string * (string * Value.t) list
  | S_set of int * string * Value.t
  | S_ref of int * string * int
  | S_del of int * Database.delete_policy
  | S_schema
  | S_commit

let pp_sop ppf = function
  | S_new (t, init) ->
      Fmt.pf ppf "new %s %a" t
        Fmt.(list ~sep:sp (pair ~sep:(any "=") string Value.pp))
        init
  | S_set (k, a, v) -> Fmt.pf ppf "set %d.%s = %a" k a Value.pp v
  | S_ref (k, a, j) -> Fmt.pf ppf "set %d.%s = ->%d" k a j
  | S_del (k, p) -> Fmt.pf ppf "del %d%s" k (if p = Database.Nullify then " nullify" else "")
  | S_schema -> Fmt.string ppf "schema"
  | S_commit -> Fmt.string ppf "commit"

let sop_gen =
  QCheck.Gen.(
    let pick = int_range 0 999 in
    let name = oneofl [ "a"; "bob"; "zzz" ] in
    let person =
      map2
        (fun ssn n -> [ ("ssn", Value.Int ssn); ("name", Value.String n) ])
        (int_range 0 20) name
    in
    frequency
      [ (3, map (fun i -> S_new ("Person", i)) person);
        ( 4,
          map2
            (fun i r -> S_new ("Employee", i @ [ ("pay_rate", Value.Float r) ]))
            person
            (oneofl [ 0.0; 1.5; 20.0; 50.0 ]) );
        (1, return (S_new ("Team", [])));
        (3, map2 (fun k v -> S_set (k, "ssn", Value.Int v)) pick (int_range 0 20));
        ( 2,
          map2
            (fun k n -> S_set (k, "name", Value.String n))
            pick
            (oneofl [ "a"; "bob"; "late" ]) );
        (2, map3 (fun k a j -> S_ref (k, a, j)) pick (oneofl [ "manager"; "buddy" ]) pick);
        ( 2,
          map2
            (fun k p -> S_del (k, p))
            pick
            (oneofl [ Database.Restrict; Database.Nullify ]) );
        (1, return S_schema);
        (2, return S_commit)
      ])

(* Per view: its instances, or the failure. *)
let answers views inst =
  List.map
    (fun e ->
      match inst e with
      | l -> Ok (List.map Tdp_store.Oid.to_int l)
      | exception (Database.Store_error m) -> Error m
      | exception Error.E _ -> Error "error")
    views

let check_against_oracle ~what snap db views =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) what in
  let ints = List.map Tdp_store.Oid.to_int in
  let h = Database.hierarchy db in
  let types = Hierarchy.type_names h in
  if Mvcc.count snap <> Database.count db then
    fail "count %d, oracle %d" (Mvcc.count snap) (Database.count db);
  let all = List.sort_uniq compare (List.concat_map (fun t -> ints (Mvcc.extent snap t)) types) in
  if Mvcc.count snap <> List.length all then
    fail "count %d, but the extents hold %d" (Mvcc.count snap) (List.length all);
  List.iter
    (fun t ->
      if ints (Mvcc.extent snap t) <> ints (Database.extent db t) then
        fail "extent %s differs" (Type_name.to_string t))
    types;
  for k = 1 to Database.next_oid db do
    let o = oid k in
    let slots f x = try Some (f x o) with Database.Store_error _ -> None in
    if
      not
        (Option.equal (Attr_name.Map.equal Value.equal) (slots Mvcc.slots snap)
           (slots Database.slots db))
    then fail "slots of #%d differ" k;
    if Mvcc.referrers snap o <> Database.referrers db o then fail "referrers of #%d differ" k
  done;
  let want = answers views (Instances_oracle.instances db) in
  if answers views (Mvcc.instances snap) <> want then fail "Mvcc.instances ≠ the oracle";
  if answers views (View.instances db) <> want then fail "View.instances ≠ the oracle";
  true

let prop_snapshot_oracle =
  QCheck.Test.make ~name:"Mvcc ≡ a Database fed the same ops" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 20 300) sop_gen) (list_size (return 4) view_gen))
       ~print:(fun (ops, views) ->
         Fmt.str "%a@.views: %a" Fmt.(list ~sep:cut pp_sop) ops
           Fmt.(list ~sep:semi View.pp_expr) views))
    (fun (ops, views) ->
      let store = Mvcc.create ~load_schema:(fun _ -> evolved_team_schema) team_schema in
      let db = Database.create team_schema in
      let txn = ref (Mvcc.begin_ store) in
      let pinned = ref [] in
      let commit () =
        ignore (commit_exn !txn);
        let snap = Mvcc.head store ~branch:Mvcc.main_branch in
        ignore (check_against_oracle ~what:"head" snap db views);
        pinned :=
          (snap, Dump.to_string db, answers views (Instances_oracle.instances db)) :: !pinned;
        txn := Mvcc.begin_ store
      in
      (* one op on both sides: the same verdict, and the same oid *)
      let both what f g =
        let r f = match f () with x -> Ok x | exception Database.Store_error m -> Error m in
        let a = r f and b = r g in
        if a <> b then QCheck.Test.fail_reportf "%s: store and oracle disagree" what
      in
      let target k = oid (1 + (k mod max 1 (Database.next_oid db - 1))) in
      List.iter
        (fun op ->
          let what = Fmt.str "%a" pp_sop op in
          match op with
          | S_commit -> commit ()
          | S_schema ->
              Mvcc.set_schema !txn ~source:"evolved";
              Database.set_schema db evolved_team_schema
          | S_new (t, init) ->
              let init = List.map (fun (a, v) -> (at a, v)) init in
              both what
                (fun () -> Mvcc.new_object !txn (ty t) ~init)
                (fun () -> Database.new_object db (ty t) ~init)
          | S_set (k, a, v) ->
              both what
                (fun () -> Mvcc.set_attr !txn (target k) (at a) v)
                (fun () -> Database.set_attr db (target k) (at a) v)
          | S_ref (k, a, j) ->
              let v = Value.Ref (target j) in
              both what
                (fun () -> Mvcc.set_attr !txn (target k) (at a) v)
                (fun () -> Database.set_attr db (target k) (at a) v)
          | S_del (k, policy) ->
              both what
                (fun () -> Mvcc.delete !txn ~policy (target k))
                (fun () -> Database.delete db ~policy (target k)))
        ops;
      commit ();
      List.for_all
        (fun (snap, dump, want) ->
          (Mvcc.dump snap = dump && answers views (Mvcc.instances snap) = want)
          || QCheck.Test.fail_reportf "pinned version %d changed" (Mvcc.version snap))
        !pinned)

(* A commit compacts once the delta reaches its threshold; a schema
   swap compacts at once; recovery folds its replayed delta in place;
   and [to_database] hands out a copy the snapshot never sees again. *)
let test_compaction_points () =
  with_temp_dir (fun dir ->
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      let s = o.Mvcc.store in
      let head () = Mvcc.head s ~branch:Mvcc.main_branch in
      let sizes =
        List.init 100 (fun k ->
            let t = Mvcc.begin_ s in
            ignore (new_employee t k);
            ignore (commit_exn t);
            Mvcc.delta_size (head ()))
      in
      Alcotest.(check bool) "the delta grows, then a commit compacts it" true
        (List.mem 0 sizes && List.exists (fun n -> n > 1) sizes);
      Alcotest.(check int) "count" 100 (Mvcc.count (head ()));
      let before = Mvcc.dump (head ()) in
      let db = Mvcc.to_database (head ()) in
      Database.set_attr db (oid 1) (at "ssn") (Value.Int 99);
      ignore (Database.new_object db (ty "Employee") ~init:[]);
      Alcotest.(check string) "to_database is a copy" before (Mvcc.dump (head ()));
      let t = Mvcc.begin_ s in
      Mvcc.set_attr t (oid 1) (at "ssn") (Value.Int 7);
      Mvcc.set_schema t ~source:(Tdp_lang.Printer.print (Tdp_paper.Fig1.project ()).schema);
      Alcotest.(check int) "a schema swap compacts at once" 0 (Mvcc.delta_size (Mvcc.view t));
      ignore (commit_exn t);
      let t = Mvcc.begin_ s in
      Mvcc.set_attr t (oid 2) (at "ssn") (Value.Int 8);
      ignore (commit_exn t);
      let want = Mvcc.dump (head ()) in
      Alcotest.(check bool) "a delta before the restart" true (Mvcc.delta_size (head ()) > 0);
      Mvcc.close s;
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      let h = Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch in
      Alcotest.(check int) "recovery starts with an empty delta" 0 (Mvcc.delta_size h);
      Alcotest.(check string) "and the same state" want (Mvcc.dump h);
      Mvcc.close o.Mvcc.store)

(* Reader domains scan and read pinned snapshots while a writer domain
   commits through many compactions; each read must equal the oracle
   state of its snapshot's version — so no compaction ever writes a
   base a published snapshot holds.  The writer's script and the state
   after every version are fixed up front. *)
let test_compaction_under_readers () =
  let n = 1000 and commits = 400 and low = 200 in
  let db = Database.create schema in
  for i = 0 to n - 1 do
    ignore (Database.new_object db (ty "Employee") ~init:[ (at "ssn", Value.Int i) ])
  done;
  let s = Mvcc.of_database db in
  let rng = Random.State.make [| 23 |] in
  let states = Array.make (commits + 1) Tdp_store.Oid.Map.empty in
  for k = 1 to n do
    states.(0) <- Tdp_store.Oid.Map.add (oid k) (k - 1) states.(0)
  done;
  let next = ref (n + 1) in
  let script =
    Array.init commits (fun i ->
        let live = Array.of_list (List.map fst (Tdp_store.Oid.Map.bindings states.(i))) in
        let any () = live.(Random.State.int rng (Array.length live)) in
        let sets =
          List.init 3 (fun _ ->
              Database.Op_set
                { oid = any (); attr = at "ssn"; value = Value.Int (Random.State.int rng 4000) })
        in
        let fresh =
          if i mod 3 = 0 then begin
            let o = oid !next in
            incr next;
            [ Database.Op_new
                { oid = o; ty = ty "Employee";
                  init = [ (at "ssn", Value.Int (Random.State.int rng 4000)) ] } ]
          end
          else []
        in
        let gone =
          if i mod 5 = 4 then [ Database.Op_delete { oid = any (); policy = Database.Restrict } ]
          else []
        in
        let ops = sets @ fresh @ gone in
        states.(i + 1) <-
          List.fold_left
            (fun m (op : Database.op) ->
              match op with
              | Op_set { oid; value = Value.Int v; _ }
              | Op_new { oid; init = [ (_, Value.Int v) ]; _ } ->
                  Tdp_store.Oid.Map.add oid v m
              | Op_delete { oid; _ } -> Tdp_store.Oid.Map.remove oid m
              | _ -> m)
            states.(i) ops;
        ops)
  in
  let select =
    View.Select (View.Base (ty "Employee"), Pred.Cmp { attr = at "ssn"; op = Lt; value = Body.Int low })
  in
  (* per version: the selection, four point reads (deleted and fresh OIDs
     included), and the count *)
  let probes v = List.init 4 (fun j -> oid (1 + (((v * 37) + (j * 571)) mod (n + 200)))) in
  let observe snap =
    let ssn o =
      match Mvcc.get_attr snap o (at "ssn") with
      | Value.Int v -> Some v
      | _ -> None
      | exception Database.Store_error _ -> None
    in
    ( Mvcc.version snap,
      List.map Tdp_store.Oid.to_int (Mvcc.instances snap select),
      List.map ssn (probes (Mvcc.version snap)),
      Mvcc.count snap )
  in
  let expect (v, _, _, _) =
    let m = states.(v) in
    ( v,
      Tdp_store.Oid.Map.fold
        (fun o x acc -> if x < low then Tdp_store.Oid.to_int o :: acc else acc)
        m []
      |> List.rev,
      List.map (fun o -> Tdp_store.Oid.Map.find_opt o m) (probes v),
      Tdp_store.Oid.Map.cardinal m )
  in
  let started = Atomic.make 0 and stop = Atomic.make false in
  let reader () =
    Atomic.incr started;
    let first = Mvcc.head s ~branch:Mvcc.main_branch in
    let seen = ref [ observe first ] in
    while not (Atomic.get stop) do
      seen := observe (Mvcc.head s ~branch:Mvcc.main_branch) :: !seen
    done;
    (* the first pinned snapshot, read again after every compaction *)
    observe first :: !seen
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  let compactions = ref 0 in
  Fun.protect
    ~finally:(fun () -> Atomic.set stop true)
    (fun () ->
      while Atomic.get started < 2 do Domain.cpu_relax () done;
      let writer () =
        Array.iteri
          (fun i ops ->
            let before = Mvcc.delta_size (Mvcc.head s ~branch:Mvcc.main_branch) in
            let t = Mvcc.begin_ s in
            List.iter (Mvcc.stage t) ops;
            Alcotest.(check int) "version" (i + 1) (commit_exn t);
            if Mvcc.delta_size (Mvcc.head s ~branch:Mvcc.main_branch) < before then
              incr compactions)
          script
      in
      Domain.join (Domain.spawn writer));
  let seen = List.concat_map Domain.join readers in
  Alcotest.(check bool) "several compactions" true (!compactions >= 5);
  Alcotest.(check bool) "readers saw many versions" true
    (List.length (List.sort_uniq compare (List.map (fun (v, _, _, _) -> v) seen)) > 1);
  List.iter
    (fun obs ->
      let v, _, _, _ = obs in
      if obs <> expect obs then Alcotest.failf "a read at version %d differs from the oracle" v)
    seen

(* ---- durability: log round-trip, dangling brackets, fault injection - *)

(* Run a canonical history against a directory-backed store: three
   committed transactions and one conflict-abort.  Returns the dump
   after each commit (the oracle states). *)
let canonical_history dir =
  let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
  let s = o.Mvcc.store in
  let dumps = ref [ Mvcc.dump (Mvcc.head s ~branch:Mvcc.main_branch) ] in
  let snap () =
    dumps := Mvcc.dump (Mvcc.head s ~branch:Mvcc.main_branch) :: !dumps
  in
  let t1 = Mvcc.begin_ s in
  let o1 = new_employee t1 1 in
  Mvcc.set_attr t1 o1 (at "pay_rate") (Value.Float (0.1 +. 0.2));
  ignore (commit_exn t1);
  snap ();
  let t2 = Mvcc.begin_ s in
  ignore (new_employee t2 2);
  Mvcc.set_attr t2 o1 (at "hrs_worked") (Value.Float 40.0);
  ignore (commit_exn t2);
  snap ();
  (* a conflict: its abort record lands in the log *)
  let ta = Mvcc.begin_ s and tb = Mvcc.begin_ s in
  Mvcc.set_attr ta o1 (at "ssn") (Value.Int 7);
  Mvcc.set_attr tb o1 (at "ssn") (Value.Int 8);
  ignore (commit_exn ta);
  snap ();
  (match Mvcc.commit tb with
  | Error (Mvcc.Conflict _) -> ()
  | _ -> Alcotest.fail "expected a conflict");
  Mvcc.close s;
  (o1, Array.of_list (List.rev !dumps))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_reopen_replays_commits () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "three commits replayed" 3 o.Mvcc.txn_applied;
      Alcotest.(check int) "none discarded" 0 o.Mvcc.txn_discarded;
      Alcotest.(check bool) "clean" true (o.Mvcc.txn_corruption = None);
      Alcotest.(check string) "state is the last commit" dumps.(3)
        (Mvcc.dump (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch));
      Alcotest.(check int) "version restored" 3
        (Mvcc.current_version o.Mvcc.store);
      (* identities are never reused across recovery *)
      let t = Mvcc.begin_ o.Mvcc.store in
      let o3 = new_employee t 3 in
      Alcotest.(check bool) "fresh oid above every logged one" true
        (Tdp_store.Oid.to_int o3 >= 3);
      ignore (commit_exn t);
      Mvcc.close o.Mvcc.store)

let test_dangling_bracket_discarded () =
  with_temp_dir (fun dir ->
      let o1, dumps = canonical_history dir in
      (* crash mid-commit: a begin and its ops hit the log, the commit
         record did not *)
      let txid = 99 in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644
          (Filename.concat dir "txn.log") in
      let next =
        (Txn_log.decode (read_file (Filename.concat dir "txn.log"))).Wal.fnext_seq
      in
      output_string oc
        (Txn_log.encode ~seq:next
           (Txn_log.Begin { txid; branch = Mvcc.main_branch }));
      output_string oc
        (Txn_log.encode ~seq:(next + 1)
           (Txn_log.Op
              { txid;
                op = Database.Op_set { oid = o1; attr = at "ssn"; value = Value.Int 1234 }
              }));
      close_out oc;
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "commits replayed" 3 o.Mvcc.txn_applied;
      Alcotest.(check int) "dangling bracket discarded" 1 o.Mvcc.txn_discarded;
      Alcotest.(check string) "no torn state" dumps.(3)
        (Mvcc.dump (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch));
      Mvcc.close o.Mvcc.store)

let test_txn_log_truncation_every_offset () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      let log = read_file (Filename.concat dir "txn.log") in
      let d = Txn_log.decode log in
      (* commits whose record ends at or before the cut are durable *)
      let commits_by t =
        List.length
          (List.filter
             (fun (e : Txn_log.record Wal.framed) ->
               e.Wal.fends_at <= t
               && match e.Wal.fvalue with Txn_log.Commit _ -> true | _ -> false)
             d.Wal.fentries)
      in
      for t = 0 to String.length log do
        let o =
          Mvcc.recover_text ~load_schema ~schema ~txn:(String.sub log 0 t) ()
        in
        let k = commits_by t in
        Alcotest.(check int) (Fmt.str "commits after cut at %d" t) k
          o.Mvcc.txn_applied;
        Alcotest.(check string)
          (Fmt.str "state after cut at %d" t)
          dumps.(k)
          (Mvcc.dump (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch))
      done)

(* ---- checkpoint: crash at every step -------------------------------- *)

let test_checkpoint_roundtrip () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Mvcc.checkpoint o.Mvcc.store;
      Mvcc.close o.Mvcc.store;
      (* the log was truncated; the snapshot carries the state *)
      Alcotest.(check string) "log empty after checkpoint" ""
        (read_file (Filename.concat dir "txn.log"));
      let snap = read_file (Filename.concat dir "snapshot.dump") in
      Alcotest.(check bool) "txn-seq header present" true (Dump.txn_seq snap > 0);
      let o2 = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "nothing to replay" 0 o2.Mvcc.txn_applied;
      Alcotest.(check string) "state preserved" dumps.(3)
        (Mvcc.dump (Mvcc.head o2.Mvcc.store ~branch:Mvcc.main_branch));
      (* and the store still accepts commits after the checkpoint *)
      let t = Mvcc.begin_ o2.Mvcc.store in
      ignore (new_employee t 50);
      ignore (commit_exn t);
      Mvcc.close o2.Mvcc.store;
      let o3 = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "post-checkpoint commit replays" 1 o3.Mvcc.txn_applied;
      Mvcc.close o3.Mvcc.store)

let test_checkpoint_crash_before_rename () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      (* crash between temp-write and rename: an orphaned .tmp sibling
         full of garbage must be removed, never read as a snapshot *)
      let tmp = Filename.concat dir "snapshot.dump.tmp" in
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc "obj #1 Garbage x=nonsense\n");
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check bool) "orphan removed" true o.Mvcc.tmp_removed;
      Alcotest.(check bool) "gone from disk" false (Sys.file_exists tmp);
      Alcotest.(check string) "state from log, not orphan" dumps.(3)
        (Mvcc.dump (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch));
      Mvcc.close o.Mvcc.store)

let test_checkpoint_crash_before_truncate () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      (* crash after the snapshot rename but before the log truncation:
         replay must skip the absorbed prefix, not double-apply it *)
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      let log_before = read_file (Filename.concat dir "txn.log") in
      Mvcc.checkpoint o.Mvcc.store;
      Mvcc.close o.Mvcc.store;
      Out_channel.with_open_bin (Filename.concat dir "txn.log") (fun oc ->
          Out_channel.output_string oc log_before);
      let o2 = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "absorbed prefix skipped" 0 o2.Mvcc.txn_applied;
      Alcotest.(check string) "no double apply" dumps.(3)
        (Mvcc.dump (Mvcc.head o2.Mvcc.store ~branch:Mvcc.main_branch));
      Mvcc.close o2.Mvcc.store)

(* ---- writer failure atomicity (seq counter vs failed appends) ------- *)

let bracket txid =
  [ Txn_log.Begin { txid; branch = Mvcc.main_branch };
    Txn_log.Op
      { txid; op = Op_set { oid = oid 1; attr = at "ssn"; value = Value.Int txid } };
    Txn_log.Commit { txid }
  ]

let test_append_failure_poisons_writer () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "txn.log" in
      let w = Txn_log.writer_create ~sync:true ~path ~next_seq:1 () in
      let r = Txn_log.Commit { txid = 1 } in
      ignore (Txn_log.append w r);
      Alcotest.(check int) "seq advanced to 2" 2 (Wal.writer_seq w);
      let committed = read_file path in
      (* sabotage the writer: close its fd out from under it, so the
         write of the next append fails *)
      Unix.close (Wal.writer_fd w);
      (match Txn_log.append w r with
      | _ -> Alcotest.fail "append on a dead fd must raise"
      | exception _ -> ());
      Alcotest.(check int) "seq NOT advanced by the failed append" 2
        (Wal.writer_seq w);
      Alcotest.(check bool) "writer poisoned" true (Wal.writer_poisoned w);
      (* every later append refuses rather than gapping the sequence *)
      (match Txn_log.append w r with
      | _ -> Alcotest.fail "poisoned writer must refuse"
      | exception Wal.Wal_error _ -> ());
      (* the durable prefix is exactly the committed records *)
      let d = Txn_log.decode (read_file path) in
      Alcotest.(check int) "one committed record" 1 (List.length d.Wal.fentries);
      Alcotest.(check string) "file rolled back to the record boundary"
        committed (read_file path));
  (* the same for a batch: all of it or none of it *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "txn.log" in
      let w = Txn_log.writer_create ~sync:true ~path ~next_seq:1 () in
      Alcotest.(check int) "batch returns its first seq" 1
        (Txn_log.append_batch w (bracket 1));
      Alcotest.(check int) "seq advanced past the batch" 4 (Wal.writer_seq w);
      let committed = read_file path in
      Unix.close (Wal.writer_fd w);
      (match Txn_log.append_batch w (bracket 2) with
      | _ -> Alcotest.fail "batch append on a dead fd must raise"
      | exception _ -> ());
      Alcotest.(check int) "seq NOT advanced by the failed batch" 4 (Wal.writer_seq w);
      Alcotest.(check bool) "writer poisoned by the batch" true (Wal.writer_poisoned w);
      (match Txn_log.append_batch w (bracket 3) with
      | _ -> Alcotest.fail "poisoned writer must refuse a batch"
      | exception Wal.Wal_error _ -> ());
      Alcotest.(check string) "file is the committed prefix" committed (read_file path);
      Alcotest.(check int) "three committed records" 3
        (List.length (Txn_log.decode committed).Wal.fentries))

(* The dead-fd sabotage above fails before a byte reaches the file.  Here
   part of the batch does land: a file-size cap (RLIMIT_FSIZE) a few
   bytes past the committed prefix lets the write store those bytes and
   then fail with EFBIG, so only the rollback can restore the prefix. *)
external set_fsize_limit : int -> int = "tdp_test_set_fsize_limit"

let test_partial_batch_rolled_back () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "txn.log" in
      let w = Txn_log.writer_create ~sync:true ~path ~next_seq:1 () in
      ignore (Txn_log.append_batch w (bracket 1));
      let committed = read_file path in
      let torn = 10 in
      let old_handler = Sys.signal Sys.sigxfsz Sys.Signal_ignore in
      let old_limit = set_fsize_limit (String.length committed + torn) in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            ignore (set_fsize_limit old_limit);
            Sys.set_signal Sys.sigxfsz old_handler)
          (fun () ->
            match Txn_log.append_batch w (bracket 2) with
            | _ -> Ok ()
            | exception exn -> Error exn)
      in
      (match outcome with
      | Error (Unix.Unix_error (Unix.EFBIG, _, _)) -> ()
      | Error exn -> Alcotest.failf "expected EFBIG, got %s" (Printexc.to_string exn)
      | Ok () -> Alcotest.fail "a batch past the size cap must fail");
      Alcotest.(check int) "seq NOT advanced by the torn batch" 4 (Wal.writer_seq w);
      Alcotest.(check bool) "writer poisoned" true (Wal.writer_poisoned w);
      Alcotest.(check string) "torn bytes truncated away" committed (read_file path);
      (* the cap is lifted, and the writer still refuses *)
      (match Txn_log.append_batch w (bracket 3) with
      | _ -> Alcotest.fail "poisoned writer must refuse a batch"
      | exception Wal.Wal_error _ -> ());
      Wal.close w)

let test_failed_commit_append () =
  with_temp_dir (fun dir ->
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      let s = o.Mvcc.store in
      let t1 = Mvcc.begin_ s in
      let o1 = new_employee t1 1 in
      ignore (commit_exn t1);
      let t2 = Mvcc.begin_ s in
      Mvcc.set_attr t2 o1 (at "ssn") (Value.Int 2);
      ignore (commit_exn t2);
      let before = Mvcc.head s ~branch:Mvcc.main_branch in
      let log_before = read_file (Filename.concat dir "txn.log") in
      (match Mvcc.log_writer s with
      | Some w -> Unix.close (Wal.writer_fd w)
      | None -> Alcotest.fail "a directory store has a log writer");
      let t3 = Mvcc.begin_ s in
      Mvcc.set_attr t3 o1 (at "ssn") (Value.Int 3);
      ignore (new_employee t3 4);
      (match Mvcc.commit t3 with
      | _ -> Alcotest.fail "commit on a sabotaged log must raise"
      | exception _ -> ());
      (match Mvcc.state t3 with
      | Mvcc.Aborted _ -> ()
      | _ -> Alcotest.fail "the txn must be aborted");
      Alcotest.(check int) "version unchanged" 2 (Mvcc.current_version s);
      Alcotest.(check bool) "head unchanged" true
        (Mvcc.head s ~branch:Mvcc.main_branch == before);
      Alcotest.(check string) "log unchanged" log_before
        (read_file (Filename.concat dir "txn.log"));
      Mvcc.close s;
      let o2 = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "exactly the earlier commits" 2 o2.Mvcc.txn_applied;
      Alcotest.(check int) "nothing dangling" 0 o2.Mvcc.txn_discarded;
      Alcotest.(check string) "recovered state" (Mvcc.dump before)
        (Mvcc.dump (Mvcc.head o2.Mvcc.store ~branch:Mvcc.main_branch));
      Mvcc.close o2.Mvcc.store)

(* ---- one log: served commits and store appends ---------------------- *)

(* What `odb serve` and `odb store append` do to a directory, in one
   process: a served commit is a bracket of its ops, an append op a
   one-op bracket over the same open, and a read-only dump recovers
   the files.  Both writers share txn.log, so a later writer sees every
   earlier one, whichever kind, in write order. *)
let serve_commit dir f =
  let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
  let t = Mvcc.begin_ o.Mvcc.store in
  f t;
  ignore (commit_exn t);
  Mvcc.close o.Mvcc.store

let store_append dir op =
  let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
  Fun.protect
    ~finally:(fun () -> Mvcc.close o.Mvcc.store)
    (fun () ->
      let t = Mvcc.begin_ o.Mvcc.store in
      Mvcc.stage t op;
      ignore (commit_exn t))

let store_dump dir =
  let file n =
    let p = Filename.concat dir n in
    if Sys.file_exists p then Some (read_file p) else None
  in
  let o =
    Mvcc.recover_text ~load_schema ~schema ?snapshot:(file Mvcc.snapshot_file)
      ?wal:(file Mvcc.wal_file) ?txn:(file Mvcc.txn_file) ()
  in
  Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch

let test_served_and_appended_share_one_log () =
  with_temp_dir (fun dir ->
      let e1 = oid 1 in
      serve_commit dir (fun t ->
          ignore
            (Mvcc.new_object t (ty "Employee")
               ~init:[ (at "ssn", Value.Int 1); (at "name", Value.String "alice") ]));
      serve_commit dir (fun t -> Mvcc.set_attr t e1 (at "pay_rate") (Value.Float 20.0));
      let d = store_dump dir in
      Alcotest.(check int) "dump shows the served commits" 1 (Mvcc.count d);
      Alcotest.(check string) "dump shows the served value" "20.0"
        (Dump.value_to_string (Mvcc.get_attr d e1 (at "pay_rate")));
      (* the appended op that once shadowed #1 is refused, not logged *)
      let log_before = read_file (Filename.concat dir "txn.log") in
      (match
         store_append dir
           (Op_new
              { oid = e1;
                ty = ty "Employee";
                init = [ (at "ssn", Value.Int 2); (at "name", Value.String "bob") ]
              })
       with
      | () -> Alcotest.fail "an append over a served oid must be refused"
      | exception Database.Store_error m ->
          Alcotest.(check string) "refusal" "oid #1 already in use" m);
      Alcotest.(check string) "nothing appended" log_before
        (read_file (Filename.concat dir "txn.log"));
      store_append dir
        (Op_new
           { oid = oid 2;
             ty = ty "Employee";
             init = [ (at "ssn", Value.Int 2); (at "name", Value.String "bob") ]
           });
      (* write order across the two writers: served, then appended *)
      serve_commit dir (fun t -> Mvcc.set_attr t e1 (at "pay_rate") (Value.Float 1.0));
      store_append dir (Op_set { oid = e1; attr = at "pay_rate"; value = Value.Float 2.0 });
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      let head = Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch in
      Alcotest.(check int) "every commit replays" 5 o.Mvcc.txn_applied;
      Alcotest.(check int) "count" 2 (Mvcc.count head);
      Alcotest.(check string) "served name kept" "\"alice\""
        (Dump.value_to_string (Mvcc.get_attr head e1 (at "name")));
      Alcotest.(check string) "appended object kept" "\"bob\""
        (Dump.value_to_string (Mvcc.get_attr head (oid 2) (at "name")));
      Alcotest.(check string) "the later write wins" "2.0"
        (Dump.value_to_string (Mvcc.get_attr head e1 (at "pay_rate")));
      Alcotest.(check string) "the dump agrees" (Mvcc.dump head)
        (Mvcc.dump (store_dump dir));
      Mvcc.close o.Mvcc.store)

(* ---- the retained write-set window ---------------------------------- *)

(* Commit well past 2 x [recent_limit] versions on one hot object.  At
   every version v, a transaction pinned at base v - 1024 still sees
   the whole history since its base: it conflicts by first-writer-wins
   on the hot object, and commits when it touches a cold one.  A
   transaction pinned at the start falls below the floor once the
   window is trimmed. *)
let test_write_set_window () =
  let limit = 1024 in
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let hot = new_employee t0 0 and cold = new_employee t0 1 in
  ignore (commit_exn t0);
  let ancient = Mvcc.begin_ s in
  Mvcc.set_attr ancient cold (at "ssn") (Value.Int (-1));
  let pinned = Hashtbl.create 64 in
  let versions = (2 * limit) + 200 in
  for i = 1 to versions do
    (* one txn per base version, each held open [limit] versions *)
    let t = Mvcc.begin_ s in
    Hashtbl.replace pinned (Mvcc.version (Mvcc.view t)) t;
    let w = Mvcc.begin_ s in
    Mvcc.set_attr w hot (at "ssn") (Value.Int i);
    let v = commit_exn w in
    match Hashtbl.find_opt pinned (v - limit) with
    | None -> ()
    | Some t -> (
        Hashtbl.remove pinned (v - limit);
        Mvcc.set_attr t hot (at "ssn") (Value.Int (-i));
        match Mvcc.commit t with
        | Error (Mvcc.Conflict reason) ->
            if not (String.starts_with ~prefix:"write set intersects version" reason) then
              Alcotest.failf "version %d, base %d: %s" v (v - limit) reason
        | Ok _ -> Alcotest.failf "version %d: a lost update committed" v
        | Error (Mvcc.Invalid m) -> Alcotest.failf "version %d: %s" v m)
  done;
  (* inside the window, a disjoint write set commits *)
  (match Hashtbl.find_opt pinned (versions - limit + 2) with
  | None -> Alcotest.fail "no transaction pinned inside the window"
  | Some t ->
      Mvcc.set_attr t cold (at "ssn") (Value.Int 7);
      ignore (commit_exn t));
  match Mvcc.commit ancient with
  | Error (Mvcc.Conflict reason) ->
      let want = "base version 1 predates the retained write-set history" in
      if not (String.starts_with ~prefix:want reason) then
        Alcotest.failf "ancient base: %s" reason
  | Ok _ -> Alcotest.fail "a base below the floor committed"
  | Error (Mvcc.Invalid m) -> Alcotest.fail m

(* ---- on-disk format pin --------------------------------------------- *)

let test_commit_bracket_bytes () =
  with_temp_dir (fun dir ->
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      let s = o.Mvcc.store in
      let t = Mvcc.begin_ s in
      let o1 = new_employee t 1 in
      Mvcc.set_attr t o1 (at "pay_rate") (Value.Float 60.0);
      Mvcc.set_attr t o1 (at "hrs_worked") (Value.Float 40.0);
      ignore (commit_exn t);
      Mvcc.close s;
      let txid = Mvcc.txid t in
      let op op = Txn_log.Op { txid; op } in
      let expected =
        [ Txn_log.Begin { txid; branch = Mvcc.main_branch };
          op
            (Op_new
               { oid = o1;
                 ty = ty "Employee";
                 init = [ (at "ssn", Value.Int 1); (at "name", Value.String "e") ]
               });
          op (Op_set { oid = o1; attr = at "pay_rate"; value = Value.Float 60.0 });
          op (Op_set { oid = o1; attr = at "hrs_worked"; value = Value.Float 40.0 });
          Txn_log.Commit { txid }
        ]
      in
      Alcotest.(check string) "txn.log is the five encoded records"
        (String.concat "" (List.mapi (fun i r -> Txn_log.encode ~seq:(i + 1) r) expected))
        (read_file (Filename.concat dir "txn.log")))

let suite =
  [ Alcotest.test_case "commit publishes a new version" `Quick test_commit_publishes;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "first writer wins" `Quick test_first_writer_wins;
    Alcotest.test_case "revalidation catches read-write races" `Quick
      test_revalidation_conflict;
    Alcotest.test_case "uncontended commit publishes its view" `Quick
      test_uncontended_commit_publishes_view;
    Alcotest.test_case "abort and read-only commits" `Quick test_abort_and_read_only;
    Alcotest.test_case "staging failure keeps the txn open" `Quick
      test_staging_failure_keeps_txn_open;
    Alcotest.test_case "branches are independent" `Quick test_branches;
    Alcotest.test_case "lock-free heads: monotone and whole" `Quick
      test_head_lock_free_readers;
    Alcotest.test_case "concurrent staging over a fresh index" `Quick
      test_concurrent_staging;
    Alcotest.test_case "head of forked and replayed-fork branches" `Quick
      test_head_of_forked_branches;
    Alcotest.test_case "forked strings survive a reopen" `Quick
      test_forked_strings_survive_reopen;
    Alcotest.test_case "head after close" `Quick test_head_after_close;
    QCheck_alcotest.to_alcotest prop_snapshot_oracle;
    Alcotest.test_case "compaction: threshold, schema swap, recovery, copy" `Quick
      test_compaction_points;
    Alcotest.test_case "compaction under reader domains" `Quick
      test_compaction_under_readers;
    Alcotest.test_case "reopen replays committed brackets" `Quick
      test_reopen_replays_commits;
    Alcotest.test_case "dangling bracket discarded (crash mid-commit)" `Quick
      test_dangling_bracket_discarded;
    Alcotest.test_case "txn log truncation at every byte offset" `Quick
      test_txn_log_truncation_every_offset;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint crash before rename (orphaned tmp)" `Quick
      test_checkpoint_crash_before_rename;
    Alcotest.test_case "checkpoint crash before truncate (no double apply)"
      `Quick test_checkpoint_crash_before_truncate;
    Alcotest.test_case "failed append poisons the writer" `Quick
      test_append_failure_poisons_writer;
    Alcotest.test_case "partly written batch is rolled back" `Quick
      test_partial_batch_rolled_back;
    Alcotest.test_case "failed commit append publishes nothing" `Quick
      test_failed_commit_append;
    Alcotest.test_case "commit bracket bytes" `Quick test_commit_bracket_bytes;
    Alcotest.test_case "served commits and store appends share one log" `Quick
      test_served_and_appended_share_one_log;
    Alcotest.test_case "write-set window: first-writer-wins and floor" `Quick
      test_write_set_window
  ]

let () = Alcotest.run "txn" [ ("txn", suite) ]
