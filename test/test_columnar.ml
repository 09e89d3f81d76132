(* Differential and unit tests for the columnar store.

   The columnar engine re-implements [Database] over struct-of-arrays
   blocks while promising "no observable behavior change".  The
   differential suite drives identical random op sequences
   (new/set/delete/set_schema) through the columnar store and a
   map-backed oracle that transcribes the pre-columnar implementation
   verbatim, then asserts identical extents, slots, referrers, error
   outcomes, and dump round-trips.  An [Mvcc] store rides along as a
   third side, each op a one-op transaction: it validates through
   [Database]'s object rules, so its verdicts and error texts must be
   the columnar store's, and its head the oracle's.  Unit tests pin
   the block mechanics the oracle cannot see: free-list reuse, null
   bitmaps, growth, layout routing across schema evolution, vectorized
   scans, and matview dirty-row skipping. *)

open Tdp_core
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Oid = Tdp_store.Oid
module Value = Tdp_store.Value
module Columns = Tdp_store.Columns
module Pred = Tdp_algebra.Pred
module View = Tdp_algebra.View
module Matview = Tdp_algebra.Matview
module Mvcc = Tdp_txn.Mvcc
open Helpers

let team_def =
  Type_def.make
    ~attrs:
      [ Attribute.make (at "manager") (Value_type.named (ty "Employee"));
        Attribute.make (at "buddy") (Value_type.named (ty "Person"))
      ]
    (ty "Team")

let base_schema = Schema.add_type Tdp_paper.Fig1.schema team_def

let evolved_schema =
  let o = Tdp_paper.Fig1.project () in
  Schema.add_type o.schema team_def

(* ---- the map-backed oracle ------------------------------------------ *)

(* A verbatim transcription of the pre-columnar [Database] internals:
   per-object slot maps in a hashtable, extent/referrer scans over the
   whole table.  Only the error messages are dropped ([Err] everywhere)
   — the differential compares error occurrence, not text. *)
module Oracle = struct
  exception Err

  type obj = { o_ty : Type_name.t; mutable o_slots : Value.t Attr_name.Map.t }

  type t = {
    mutable schema : Schema.t;
    mutable index : Schema_index.t;
    mutable next : int;
    objs : (int, obj) Hashtbl.t;
  }

  let create schema =
    { schema;
      index = Schema_index.of_hierarchy (Schema.hierarchy schema);
      next = 1;
      objs = Hashtbl.create 16
    }

  let hierarchy t = Schema.hierarchy t.schema

  let set_schema t s =
    t.schema <- s;
    t.index <- Schema_index.of_hierarchy (Schema.hierarchy s)

  let check_value t attr_ty v =
    match (attr_ty, (v : Value.t)) with
    | _, Value.Null -> ()
    | Value_type.Prim p, v -> if not (Value.conforms_prim v p) then raise Err
    | Value_type.Named n, Value.Ref o -> (
        match Hashtbl.find_opt t.objs (Oid.to_int o) with
        | None -> raise Err
        | Some target ->
            if not (Schema_index.subtype t.index target.o_ty n) then raise Err)
    | Value_type.Named _, _ -> raise Err
    | Value_type.Unknown, _ -> ()

  let build_slots t ty_ ~init =
    if not (Hierarchy.mem (hierarchy t) ty_) then raise Err;
    let attrs = Hierarchy.all_attributes (hierarchy t) ty_ in
    let slots =
      List.fold_left
        (fun slots a ->
          let name = Attribute.name a in
          let v =
            match List.find_opt (fun (n, _) -> Attr_name.equal n name) init with
            | Some (_, v) ->
                check_value t (Attribute.ty a) v;
                v
            | None -> Value.Null
          in
          Attr_name.Map.add name v slots)
        Attr_name.Map.empty attrs
    in
    List.iter
      (fun (n, _) ->
        if
          not (List.exists (fun a -> Attr_name.equal (Attribute.name a) n) attrs)
        then raise Err)
      init;
    slots

  let new_object t ty_ ~init =
    let slots = build_slots t ty_ ~init in
    let oid = t.next in
    t.next <- t.next + 1;
    Hashtbl.replace t.objs oid { o_ty = ty_; o_slots = slots };
    oid

  let find t oid =
    match Hashtbl.find_opt t.objs oid with Some o -> o | None -> raise Err

  let get_attr t oid attr =
    let o = find t oid in
    match Attr_name.Map.find_opt attr o.o_slots with
    | Some v -> v
    | None -> raise Err

  let set_attr t oid attr v =
    let o = find t oid in
    if not (Attr_name.Map.mem attr o.o_slots) then raise Err;
    let def =
      match Hierarchy.find_attribute (hierarchy t) o.o_ty attr with
      | Some a -> a
      | None -> raise Err
    in
    check_value t (Attribute.ty def) v;
    o.o_slots <- Attr_name.Map.add attr v o.o_slots

  let extent t ty_ =
    Hashtbl.fold
      (fun oid o acc ->
        if Schema_index.subtype t.index o.o_ty ty_ then oid :: acc else acc)
      t.objs []
    |> List.sort compare

  let referrers t oid =
    Hashtbl.fold
      (fun other o acc ->
        if other = oid then acc
        else
          Attr_name.Map.fold
            (fun attr v acc ->
              match v with
              | Value.Ref r when Oid.to_int r = oid -> (other, attr) :: acc
              | _ -> acc)
            o.o_slots acc)
      t.objs []
    |> List.sort (fun (a, x) (b, y) ->
           match compare a b with 0 -> Attr_name.compare x y | c -> c)

  let delete t ~(policy : Database.delete_policy) oid =
    let _ = find t oid in
    let refs = referrers t oid in
    (match (policy, refs) with
    | Database.Restrict, _ :: _ -> raise Err
    | _ -> ());
    (match policy with
    | Database.Restrict -> ()
    | Database.Nullify ->
        List.iter
          (fun (other, attr) ->
            let o = find t other in
            o.o_slots <- Attr_name.Map.add attr Value.Null o.o_slots)
          refs);
    Hashtbl.remove t.objs oid
end

(* ---- random op sequences -------------------------------------------- *)

type gop =
  | GNew of string * (string * Value.t) list
  | GSet of int * string * Value.t
  | GDel of int * Database.delete_policy
  | GEvolve

let pp_value v = Fmt.str "%a" Value.pp v

let pp_gop = function
  | GNew (t, init) ->
      Fmt.str "new %s [%s]" t
        (String.concat "; "
           (List.map (fun (a, v) -> a ^ "=" ^ pp_value v) init))
  | GSet (o, a, v) -> Fmt.str "set #%d %s=%s" o a (pp_value v)
  | GDel (o, p) ->
      Fmt.str "del #%d %s" o
        (match p with Database.Restrict -> "restrict" | Nullify -> "nullify")
  | GEvolve -> "evolve"

let value_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun i -> Value.Int i) (int_range (-5) 100));
        (2, map (fun f -> Value.Float f) (oneofl [ 0.0; 1.5; -2.25; 50.0; Float.nan ]));
        (3, map (fun s -> Value.String s) (oneofl [ "a"; "bob"; "x y"; "" ]));
        (1, map (fun b -> Value.Bool b) bool);
        (2, map (fun y -> Value.Date y) (int_range 1950 2030));
        (3, map (fun i -> Value.Ref (Oid.of_int i)) (int_range 1 25));
        (2, return Value.Null)
      ])

let attr_gen =
  QCheck.Gen.oneofl
    [ "ssn"; "name"; "date_of_birth"; "pay_rate"; "hrs_worked"; "manager";
      "buddy"; "bogus"; "nope"
    ]

let type_gen =
  QCheck.Gen.(
    frequency
      [ (4, return "Employee"); (3, return "Person"); (3, return "Team");
        (2, return "Employee_hat"); (1, return "Nope")
      ])

let gop_gen_with value_gen =
  QCheck.Gen.(
    frequency
      [ ( 5,
          map2
            (fun t init -> GNew (t, init))
            type_gen
            (list_size (int_range 0 4) (pair attr_gen value_gen)) );
        ( 4,
          map3
            (fun o a v -> GSet (o, a, v))
            (int_range 1 25) attr_gen value_gen );
        ( 2,
          map2
            (fun o restrict ->
              GDel (o, if restrict then Database.Restrict else Database.Nullify))
            (int_range 1 25) bool );
        (1, return GEvolve)
      ])

let gop_gen = gop_gen_with value_gen
let ops_gen = QCheck.Gen.(list_size (int_range 1 40) gop_gen)

let ops_arbitrary =
  QCheck.make ops_gen
    ~print:(fun ops -> String.concat "\n" (List.map pp_gop ops))
    ~shrink:QCheck.Shrink.(list ~shrink:nil)

(* Apply one op to the columnar store, the oracle and — when given — an
   [Mvcc] store, as a one-op transaction there.  Success/failure must
   agree on all sides, along with the allocated OID; Mvcc validates
   through Database's object rules, so its outcome, error text
   included, must equal the columnar store's. *)
let apply_pair ?mvcc db o op =
  let db_r f = match f () with x -> Ok x | exception Database.Store_error m -> Error m in
  let o_r f = match f () with x -> Some x | exception Oracle.Err -> None in
  let mvcc_r f =
    Option.map
      (fun store ->
        let txn = Mvcc.begin_ store in
        match f txn with
        | x -> (
            match Mvcc.commit txn with
            | Ok _ -> Ok x
            | Error e -> Error (Mvcc.commit_error_message e))
        | exception Database.Store_error m ->
            Mvcc.abort txn;
            Error m)
      mvcc
  in
  let agree a b m =
    let what = pp_gop op in
    (match (a, b) with
    | Ok x, Some y -> Alcotest.(check int) (what ^ ": allocated oid") y x
    | Error _, None -> ()
    | _ ->
        Alcotest.failf "%s: columnar %s, oracle %s" what
          (if Result.is_ok a then "succeeded" else "failed")
          (if b = None then "failed" else "succeeded"));
    Option.iter (Alcotest.(check (result int string)) (what ^ ": mvcc = columnar") a) m
  in
  let oid = Oid.of_int in
  match op with
  | GNew (t, init) ->
      let init = List.map (fun (a, v) -> (at a, v)) init in
      agree
        (db_r (fun () -> Oid.to_int (Database.new_object db (ty t) ~init)))
        (o_r (fun () -> Oracle.new_object o (ty t) ~init))
        (mvcc_r (fun txn -> Oid.to_int (Mvcc.new_object txn (ty t) ~init)))
  | GSet (oi, attr, v) ->
      agree
        (db_r (fun () -> Database.set_attr db (oid oi) (at attr) v; 0))
        (o_r (fun () -> Oracle.set_attr o oi (at attr) v; 0))
        (mvcc_r (fun txn -> Mvcc.set_attr txn (oid oi) (at attr) v; 0))
  | GDel (oi, policy) ->
      agree
        (db_r (fun () -> Database.delete db ~policy (oid oi); 0))
        (o_r (fun () -> Oracle.delete o ~policy oi; 0))
        (mvcc_r (fun txn -> Mvcc.delete txn ~policy (oid oi); 0))
  | GEvolve ->
      Database.set_schema db evolved_schema;
      Oracle.set_schema o evolved_schema;
      agree (Ok 0) (Some 0)
        (mvcc_r (fun txn -> Mvcc.set_schema txn ~source:"evolved"; 0))

let extent_types = [ "Person"; "Employee"; "Team"; "Employee_hat"; "Nope" ]

(* An Mvcc head must hold the oracle's population, slots, extents and
   the columnar store's dump. *)
let check_mvcc_agreement store db o =
  let snap = Mvcc.head store ~branch:Mvcc.main_branch in
  Alcotest.(check int) "mvcc count" (Hashtbl.length o.Oracle.objs) (Mvcc.count snap);
  for oi = 1 to 60 do
    let oid = Oid.of_int oi in
    let mine = try Some (Mvcc.slots snap oid) with Database.Store_error _ -> None in
    match (Hashtbl.find_opt o.Oracle.objs oi, mine) with
    | None, None -> ()
    | Some ob, Some slots ->
        Alcotest.(check bool)
          (Fmt.str "mvcc slots of #%d" oi)
          true
          (Attr_name.Map.equal Value.equal ob.Oracle.o_slots slots);
        Alcotest.(check string)
          (Fmt.str "mvcc type of #%d" oi)
          (Type_name.to_string ob.Oracle.o_ty)
          (Type_name.to_string (Mvcc.type_of snap oid))
    | _ -> Alcotest.failf "mvcc population of #%d disagrees" oi
  done;
  List.iter
    (fun t ->
      Alcotest.(check (list int))
        (Fmt.str "mvcc extent %s" t)
        (Oracle.extent o (ty t))
        (List.map Oid.to_int (Mvcc.extent snap (ty t))))
    extent_types;
  Alcotest.(check string) "mvcc dump" (Dump.to_string db) (Mvcc.dump snap)

let check_agreement db o =
  (* object population and slots *)
  Alcotest.(check int) "count" (Hashtbl.length o.Oracle.objs) (Database.count db);
  for oi = 1 to 60 do
    match Hashtbl.find_opt o.Oracle.objs oi with
    | None -> (
        match Database.slots db (Oid.of_int oi) with
        | exception Database.Store_error _ -> ()
        | _ -> Alcotest.failf "columnar has spurious #%d" oi)
    | Some ob ->
        let slots = Database.slots db (Oid.of_int oi) in
        Alcotest.(check bool)
          (Fmt.str "slots of #%d" oi)
          true
          (Attr_name.Map.equal Value.equal ob.Oracle.o_slots slots);
        Alcotest.(check string)
          (Fmt.str "type of #%d" oi)
          (Type_name.to_string ob.Oracle.o_ty)
          (Type_name.to_string (Database.type_of db (Oid.of_int oi)));
        (* per-attribute get_attr, incl. attributes outside the layout *)
        List.iter
          (fun a ->
            let x =
              try Some (Database.get_attr db (Oid.of_int oi) (at a))
              with Database.Store_error _ -> None
            in
            let y =
              try Some (Oracle.get_attr o oi (at a)) with Oracle.Err -> None
            in
            match (x, y) with
            | None, None -> ()
            | Some xv, Some yv ->
                Alcotest.(check bool)
                  (Fmt.str "#%d.%s" oi a)
                  true (Value.equal xv yv)
            | _ -> Alcotest.failf "get_attr #%d.%s disagrees" oi a)
          [ "ssn"; "name"; "pay_rate"; "manager"; "bogus" ];
        (* referrers via the reverse index vs the oracle scan *)
        let rx =
          Database.referrers db (Oid.of_int oi)
          |> List.map (fun (r, a) -> (Oid.to_int r, Attr_name.to_string a))
        in
        let ry =
          Oracle.referrers o oi
          |> List.map (fun (r, a) -> (r, Attr_name.to_string a))
        in
        Alcotest.(check (list (pair int string)))
          (Fmt.str "referrers of #%d" oi)
          ry rx
  done;
  (* extents *)
  List.iter
    (fun t ->
      let x =
        Database.extent db (ty t) |> List.map Oid.to_int
      in
      Alcotest.(check (list int)) (Fmt.str "extent %s" t) (Oracle.extent o (ty t)) x)
    extent_types;
  (* dump round-trip: the columnar store serializes and reloads to an
     identical population *)
  let dump = Dump.to_string db in
  let db2 = Database.create (Database.schema db) in
  let _ = Dump.load_into db2 dump in
  Alcotest.(check string) "dump round-trip" dump (Dump.to_string db2);
  Alcotest.(check int) "round-trip count" (Database.count db) (Database.count db2)

let prop_differential =
  QCheck.Test.make ~name:"columnar store ≡ map-backed oracle" ~count:500
    ops_arbitrary (fun ops ->
      let db = Database.create base_schema in
      let o = Oracle.create base_schema in
      let mvcc = Mvcc.create ~load_schema:(fun _ -> evolved_schema) base_schema in
      List.iter (fun op -> apply_pair ~mvcc db o op) ops;
      check_agreement db o;
      check_mvcc_agreement mvcc db o;
      true)

(* Pred.scan must agree with per-object eval on every generated store,
   across value kinds, nulls, deleted rows and free-list reuse. *)
let pred_gen_with literal_gen =
  QCheck.Gen.(
    let atom =
      map3
        (fun a op v -> Pred.Cmp { attr = at a; op; value = v })
        (oneofl [ "ssn"; "name"; "pay_rate"; "date_of_birth"; "hrs_worked" ])
        (oneofl Pred.[ Eq; Ne; Lt; Le; Gt; Ge ])
        literal_gen
    in
    let rec node depth =
      if depth = 0 then atom
      else
        frequency
          [ (3, atom);
            (1, return Pred.True);
            (2, map2 (fun a b -> Pred.And (a, b)) (node (depth - 1)) (node (depth - 1)));
            (2, map2 (fun a b -> Pred.Or (a, b)) (node (depth - 1)) (node (depth - 1)));
            (1, map (fun a -> Pred.Not a) (node (depth - 1)))
          ]
    in
    node 2)

let pred_gen =
  pred_gen_with
    QCheck.Gen.(
      frequency
        [ (3, map (fun i -> Body.Int i) (int_range (-5) 100));
          (2, map (fun f -> Body.Float f) (oneofl [ 0.0; 1.5; 50.0 ]));
          (2, map (fun s -> Body.String s) (oneofl [ "a"; "bob"; "zzz" ]));
          (1, map (fun b -> Body.Bool b) bool);
          (1, return Body.Null)
        ])

(* Integers around 2^53, where [float_of_int] rounds (2^53 + 1 orders
   equal to 2^53), and the floats the total order treats specially:
   NaN (below every number, equal to itself), -0.0 (equal to 0.0) and
   the infinities.  Stored and as literals, so ordering and equality
   meet them on both sides. *)
let wide_ints =
  let p53 = 1 lsl 53 in
  [ p53 - 1; p53; p53 + 1; p53 + 2; -p53; -p53 - 1; max_int; min_int; 0; 1; -1 ]

let wide_floats =
  [ Float.nan; -0.0; 0.0; 1.5; Float.infinity; Float.neg_infinity;
    9007199254740992.0; 9007199254740994.0; -9007199254740992.0
  ]

let wide_value_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun i -> Value.Int i) (oneofl wide_ints));
        (3, map (fun f -> Value.Float f) (oneofl wide_floats));
        (2, map (fun y -> Value.Date y) (oneofl wide_ints));
        (1, value_gen)
      ])

(* mostly Employees, so the numeric columns every atom may name are
   present and hold the wide values *)
let wide_ops_gen =
  QCheck.Gen.(
    let field name gen = opt (map (fun v -> (name, v)) gen) in
    let employee =
      map
        (fun fields -> GNew ("Employee", List.filter_map Fun.id fields))
        (flatten_l
           [ field "ssn" (map (fun i -> Value.Int i) (oneofl wide_ints));
             field "date_of_birth" (map (fun y -> Value.Date y) (oneofl wide_ints));
             field "pay_rate" (map (fun f -> Value.Float f) (oneofl wide_floats));
             field "hrs_worked" (map (fun f -> Value.Float f) (oneofl wide_floats))
           ])
    in
    list_size (int_range 1 40)
      (frequency [ (4, employee); (1, gop_gen_with wide_value_gen) ]))

let wide_pred_gen =
  pred_gen_with
    QCheck.Gen.(
      frequency
        [ (3, map (fun i -> Body.Int i) (oneofl wide_ints));
          (3, map (fun f -> Body.Float f) (oneofl wide_floats));
          (* NaN degenerates every ordering: give it its own weight *)
          (2, return (Body.Float Float.nan));
          (1, map (fun s -> Body.String s) (oneofl [ "a"; "bob" ]));
          (1, map (fun b -> Body.Bool b) bool);
          (1, return Body.Null)
        ])

(* What a scan of [t] must raise: the message of the first row, blocks
   in [scan_blocks] order and rows ascending, whose per-object test
   raises. *)
let first_failure db t p =
  List.find_map
    (fun (b : Columns.t) ->
      let rec row r =
        if r >= Columns.length b then None
        else if Bytes.get b.b_alive r = '\000' then row (r + 1)
        else
          match Pred.eval db (Columns.oid_at b r) p with
          | _ -> row (r + 1)
          | exception Database.Store_error m -> Some m
      in
      row 0)
    (Database.scan_blocks db (ty t))

(* [Pred.scan db t p] must be the extent of [t] filtered by [Pred.eval],
   or raise what the first failing row raises. *)
let check_scan db t p =
  let scanned =
    try Ok (Pred.scan db (ty t) p |> List.map Oid.to_int)
    with Database.Store_error m -> Error m
  in
  let filtered =
    try
      Ok
        (Database.extent db (ty t)
        |> List.filter (fun oid -> Pred.eval db oid p)
        |> List.map Oid.to_int)
    with Database.Store_error _ -> Error ()
  in
  match (scanned, filtered) with
  | Ok a, Ok b -> Alcotest.(check (list int)) (Fmt.str "scan %s" t) b a
  | Error m, Error () ->
      Alcotest.(check (option string))
        (Fmt.str "scan %s raises for the first failing row" t)
        (first_failure db t p) (Some m)
  | _ -> Alcotest.failf "scan/eval error disagreement on %s" t

let scan_equiv ~name ~count ops_gen pred_gen =
  QCheck.Test.make ~name ~count
    (QCheck.make
       QCheck.Gen.(pair ops_gen pred_gen)
       ~print:(fun (ops, p) ->
         String.concat "\n" (List.map pp_gop ops) ^ "\nWHERE " ^ Fmt.str "%a" Pred.pp p))
    (fun (ops, p) ->
      let db = Database.create base_schema in
      let o = Oracle.create base_schema in
      List.iter (fun op -> apply_pair db o op) ops;
      List.iter (fun t -> check_scan db t p) [ "Person"; "Employee"; "Team" ];
      true)

let prop_scan_equiv =
  scan_equiv ~name:"Pred.scan ≡ filter eval over extent" ~count:300 ops_gen pred_gen

let prop_scan_equiv_wide =
  scan_equiv ~name:"Pred.scan ≡ filter eval: NaN, -0.0 and integers beyond 2^53"
    ~count:1000
    wide_ops_gen wide_pred_gen

(* ---- unit tests: block mechanics ------------------------------------ *)

let mk_person db i =
  Database.new_object db (ty "Person") ~init:[ (at "ssn", Value.Int i) ]

let block_of db tn =
  match
    List.filter
      (fun (s : Database.block_stat) -> Type_name.equal s.st_ty (ty tn))
      (Database.stats db)
  with
  | [ s ] -> s
  | l -> Alcotest.failf "expected 1 %s block, got %d" tn (List.length l)

let test_free_list_reuse () =
  let db = Database.create base_schema in
  let _o1 = mk_person db 1 in
  let o2 = mk_person db 2 in
  let _o3 = mk_person db 3 in
  let before = block_of db "Person" in
  Database.delete db o2;
  let after = block_of db "Person" in
  Alcotest.(check int) "free-listed" 1 after.st_free;
  Alcotest.(check int) "rows unchanged" before.st_rows after.st_rows;
  Alcotest.(check int) "capacity unchanged" before.st_capacity after.st_capacity;
  let o4 = mk_person db 4 in
  let reused = block_of db "Person" in
  Alcotest.(check int) "slot reused" 0 reused.st_free;
  Alcotest.(check int) "no new row" before.st_rows reused.st_rows;
  (* the reused row serves the new object, extents stay OID-sorted *)
  Alcotest.(check (list int)) "extent sorted"
    [ 1; 3; 4 ]
    (List.map Oid.to_int (Database.extent db (ty "Person")));
  Alcotest.(check bool) "new value visible" true
    (Value.equal (Database.get_attr db o4 (at "ssn")) (Value.Int 4))

let test_null_bitmap () =
  let db = Database.create base_schema in
  let p = mk_person db 7 in
  Alcotest.(check bool) "uninitialized is null" true
    (Value.equal (Database.get_attr db p (at "name")) Value.Null);
  Database.set_attr db p (at "name") (Value.String "x");
  Alcotest.(check bool) "set visible" true
    (Value.equal (Database.get_attr db p (at "name")) (Value.String "x"));
  Database.set_attr db p (at "name") Value.Null;
  Alcotest.(check bool) "null again" true
    (Value.equal (Database.get_attr db p (at "name")) Value.Null);
  (* scans see the bitmap, not the stale backing cell *)
  Alcotest.(check (list int)) "null scan"
    [ Oid.to_int p ]
    (Pred.scan db (ty "Person") (Pred.cmp (at "name") Pred.Eq Body.Null)
    |> List.map Oid.to_int)

(* A pool copy is independent: each side interns its own new strings
   under the same next id, and neither ever sees the other's. *)
let test_pool_copy () =
  let module Pool = Tdp_store.Columns.Pool in
  let p0 = Pool.create () in
  for k = 0 to 9 do
    ignore (Pool.id p0 (Fmt.str "s%d" k))
  done;
  let p1 = Pool.copy p0 in
  for k = 10 to 99 do
    Alcotest.(check int) "fresh id in the copy" k (Pool.id p1 (Fmt.str "s%d" k))
  done;
  Alcotest.(check int) "the source's next id" 10 (Pool.id p0 "other");
  Alcotest.(check (option int)) "the source lacks the copy's strings" None (Pool.find p0 "s10");
  Alcotest.(check (option int)) "the copy lacks the source's" None (Pool.find p1 "other");
  Alcotest.(check string) "id 10 in the source" "other" (Pool.get p0 10);
  Alcotest.(check string) "id 10 in the copy" "s10" (Pool.get p1 10);
  List.iter
    (fun k ->
      let s = Fmt.str "s%d" k in
      Alcotest.(check (option int)) "shared prefix" (Some k) (Pool.find p0 s);
      Alcotest.(check (option int)) "shared prefix" (Some k) (Pool.find p1 s))
    [ 0; 9 ]

let test_block_growth () =
  let db = Database.create base_schema in
  let n = 100 in
  for i = 1 to n do
    ignore (mk_person db i)
  done;
  let s = block_of db "Person" in
  Alcotest.(check int) "all live" n s.st_live;
  Alcotest.(check bool) "capacity grew to cover" true (s.st_capacity >= n);
  Alcotest.(check bool) "amortized doubling" true (s.st_capacity <= 2 * n);
  Alcotest.(check int) "extent complete" n
    (List.length (Database.extent db (ty "Person")))

let test_layout_routing_across_evolution () =
  let db = Database.create base_schema in
  let _e1 =
    Database.new_object db (ty "Employee") ~init:[ (at "ssn", Value.Int 1) ]
  in
  (* an additive schema change (new unrelated type) leaves Employee's
     layout untouched: new instances reuse the block even though the
     schema generation moved *)
  let extra =
    Schema.add_type base_schema
      (Type_def.make ~attrs:[ Attribute.make (at "label") Value_type.string ]
         (ty "Tag"))
  in
  Database.set_schema db extra;
  let _e2 =
    Database.new_object db (ty "Employee") ~init:[ (at "ssn", Value.Int 2) ]
  in
  let s = block_of db "Employee" in
  Alcotest.(check int) "block reused across additive evolution" 2 s.st_live;
  (* projection inserts Employee_hat into Employee's precedence chain,
     which reorders the cumulative layout: existing rows keep their
     creation-time block, new instances open a fresh one, and extents
     see both *)
  Database.set_schema db evolved_schema;
  let _e3 =
    Database.new_object db (ty "Employee") ~init:[ (at "ssn", Value.Int 3) ]
  in
  let emp_blocks =
    List.filter
      (fun (st : Database.block_stat) -> Type_name.equal st.st_ty (ty "Employee"))
      (Database.stats db)
  in
  Alcotest.(check int) "total live across Employee blocks" 3
    (List.fold_left (fun a (st : Database.block_stat) -> a + st.st_live) 0 emp_blocks);
  Alcotest.(check (list int)) "extent spans layouts" [ 1; 2; 3 ]
    (List.map Oid.to_int (Database.extent db (ty "Employee")));
  (* the view type gets its own block on demand, and its extent is deep *)
  let _h =
    Database.new_object db (ty "Employee_hat") ~init:[ (at "ssn", Value.Int 4) ]
  in
  let sh = block_of db "Employee_hat" in
  Alcotest.(check int) "view block live" 1 sh.st_live;
  Alcotest.(check int) "view extent is deep" 4
    (List.length (Database.extent db (ty "Employee_hat")))

let test_get_attrs_batch () =
  let db = Database.create base_schema in
  let e =
    Database.new_object db (ty "Employee")
      ~init:[ (at "ssn", Value.Int 9); (at "pay_rate", Value.Float 50.0) ]
  in
  let attrs = [ at "ssn"; at "pay_rate"; at "name" ] in
  let batch = Database.get_attrs db e attrs in
  let single = List.map (Database.get_attr db e) attrs in
  Alcotest.(check bool) "batch = singles" true (List.for_all2 Value.equal batch single);
  match Database.get_attrs db e [ at "bogus" ] with
  | exception Database.Store_error _ -> ()
  | _ -> Alcotest.fail "batch read of a missing attribute must fail"

let test_matview_dirty_skip () =
  let db = Database.create evolved_schema in
  let srcs =
    List.init 5 (fun i ->
        Database.new_object db (ty "Employee")
          ~init:[ (at "ssn", Value.Int i); (at "pay_rate", Value.Float 10.0) ])
  in
  let mv = Matview.create db ~view_type:(ty "Employee_hat") (View.Base (ty "Employee")) in
  (* steady state: nothing changed, nothing updated *)
  let s = Matview.refresh db mv in
  Alcotest.(check int) "steady adds" 0 s.Matview.added;
  Alcotest.(check int) "steady removes" 0 s.Matview.removed;
  Alcotest.(check int) "steady updates" 0 s.Matview.updated;
  (* one dirty source row -> exactly one update, skipped rows agree
     with a forced full diff *)
  Database.set_attr db (List.nth srcs 2) (at "pay_rate") (Value.Float 99.0);
  let s = Matview.refresh db mv in
  Alcotest.(check int) "one update" 1 s.Matview.updated;
  let s = Matview.refresh ~force:true db mv in
  Alcotest.(check int) "forced re-diff finds nothing" 0 s.Matview.updated;
  (* copies carry the view state *)
  let copy = Tdp_store.Oid.Map.find (List.nth srcs 2) (Matview.mapping mv) in
  Alcotest.(check bool) "copy updated" true
    (Value.equal (Database.get_attr db copy (at "pay_rate")) (Value.Float 99.0))

let test_build_row_reports_all_unknown_attrs () =
  let db = Database.create base_schema in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match
     Database.new_object db (ty "Person")
       ~init:[ (at "nope1", Value.Int 1); (at "nope2", Value.Int 2) ]
   with
  | exception Database.Store_error m ->
      Alcotest.(check bool) "mentions both unknowns" true
        (contains_sub m "nope1" && contains_sub m "nope2")
  | _ -> Alcotest.fail "unknown init attributes must fail");
  (* single unknown keeps the historical message shape *)
  match Database.new_object db (ty "Person") ~init:[ (at "nope1", Value.Int 1) ] with
  | exception Database.Store_error m ->
      Alcotest.(check string) "single-unknown message"
        "type Person has no attribute nope1" m
  | _ -> Alcotest.fail "unknown init attribute must fail"

let test_reserve () =
  let db = Database.create base_schema in
  Database.reserve db 10_000;
  for i = 1 to 50 do
    ignore (mk_person db i)
  done;
  Alcotest.(check int) "all present after reserve" 50 (Database.count db)

(* Blocks longer than one selection vector (256 rows), which the
   generated stores above never reach: several chunks, dead rows,
   free-list reuse (an Employee block out of OID order), a failing row
   past the first chunk, and an untyped (boxed) column. *)
let test_scan_chunks () =
  let tagged =
    Type_def.make ~attrs:[ Attribute.make (at "tag") Value_type.Unknown ] (ty "Tagged")
  in
  let db = Database.create (Schema.add_type base_schema tagged) in
  let p53 = 1 lsl 53 in
  let floats = [| 0.0; -0.0; 1.5; Float.nan; 50.0 |] in
  let employee i =
    Database.new_object db (ty "Employee")
      ~init:
        [ (at "ssn", Value.Int (if i mod 11 = 0 then p53 + i else i));
          (at "pay_rate", if i mod 9 = 0 then Value.Null else Value.Float floats.(i mod 5));
          (at "name", Value.String (if i mod 2 = 0 then "a" else "bob"))
        ]
  in
  let emps = List.init 1000 employee in
  List.iteri (fun i o -> if i mod 7 = 3 then Database.delete db o) emps;
  for i = 1000 to 1049 do
    ignore (employee i)
  done;
  for i = 0 to 599 do
    ignore (mk_person db i)
  done;
  let tags =
    Value.[| Int 1; Float Float.nan; String "a"; Date 1990; Null; Float 1.0; Int p53 |]
  in
  for i = 0 to 599 do
    ignore (Database.new_object db (ty "Tagged") ~init:[ (at "tag", tags.(i mod 7)) ])
  done;
  let c a op v = Pred.Cmp { attr = at a; op; value = v } in
  let ops = Pred.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let lits =
    Body.[ Int 1; Int p53; Float Float.nan; Float (-0.0); Float 1.5; String "a"; Null ]
  in
  let atoms =
    List.concat_map
      (fun a -> List.concat_map (fun op -> List.map (c a op) lits) ops)
      [ "ssn"; "pay_rate"; "tag" ]
  in
  let shapes =
    Pred.
      [ And
          ( c "ssn" Gt (Body.Int 100),
            Or (c "pay_rate" Eq (Body.Float 1.5), Not (c "name" Eq (Body.String "a"))) );
        Or (Not (c "pay_rate" Ge (Body.Float 0.0)), c "ssn" Le (Body.Int 10));
        (* Person rows reach [pay_rate] from ssn 300 on, in the second chunk *)
        Or (c "ssn" Lt (Body.Int 300), c "pay_rate" Lt (Body.Float 1.0));
        And (c "ssn" Ge (Body.Int 450), Not (c "pay_rate" Gt (Body.Float Float.nan)));
        Not (Or (c "tag" Eq Body.Null, c "tag" Lt (Body.Float 1.5)));
        True
      ]
  in
  List.iter
    (fun p -> List.iter (fun t -> check_scan db t p) [ "Person"; "Employee"; "Tagged" ])
    (atoms @ shapes)

let () =
  Alcotest.run "columnar"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_scan_equiv;
          QCheck_alcotest.to_alcotest prop_scan_equiv_wide
        ] );
      ( "blocks",
        [ Alcotest.test_case "free-list reuse" `Quick test_free_list_reuse;
          Alcotest.test_case "null bitmap" `Quick test_null_bitmap;
          Alcotest.test_case "string pool copy" `Quick test_pool_copy;
          Alcotest.test_case "block growth" `Quick test_block_growth;
          Alcotest.test_case "layout routing across evolution" `Quick
            test_layout_routing_across_evolution;
          Alcotest.test_case "get_attrs batch" `Quick test_get_attrs_batch;
          Alcotest.test_case "matview dirty-row skip" `Quick test_matview_dirty_skip;
          Alcotest.test_case "all unknown init attrs reported" `Quick
            test_build_row_reports_all_unknown_attrs;
          Alcotest.test_case "reserve" `Quick test_reserve;
          Alcotest.test_case "scans across chunks and untyped columns" `Quick
            test_scan_chunks
        ] )
    ]
