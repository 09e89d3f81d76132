open Tdp_core
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Oid = Tdp_store.Oid
module Value = Tdp_store.Value
module Wal = Tdp_store.Wal
module Txn_log = Tdp_txn.Txn_log
module Mvcc = Tdp_txn.Mvcc
module Server = Tdp_txn.Server
module Replica = Tdp_replica.Replica
module Router = Tdp_replica.Router
open Helpers

(* Fig. 1 plus a reference-typed attribute — the same scenario shape
   as test_wal, so the shipping suite exercises creations, slot
   writes, references and both delete policies. *)
let schema =
  let s = Tdp_paper.Fig1.schema in
  Schema.add_type s
    (Type_def.make
       ~attrs:[ Attribute.make (at "manager") (Value_type.named (ty "Employee")) ]
       (ty "Team"))

let oid = Oid.of_int
let load_schema src = (Tdp_lang.Elaborate.load_exn src).Tdp_lang.Elaborate.schema

let with_temp_dir f =
  let dir = Filename.temp_file "tdp_rep" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let main_dump r =
  Dump.to_string
    (Mvcc.to_database (Mvcc.head (Replica.store r) ~branch:Mvcc.main_branch))

(* Branch name -> head dump, version-independent: replicas publish one
   version per record while recovery publishes one per bracket, so
   only the visible state is comparable. *)
let branch_dumps store =
  Mvcc.branches store |> List.map fst |> List.sort compare
  |> List.map (fun b ->
         (b, Dump.to_string (Mvcc.to_database (Mvcc.head store ~branch:b))))

(* ---- the map-backed oracle ------------------------------------------ *)

(* An independent model of op application (in the spirit of
   test_columnar's): a hashtable of type + slot map per object.  Only
   ops that succeeded on the primary ever reach a replica, so the
   oracle implements the success semantics alone. *)
module Oracle = struct
  type obj = { o_ty : Type_name.t; mutable o_slots : Value.t Attr_name.Map.t }
  type t = { schema : Schema.t; objs : (int, obj) Hashtbl.t }

  let create schema = { schema; objs = Hashtbl.create 16 }

  let apply t (op : Database.op) =
    match op with
    | Op_new { oid; ty; init } ->
        let slots =
          List.fold_left
            (fun m a -> Attr_name.Map.add (Attribute.name a) Value.Null m)
            Attr_name.Map.empty
            (Hierarchy.all_attributes (Schema.hierarchy t.schema) ty)
        in
        let slots =
          List.fold_left (fun m (a, v) -> Attr_name.Map.add a v m) slots init
        in
        Hashtbl.replace t.objs (Oid.to_int oid) { o_ty = ty; o_slots = slots }
    | Op_set { oid; attr; value } ->
        let o = Hashtbl.find t.objs (Oid.to_int oid) in
        o.o_slots <- Attr_name.Map.add attr value o.o_slots
    | Op_delete { oid; policy } ->
        Hashtbl.remove t.objs (Oid.to_int oid);
        if policy = Database.Nullify then
          Hashtbl.iter
            (fun _ o ->
              o.o_slots <-
                Attr_name.Map.map
                  (function Value.Ref r when Oid.equal r oid -> Value.Null | v -> v)
                  o.o_slots)
            t.objs
    | Op_set_schema _ -> ()

  let check t what snap =
    Alcotest.(check int)
      (what ^ ": oracle count")
      (Hashtbl.length t.objs) (Mvcc.count snap);
    Hashtbl.iter
      (fun i o ->
        let id = oid i in
        if not (Type_name.equal o.o_ty (Mvcc.type_of snap id)) then
          Alcotest.failf "%s: oracle type mismatch for #%d" what i;
        Attr_name.Map.iter
          (fun a v ->
            let got = Mvcc.get_attr snap id a in
            if not (Value.equal v got) then
              Alcotest.failf "%s: oracle slot mismatch for #%d.%a: %a vs %a"
                what i Attr_name.pp a Value.pp v Value.pp got)
          o.o_slots)
      t.objs
end

(* ---- wal shipping: the fixture -------------------------------------- *)

(* The write-ahead log is txn.log; each op below is one single-op
   bracket, the records an [odb store append] op (or a served one-op
   commit) writes. *)

let ops : Database.op list =
  [ Op_new
      { oid = oid 1;
        ty = ty "Employee";
        init =
          [ (at "ssn", Value.Int 1);
            (at "name", Value.String "al \"ice\" =#");
            (at "pay_rate", Value.Float (0.1 +. 0.2))
          ]
      };
    Op_set { oid = oid 1; attr = at "hrs_worked"; value = Value.Float 40.0 };
    Op_new { oid = oid 2; ty = ty "Team"; init = [ (at "manager", Value.Ref (oid 1)) ] };
    Op_new { oid = oid 3; ty = ty "Person"; init = [ (at "ssn", Value.Int 3) ] };
    Op_set { oid = oid 1; attr = at "pay_rate"; value = Value.Float nan };
    Op_delete { oid = oid 3; policy = Database.Restrict };
    Op_delete { oid = oid 1; policy = Database.Nullify };
    Op_new { oid = oid 4; ty = ty "Employee"; init = [ (at "ssn", Value.Int 4) ] }
  ]

(* The records of one single-op bracket [txid] starting at [seq]. *)
let bracket ~seq txid op =
  String.concat ""
    (List.mapi
       (fun k r -> Txn_log.encode ~seq:(seq + k) r)
       [ Txn_log.Begin { txid; branch = Mvcc.main_branch };
         Txn_log.Op { txid; op };
         Txn_log.Commit { txid }
       ])

(* The log image plus [dumps.(k)] = the dump after the first [k] ops. *)
let fixture () =
  let db = Database.create schema in
  let log = Buffer.create 1024 in
  let dumps = ref [ Dump.to_string db ] in
  List.iteri
    (fun i op ->
      Buffer.add_string log (bracket ~seq:((3 * i) + 1) (i + 1) op);
      Wal.apply db op;
      dumps := Dump.to_string db :: !dumps)
    ops;
  (Buffer.contents log, Array.of_list (List.rev !dumps))

let entries log = (Txn_log.decode log).fentries

(* Records ending at or before byte [t], all of them or only commits. *)
let ending_by ?(only_commits = false) entries t =
  List.length
    (List.filter
       (fun (e : Txn_log.record Wal.framed) ->
         let is_commit = match e.fvalue with Txn_log.Commit _ -> true | _ -> false in
         e.fends_at <= t && ((not only_commits) || is_commit))
       entries)

(* ---- fault injection: kill the feed at every byte offset ------------ *)

(* Killing the primary (or the ship) at any byte offset must leave the
   replica at exactly the state [recover] would produce from the same
   prefix — and at the oracle's state after the decodable records. *)
let test_wal_ship_every_offset () =
  let log, dumps = fixture () in
  let entries = entries log in
  with_temp_dir (fun dir ->
      let log_path = Filename.concat dir "txn.log" in
      for t = 0 to String.length log do
        write_file log_path (String.sub log 0 t);
        let r = Replica.open_ ~schema dir in
        let shipped = Replica.poll r in
        let n = ending_by entries t and k = ending_by ~only_commits:true entries t in
        Alcotest.(check int) (Fmt.str "shipped at cut %d" t) n shipped;
        Alcotest.(check string)
          (Fmt.str "state at cut %d" t)
          dumps.(k) (main_dump r);
        Alcotest.(check int)
          (Fmt.str "applied seq at cut %d" t)
          n (Replica.applied_seq r);
        (* a torn tail is an incomplete ship, not damage: the replica
           keeps waiting for the rest of the record *)
        Alcotest.(check bool)
          (Fmt.str "running at cut %d" t)
          true
          (Replica.status r = Replica.Running);
        let o = Oracle.create schema in
        List.iteri (fun i op -> if i < k then Oracle.apply o op) ops;
        Oracle.check o
          (Fmt.str "cut %d" t)
          (Mvcc.head (Replica.store r) ~branch:Mvcc.main_branch);
        Replica.close r
      done)

(* ---- incremental tailing: records arrive while the replica lives ---- *)

let test_live_tailing () =
  let log, dumps = fixture () in
  let entries = entries log in
  with_temp_dir (fun dir ->
      let log_path = Filename.concat dir "txn.log" in
      write_file log_path "";
      let r = Replica.open_ ~schema dir in
      Alcotest.(check int) "nothing to ship" 0 (Replica.poll r);
      let prev_end = ref 0 in
      List.iteri
        (fun i (e : Txn_log.record Wal.framed) ->
          let mid = !prev_end + ((e.fends_at - !prev_end) / 2) in
          prev_end := e.fends_at;
          (* half a record: resumable, nothing applied *)
          write_file log_path (String.sub log 0 mid);
          Alcotest.(check int) (Fmt.str "torn ship %d waits" i) 0 (Replica.poll r);
          Alcotest.(check bool) (Fmt.str "torn ship %d is lag" i) true (Replica.lag r > 0);
          (* the rest of the record lands; its bracket publishes at the
             commit record *)
          write_file log_path (String.sub log 0 e.fends_at);
          Alcotest.(check int) (Fmt.str "ship %d applies" i) 1 (Replica.poll r);
          Alcotest.(check string)
            (Fmt.str "state after ship %d" i)
            dumps.(ending_by ~only_commits:true entries e.fends_at)
            (main_dump r);
          Alcotest.(check int) (Fmt.str "caught up after ship %d" i) 0 (Replica.lag r))
        entries;
      Replica.close r)

(* ---- property: random ops, random kill offset ----------------------- *)

let prop_ship_random =
  let value_gen =
    QCheck.Gen.(
      frequency
        [ (3, map (fun i -> Value.Int i) (int_range (-5) 100));
          (2, map (fun f -> Value.Float f) (oneofl [ 0.0; 1.5; -2.25; Float.nan ]));
          (3, map (fun s -> Value.String s) (oneofl [ "a"; "x y"; "q=\"#"; "" ]));
          (2, map (fun i -> Value.Ref (oid i)) (int_range 1 20));
          (1, return Value.Null)
        ])
  in
  let attr_gen =
    QCheck.Gen.oneofl [ "ssn"; "name"; "pay_rate"; "hrs_worked"; "manager" ]
  in
  let type_gen = QCheck.Gen.oneofl [ "Employee"; "Person"; "Team" ] in
  let gop_gen =
    QCheck.Gen.(
      frequency
        [ ( 5,
            map2
              (fun t init -> `New (t, init))
              type_gen
              (list_size (int_range 0 3)
                 (map2 (fun a v -> (at a, v)) attr_gen value_gen)) );
          ( 4,
            map3 (fun o a v -> `Set (o, at a, v)) (int_range 1 20) attr_gen
              value_gen );
          ( 2,
            map2
              (fun o restrict ->
                `Del (o, if restrict then Database.Restrict else Database.Nullify))
              (int_range 1 20) bool )
        ])
  in
  QCheck.Test.make ~name:"replica ≡ recover of the same prefix" ~count:60
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 30) gop_gen) (int_range 0 8192))
       ~shrink:QCheck.Shrink.(pair (list ~shrink:nil) nil))
    (fun (gops, cut_raw) ->
      (* trial-apply on a scratch db: only ops the primary accepted
         reach the log, one bracket each, with consecutive seqs *)
      let db = Database.create schema in
      let buf = Buffer.create 256 in
      let txid = ref 0 in
      let next = ref 1 in
      List.iter
        (fun gop ->
          let op : Database.op =
            match gop with
            | `New (t, init) ->
                let o = oid !next in
                Op_new { oid = o; ty = ty t; init }
            | `Set (o, a, v) -> Op_set { oid = oid o; attr = a; value = v }
            | `Del (o, p) -> Op_delete { oid = oid o; policy = p }
          in
          match Wal.apply db op with
          | () ->
              (match op with Op_new _ -> incr next | _ -> ());
              incr txid;
              Buffer.add_string buf (bracket ~seq:((3 * !txid) - 2) !txid op)
          | exception Database.Store_error _ -> ())
        gops;
      let log = Buffer.contents buf in
      let cut =
        if String.length log = 0 then 0 else cut_raw mod (String.length log + 1)
      in
      let prefix = String.sub log 0 cut in
      with_temp_dir (fun dir ->
          write_file (Filename.concat dir "txn.log") prefix;
          let r = Replica.open_ ~schema dir in
          ignore (Replica.poll r);
          let expected =
            let o = Mvcc.recover_text ~schema ~txn:prefix () in
            Dump.to_string (Mvcc.to_database (Mvcc.head o.store ~branch:Mvcc.main_branch))
          in
          let got = main_dump r in
          let running = Replica.status r = Replica.Running in
          Replica.close r;
          if expected <> got then
            QCheck.Test.fail_reportf
              "replica diverged from recover at cut %d:@.%s@.vs@.%s" cut got
              expected;
          running))

(* ---- txn-log shipping: every byte offset ----------------------------- *)

(* A primary driven through real MVCC transactions: committed and
   aborted brackets, a fork, and two interleaved transactions whose
   commits arrive out of begin order.  Returns the primary's own branch
   states after each commit or fork — [states.(k)] is what the first
   [k] such records leave — an oracle that never replays the log. *)
let build_txn_primary dir =
  let o = Mvcc.open_dir ~sync:false ~load_schema ~schema dir in
  let s = o.Mvcc.store in
  let states = ref [ branch_dumps s ] in
  let logged () = states := branch_dumps s :: !states in
  let commit name t =
    match Mvcc.commit t with Ok _ -> logged () | Error _ -> Alcotest.fail name
  in
  let t1 = Mvcc.begin_ s in
  let e1 = Mvcc.new_object t1 (ty "Employee") ~init:[ (at "ssn", Value.Int 1) ] in
  ignore (Mvcc.new_object t1 (ty "Team") ~init:[ (at "manager", Value.Ref e1) ]);
  commit "t1" t1;
  ignore (Mvcc.fork s ~from_:Mvcc.main_branch ~branch:"dev");
  logged ();
  let t2 = Mvcc.begin_ ~branch:"dev" s in
  Mvcc.set_attr t2 e1 (at "pay_rate") (Value.Float 9.5);
  commit "t2" t2;
  let t3 = Mvcc.begin_ s in
  Mvcc.set_attr t3 e1 (at "hrs_worked") (Value.Float 1.0);
  Mvcc.abort ~reason:"changed my mind" t3;
  let t4 = Mvcc.begin_ s in
  let t5 = Mvcc.begin_ ~branch:"dev" s in
  Mvcc.set_attr t5 e1 (at "name") (Value.String "dev side");
  Mvcc.set_attr t4 e1 (at "name") (Value.String "main side");
  commit "t4" t4;
  commit "t5" t5;
  Mvcc.close s;
  Array.of_list (List.rev !states)

let test_txn_ship_every_offset () =
  let log, states =
    with_temp_dir (fun dir ->
        let states = build_txn_primary dir in
        ( In_channel.with_open_bin (Filename.concat dir "txn.log")
            In_channel.input_all,
          states ))
  in
  Alcotest.(check bool) "fixture journaled" true (String.length log > 0);
  let entries = (Txn_log.decode log).Wal.fentries in
  (* records of kind [is] that end at or before the cut are durable *)
  let durable_by is t =
    List.length
      (List.filter
         (fun (e : Tdp_txn.Txn_log.record Wal.framed) ->
           e.Wal.fends_at <= t && is e.Wal.fvalue)
         entries)
  in
  let is_commit = function Tdp_txn.Txn_log.Commit _ -> true | _ -> false in
  let is_commit_or_fork = function
    | Tdp_txn.Txn_log.Commit _ | Tdp_txn.Txn_log.Fork _ -> true
    | _ -> false
  in
  Alcotest.(check int) "one state per commit or fork"
    (durable_by is_commit_or_fork (String.length log) + 1)
    (Array.length states);
  with_temp_dir (fun dir ->
      let txn_path = Filename.concat dir "txn.log" in
      for t = 0 to String.length log do
        write_file txn_path (String.sub log 0 t);
        let prefix = String.sub log 0 t in
        let r = Replica.open_ ~load_schema ~schema dir in
        ignore (Replica.poll r);
        Alcotest.(check bool)
          (Fmt.str "running at cut %d" t)
          true
          (Replica.status r = Replica.Running);
        let expected = Mvcc.recover_text ~load_schema ~schema ~txn:prefix () in
        let want = branch_dumps expected.Mvcc.store in
        let got = branch_dumps (Replica.store r) in
        Alcotest.(check (list (pair string string)))
          (Fmt.str "branch states at cut %d" t)
          want got;
        (* independently of any replay: one version per durable commit,
           and the primary's own states *)
        Alcotest.(check int)
          (Fmt.str "commits after cut at %d" t)
          (durable_by is_commit t)
          (Mvcc.current_version (Replica.store r));
        Alcotest.(check (list (pair string string)))
          (Fmt.str "primary state at cut %d" t)
          states.(durable_by is_commit_or_fork t)
          got;
        Mvcc.close expected.Mvcc.store;
        Replica.close r
      done)

(* ---- structural damage: recovery and replica stop alike -------------- *)

(* Each damaged log is a valid bracket followed by damage; recovery
   must truncate and the replica halt at the same seq for the same
   reason, leaving the same state.  The seq is pinned independently:
   the damaged record's own, or the begin of a bracket that no longer
   applies. *)
let test_structural_damage () =
  let module L = Tdp_txn.Txn_log in
  let set o = Database.Op_set { oid = oid o; attr = at "ssn"; value = Value.Int 2 } in
  let valid =
    [ L.Begin { txid = 1; branch = "main" };
      L.Op { txid = 1; op = Database.Op_new { oid = oid 1; ty = ty "Employee"; init = [] } };
      L.Commit { txid = 1 }
    ]
  in
  let cases =
    [ ( "duplicate begin",
        [ L.Begin { txid = 2; branch = "main" }; L.Begin { txid = 2; branch = "main" } ],
        5 );
      ("begin on unknown branch", [ L.Begin { txid = 2; branch = "nowhere" } ], 4);
      ("op outside a bracket", [ L.Op { txid = 2; op = set 1 } ], 4);
      ("commit without begin", [ L.Commit { txid = 2 } ], 4);
      ("fork from unknown branch", [ L.Fork { branch = "dev"; from_ = "nowhere" } ], 4);
      ( "fork of existing branch",
        [ L.Fork { branch = "dev"; from_ = "main" }; L.Fork { branch = "dev"; from_ = "main" } ],
        5 );
      ( "bracket no longer applies",
        [ L.Begin { txid = 2; branch = "main" }; L.Op { txid = 2; op = set 9 }; L.Commit { txid = 2 } ],
        4 )
    ]
  in
  List.iter
    (fun (name, damage, want_seq) ->
      let log =
        String.concat "" (List.mapi (fun i r -> L.encode ~seq:(i + 1) r) (valid @ damage))
      in
      let o = Mvcc.recover_text ~load_schema ~schema ~txn:log () in
      let c =
        match o.Mvcc.txn_corruption with
        | Some c -> c
        | None -> Alcotest.failf "%s: recovery did not stop" name
      in
      Alcotest.(check int) (name ^ ": stop seq") want_seq c.Wal.at_seq;
      Alcotest.(check int) (name ^ ": committed prefix") 1 o.Mvcc.txn_applied;
      with_temp_dir (fun dir ->
          write_file (Filename.concat dir "txn.log") log;
          let r = Replica.open_ ~load_schema ~schema dir in
          ignore (Replica.poll r);
          Alcotest.(check bool)
            (name ^ ": replica halts where recovery stops")
            true
            (Replica.status r
            = Replica.Halted
                (Fmt.str "txn.log replay stops at seq %d: %s" c.Wal.at_seq c.Wal.reason));
          Alcotest.(check (list (pair string string)))
            (name ^ ": same state")
            (branch_dumps o.Mvcc.store)
            (branch_dumps (Replica.store r));
          Replica.close r);
      Mvcc.close o.Mvcc.store)
    cases

(* ---- checkpoint while tailing --------------------------------------- *)

let test_checkpoint_while_tailing () =
  with_temp_dir (fun pdir ->
      let o = Mvcc.open_dir ~sync:false ~load_schema ~schema pdir in
      let s = o.Mvcc.store in
      let commit_new ssn =
        let t = Mvcc.begin_ s in
        let id =
          Mvcc.new_object t (ty "Employee") ~init:[ (at "ssn", Value.Int ssn) ]
        in
        (match Mvcc.commit t with Ok _ -> () | Error _ -> Alcotest.fail "commit");
        id
      in
      ignore (commit_new 1);
      let r = Replica.open_ ~load_schema ~schema pdir in
      ignore (Replica.poll r);
      Alcotest.(check (list (pair string string)))
        "caught up before the checkpoint" (branch_dumps s)
        (branch_dumps (Replica.store r));
      (* records the replica never ships get folded into the snapshot:
         it must resync, not halt and not invent state *)
      ignore (commit_new 2);
      Mvcc.checkpoint s;
      ignore (commit_new 3);
      ignore (Replica.poll r);
      Alcotest.(check bool)
        "running across the checkpoint" true
        (Replica.status r = Replica.Running);
      Alcotest.(check (list (pair string string)))
        "caught up across the checkpoint" (branch_dumps s)
        (branch_dumps (Replica.store r));
      Alcotest.(check bool) "the checkpoint forced a resync" true
        (Replica.resyncs r >= 1);
      (* a checkpoint the replica has fully shipped: still seamless *)
      Mvcc.checkpoint s;
      ignore (commit_new 4);
      ignore (Replica.poll r);
      Alcotest.(check (list (pair string string)))
        "caught up across the quiet checkpoint" (branch_dumps s)
        (branch_dumps (Replica.store r));
      Replica.close r;
      Mvcc.close s)

(* ---- promotion ------------------------------------------------------- *)

let test_promotion () =
  with_temp_dir (fun pdir ->
      with_temp_dir (fun rdir ->
          let rstate = Filename.concat rdir "state" in
          let o = Mvcc.open_dir ~sync:false ~load_schema ~schema pdir in
          let s = o.Mvcc.store in
          let commit_new ssn =
            let t = Mvcc.begin_ s in
            ignore
              (Mvcc.new_object t (ty "Employee")
                 ~init:[ (at "ssn", Value.Int ssn) ]);
            match Mvcc.commit t with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "commit"
          in
          commit_new 1;
          let r = Replica.open_ ~load_schema ~schema pdir in
          ignore (Replica.poll r);
          Replica.save r ~dir:rstate;
          (* caught up: promotable as-is *)
          (match Replica.promote ~replica_dir:rstate ~primary_dir:pdir () with
          | Ok p ->
              Alcotest.(check int)
                "promotion txn position" p.Replica.primary_last_txn
                p.Replica.replica_txn
          | Error e -> Alcotest.failf "refused: %s" (Replica.promote_error_message e));
          (* the primary commits past the saved state: honest lag *)
          commit_new 2;
          (match Replica.promote ~replica_dir:rstate ~primary_dir:pdir () with
          | Error (Replica.Lagging _) -> ()
          | Ok _ -> Alcotest.fail "lagging replica promoted"
          | Error e -> Alcotest.failf "wrong refusal: %s" (Replica.promote_error_message e));
          (match
             Replica.promote ~allow_lag:true ~replica_dir:rstate ~primary_dir:pdir ()
           with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "allow_lag refused: %s" (Replica.promote_error_message e));
          (* a checkpoint folds the unshipped record away: diverged,
             refused even with allow_lag *)
          Mvcc.checkpoint s;
          (match
             Replica.promote ~allow_lag:true ~replica_dir:rstate ~primary_dir:pdir ()
           with
          | Error (Replica.Diverged _) -> ()
          | Ok _ -> Alcotest.fail "diverged replica promoted"
          | Error e -> Alcotest.failf "wrong refusal: %s" (Replica.promote_error_message e));
          (* no saved state at all *)
          (match
             Replica.promote ~replica_dir:(Filename.concat rdir "nowhere")
               ~primary_dir:pdir ()
           with
          | Error (Replica.Unpromotable _) -> ()
          | _ -> Alcotest.fail "missing state accepted");
          (* phantom history: the replica claims records beyond the
             primary's durable logs *)
          with_temp_dir (fun empty_primary ->
              match
                Replica.promote ~allow_lag:true ~replica_dir:rstate
                  ~primary_dir:empty_primary ()
              with
              | Error (Replica.Diverged _) -> ()
              | Ok _ -> Alcotest.fail "phantom replica promoted"
              | Error e ->
                  Alcotest.failf "wrong refusal: %s"
                    (Replica.promote_error_message e));
          Replica.close r;
          Mvcc.close s;
          (* clean up the nested save dir so with_temp_dir can rmdir *)
          Array.iter
            (fun n -> Sys.remove (Filename.concat rstate n))
            (Sys.readdir rstate);
          Sys.rmdir rstate))

(* ---- the read-only protocol surface --------------------------------- *)

(* Golden transcript: every mutating verb refused with the same
   structured error, every read and the replica verbs served. *)
let test_read_only_golden () =
  let store = Mvcc.create ~load_schema schema in
  let rw = Server.session ~store () in
  ignore (Server.handle_line rw "begin");
  ignore (Server.handle_line rw "new Employee ssn=1");
  ignore (Server.handle_line rw "commit");
  let info =
    { Server.ri_seq = (fun () -> 3); ri_lag = (fun () -> 42) }
  in
  let s = Server.session ~mode:(Server.Read_only info) ~store () in
  let refused verb =
    Fmt.str "err \"read-only replica: %s refused (connect to the primary to write)\""
      verb
  in
  List.iter
    (fun (req, want) ->
      Alcotest.(check string) req want (Server.handle_line s req))
    [ ("hello", "ok odb 1 branch main");
      ("ping", "ok pong");
      ("seq", "ok txn 3");
      ("lag", "ok txn 42");
      ("count", "ok 1");
      ("typeof #1", "ok Employee");
      ("get #1 ssn", "ok 1");
      ("extent Person", "ok 1 #1");
      ("branches", "ok main:1");
      ("version", "ok 1");
      ("begin", refused "begin");
      ("begin dev", refused "begin");
      ("commit", refused "commit");
      ("abort", refused "abort");
      ("new Employee ssn=2", refused "new");
      ("set #1 ssn=9", refused "set");
      ("del #1", refused "del");
      ("schema \"type X {}\"", refused "schema");
      ("fork dev", refused "fork");
      ("quit", "ok bye")
    ]

(* ---- the OID-range router ------------------------------------------- *)

let test_router_units () =
  Alcotest.(check (list int))
    "merge interleaves sorted runs"
    [ 1; 2; 3; 4; 9; 10; 11 ]
    (Router.merge_runs [ [ 1; 4; 9 ]; [ 2; 3; 10 ]; []; [ 11 ] ]);
  (match Router.backend_of_spec "1-9=/tmp/a.sock" with
  | Ok b ->
      Alcotest.(check (pair int int)) "closed range" (1, 9) (b.Router.b_lo, b.b_hi);
      Alcotest.(check bool) "unix addr" true (b.b_addr = Unix.ADDR_UNIX "/tmp/a.sock")
  | Error m -> Alcotest.fail m);
  (match Router.backend_of_spec "10-=127.0.0.1:7000" with
  | Ok b ->
      Alcotest.(check (pair int int)) "open range" (10, max_int)
        (b.Router.b_lo, b.b_hi);
      Alcotest.(check bool) "tcp addr" true
        (match b.b_addr with Unix.ADDR_INET (_, 7000) -> true | _ -> false)
  | Error m -> Alcotest.fail m);
  (match Router.backend_of_spec "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk spec accepted");
  (match Router.backend_of_spec "a-b=/x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric range accepted");
  (match Router.make [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty router accepted");
  let b spec = match Router.backend_of_spec spec with Ok b -> b | Error m -> Alcotest.fail m in
  (match Router.make [ b "1-10=/x"; b "5-20=/y" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlapping ranges accepted");
  match Router.make [ b "10-=/y"; b "1-9=/x" ] with
  | Error m -> Alcotest.fail m
  | Ok router ->
      let owner_name o =
        Option.map (fun (b : Router.backend) -> b.b_name) (Router.owner router o)
      in
      Alcotest.(check (option string)) "low oid" (Some "1-9=/x") (owner_name 1);
      Alcotest.(check (option string)) "high oid" (Some "10-=/y") (owner_name 1000);
      Alcotest.(check (option string)) "no owner" None (owner_name 0)

(* Two real served shards behind a router: point reads routed by OID,
   extents merged in global OID order, counts summed, writes refused. *)
let test_router_end_to_end () =
  let shard oids =
    let db = Database.create schema in
    List.iter
      (fun i ->
        Wal.apply db
          (Op_new { oid = oid i; ty = ty "Employee"; init = [ (at "ssn", Value.Int i) ] }))
      oids;
    Mvcc.of_database ~load_schema db
  in
  let serve store =
    let path = Filename.temp_file "tdp_shard" ".sock" in
    Sys.remove path;
    Server.start ~domains:2 ~store (Unix.ADDR_UNIX path)
  in
  let s1 = serve (shard [ 1; 3; 7 ]) in
  let s2 = serve (shard [ 10; 11 ]) in
  let sock srv =
    match Server.sockaddr srv with Unix.ADDR_UNIX p -> p | _ -> assert false
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop s1;
      Server.stop s2)
    (fun () ->
      let b spec =
        match Router.backend_of_spec spec with
        | Ok b -> b
        | Error m -> Alcotest.fail m
      in
      let router =
        match
          Router.make [ b (Fmt.str "1-9=%s" (sock s1)); b (Fmt.str "10-=%s" (sock s2)) ]
        with
        | Ok r -> r
        | Error m -> Alcotest.fail m
      in
      let s = Router.session router in
      Fun.protect
        ~finally:(fun () -> Router.close_session s)
        (fun () ->
          let run line = Router.handle_line s line in
          Alcotest.(check string) "hello" "ok odb-router 2 backends" (run "hello");
          Alcotest.(check string)
            "merged extent in global oid order" "ok 5 #1 #3 #7 #10 #11"
            (run "extent Person");
          Alcotest.(check string) "summed count" "ok 5" (run "count");
          Alcotest.(check string) "routed get low" "ok 3" (run "get #3 ssn");
          Alcotest.(check string) "routed get high" "ok 11" (run "get #11 ssn");
          Alcotest.(check string) "routed typeof" "ok Employee" (run "typeof #10");
          Alcotest.(check string)
            "routed miss surfaces the backend error" "err \"no object #5\""
            (run "get #5 ssn");
          Alcotest.(check bool) "no owner" true
            (String.length (run "get #0 ssn") > 3
            && String.sub (run "get #0 ssn") 0 3 = "err");
          Alcotest.(check bool) "writes refused" true
            (String.sub (run "set #1 ssn=2") 0 3 = "err"));
      (* the full path: router served on its own socket *)
      let rpath = Filename.temp_file "tdp_route" ".sock" in
      Sys.remove rpath;
      let rsrv = Router.start ~domains:2 router (Unix.ADDR_UNIX rpath) in
      Fun.protect
        ~finally:(fun () -> Server.stop rsrv)
        (fun () ->
          let c = Server.connect (Server.sockaddr rsrv) in
          Fun.protect
            ~finally:(fun () -> Server.close_client c)
            (fun () ->
              Alcotest.(check string)
                "served merged extent" "ok 5 #1 #3 #7 #10 #11"
                (Server.request c "extent Person");
              Alcotest.(check string) "served quit" "ok bye" (Server.request c "quit"))))

let suite =
  [ Alcotest.test_case "wal shipping: kill at every byte offset" `Quick
      test_wal_ship_every_offset;
    Alcotest.test_case "live tailing: torn then completed records" `Quick
      test_live_tailing;
    QCheck_alcotest.to_alcotest prop_ship_random;
    Alcotest.test_case "txn shipping: kill at every byte offset" `Quick
      test_txn_ship_every_offset;
    Alcotest.test_case "structural damage: recovery and replica stop alike"
      `Quick test_structural_damage;
    Alcotest.test_case "checkpoint while tailing" `Quick
      test_checkpoint_while_tailing;
    Alcotest.test_case "promotion: ok / lagging / diverged / phantom" `Quick
      test_promotion;
    Alcotest.test_case "read-only session golden transcript" `Quick
      test_read_only_golden;
    Alcotest.test_case "router: specs, ranges, merge" `Quick test_router_units;
    Alcotest.test_case "router: end to end over two shards" `Quick
      test_router_end_to_end
  ]

let () = Alcotest.run "replica" [ ("replica", suite) ]
