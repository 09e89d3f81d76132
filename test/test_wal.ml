open Tdp_core
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Value = Tdp_store.Value
module Wal = Tdp_store.Wal
module Mvcc = Tdp_txn.Mvcc
module Txn_log = Tdp_txn.Txn_log
module Replica = Tdp_replica.Replica
open Helpers

(* Fig. 1 plus a reference-typed attribute, so the op mix covers
   nullify-on-delete and object references. *)
let schema =
  let s = Tdp_paper.Fig1.schema in
  Schema.add_type s
    (Type_def.make
       ~attrs:[ Attribute.make (at "manager") (Value_type.named (ty "Employee")) ]
       (ty "Team"))

let oid = Tdp_store.Oid.of_int
let load_schema src = (Tdp_lang.Elaborate.load_exn src).Tdp_lang.Elaborate.schema

(* The scenario every fault-injection test replays: creations, slot
   writes (with awkward floats), references, and both delete
   policies. *)
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

(* A record of the retired wal.log: a bare op under magic [w].  Only
   the legacy fold reads these; the tests write them as fixtures. *)
let encode_w ~seq op = Wal.encode_line ~magic:'w' ~seq (Wal.payload_to_string op)

let parse_op payload =
  match Wal.payload_of_string ~line:0 payload with
  | op -> Ok op
  | exception Dump.Parse_error { message; _ } -> Error message

let decode = Wal.decode_framed ~magic:'w' ~parse:parse_op

(* The legacy wal.log image of the scenario, plus [dumps.(k)] = the
   dump of the state after the first [k] ops — the oracle for every
   fault. *)
let fixture () =
  let db = Database.create schema in
  let wal = Buffer.create 512 in
  let dumps = ref [ Dump.to_string db ] in
  List.iteri
    (fun i op ->
      Buffer.add_string wal (encode_w ~seq:(i + 1) op);
      Wal.apply db op;
      dumps := Dump.to_string db :: !dumps)
    ops;
  (Buffer.contents wal, Array.of_list (List.rev !dumps))

(* ---- unit: payload and record round-trips -------------------------- *)

let test_payload_roundtrip () =
  List.iteri
    (fun i op ->
      let s = Wal.payload_to_string op in
      let op' = Wal.payload_of_string ~line:1 s in
      Alcotest.(check string)
        (Fmt.str "op %d reprints identically" i)
        s
        (Wal.payload_to_string op'))
    ops

let test_encode_decode () =
  let wal, _ = fixture () in
  let d = decode wal in
  Alcotest.(check int) "all records decoded" (List.length ops) (List.length d.fentries);
  Alcotest.(check int) "next_seq" (List.length ops + 1) d.fnext_seq;
  Alcotest.(check int) "valid_bytes = length" (String.length wal) d.fvalid_bytes;
  Alcotest.(check bool) "no corruption" true (d.fcorruption = None);
  List.iteri
    (fun i (e : _ Wal.framed) ->
      Alcotest.(check int) (Fmt.str "seq of entry %d" i) (i + 1) e.fseq;
      Alcotest.(check string)
        (Fmt.str "op of entry %d" i)
        (Wal.payload_to_string (List.nth ops i))
        (Wal.payload_to_string e.fvalue))
    d.fentries

let test_decode_degenerate () =
  let d = decode "" in
  Alcotest.(check int) "empty: no entries" 0 (List.length d.fentries);
  Alcotest.(check int) "empty: next_seq 1" 1 d.fnext_seq;
  Alcotest.(check bool) "empty: clean" true (d.fcorruption = None);
  let d = decode "total garbage\n" in
  Alcotest.(check bool) "garbage: corrupt" true (d.fcorruption <> None);
  Alcotest.(check int) "garbage: zero valid bytes" 0 d.fvalid_bytes;
  (* a record without its newline is torn, even if otherwise intact *)
  let r1 = encode_w ~seq:1 (List.hd ops) in
  let torn = String.sub r1 0 (String.length r1 - 1) in
  let d = decode torn in
  Alcotest.(check bool) "torn: corrupt" true (d.fcorruption <> None);
  Alcotest.(check int) "torn: zero valid bytes" 0 d.fvalid_bytes;
  (* a record of the other log is not a record of this one *)
  let d = decode (Txn_log.encode ~seq:1 (Txn_log.Commit { txid = 1 })) in
  Alcotest.(check bool) "foreign magic: corrupt" true (d.fcorruption <> None)

let test_decode_sequence_rules () =
  let op = List.hd ops in
  (* a hole in the numbering ends the prefix *)
  let d = decode (encode_w ~seq:1 op ^ encode_w ~seq:3 op) in
  Alcotest.(check int) "gap: one entry" 1 (List.length d.fentries);
  Alcotest.(check bool) "gap: corrupt" true (d.fcorruption <> None);
  (* but the base may start anywhere: a checkpointed log resumes high *)
  let d = decode (encode_w ~seq:5 op ^ encode_w ~seq:6 op) in
  Alcotest.(check int) "high base: two entries" 2 (List.length d.fentries);
  Alcotest.(check int) "high base: next_seq" 7 d.fnext_seq;
  Alcotest.(check bool) "high base: clean" true (d.fcorruption = None)

(* ---- fault injection: truncate at every byte offset ----------------- *)

(* The legacy fold keeps the torn-tail rules wal.log recovery always
   had: a cut or a flipped bit anywhere folds exactly the records
   before it. *)

let entries_ending_by entries t =
  List.length (List.filter (fun (e : _ Wal.framed) -> e.fends_at <= t) entries)

let test_truncation_every_offset () =
  let wal, dumps = fixture () in
  let entries = (decode wal).fentries in
  for t = 0 to String.length wal do
    let r = Wal.fold_legacy ~schema ~wal:(String.sub wal 0 t) () in
    let k = entries_ending_by entries t in
    Alcotest.(check int) (Fmt.str "folded after cut at %d" t) k r.wal_seq;
    Alcotest.(check string)
      (Fmt.str "state after cut at %d" t)
      dumps.(k)
      (Dump.to_string r.db);
    (* mid-record cuts are reported; record-boundary cuts are clean *)
    Alcotest.(check bool)
      (Fmt.str "corruption flag at %d" t)
      (t <> 0 && not (List.exists (fun (e : _ Wal.framed) -> e.fends_at = t) entries))
      (r.corruption <> None)
  done

(* ---- fault injection: flip a bit at every byte offset --------------- *)

let test_byteflip_every_offset () =
  let wal, dumps = fixture () in
  let entries = (decode wal).fentries in
  let n = List.length entries in
  for t = 0 to String.length wal - 1 do
    let b = Bytes.of_string wal in
    Bytes.set b t (Char.chr (Char.code wal.[t] lxor 0x01));
    let r = Wal.fold_legacy ~schema ~wal:(Bytes.to_string b) () in
    (* the flip lands inside record j (0-based); CRC-32 catches any
       single-bit error, so exactly the records before j fold *)
    let j = entries_ending_by entries t in
    Alcotest.(check int) (Fmt.str "folded with flip at %d" t) j r.wal_seq;
    Alcotest.(check string)
      (Fmt.str "state with flip at %d" t)
      dumps.(j)
      (Dump.to_string r.db);
    Alcotest.(check bool)
      (Fmt.str "flip at %d detected" t)
      (j < n)
      (r.corruption <> None)
  done

(* ---- snapshots and checkpointing ------------------------------------ *)

let test_snapshot_skips_replayed_prefix () =
  let wal, dumps = fixture () in
  let n = List.length ops in
  (* checkpoint at seq 3, but keep the whole WAL: a crash between
     snapshot rename and log truncation must not double-apply 1..3 *)
  let snapshot = "-- wal-seq: 3\n" ^ dumps.(3) in
  let r = Wal.fold_legacy ~schema ~snapshot ~wal () in
  Alcotest.(check int) "folded through the last record" n r.wal_seq;
  Alcotest.(check bool) "clean" true (r.corruption = None);
  Alcotest.(check string) "final state" dumps.(n) (Dump.to_string r.db)

let test_snapshot_wal_gap_detected () =
  let _, dumps = fixture () in
  let snapshot = "-- wal-seq: 3\n" ^ dumps.(3) in
  (* a log that resumes past the snapshot leaves a hole: refuse it *)
  let wal = encode_w ~seq:5 (List.nth ops 4) in
  let r = Wal.fold_legacy ~schema ~snapshot ~wal () in
  Alcotest.(check int) "nothing folded" 3 r.wal_seq;
  Alcotest.(check bool) "gap reported" true (r.corruption <> None);
  Alcotest.(check string) "state is the snapshot" dumps.(3) (Dump.to_string r.db)

(* ---- journaled schema evolution ------------------------------------- *)

let evolved_source = "type Extra {\n  x : int;\n}\n"

let test_schema_record_roundtrip () =
  let db = Database.create schema in
  let logged = ref [] in
  Database.set_journal db (Some (fun op -> logged := op :: !logged));
  Database.set_schema ~source:evolved_source db (load_schema evolved_source);
  Database.set_journal db None;
  match !logged with
  | [ op ] ->
      let s = Wal.payload_to_string op in
      let db2 = Database.create schema in
      Wal.apply ~load_schema db2 (Wal.payload_of_string ~line:1 s);
      ignore (Database.new_object db2 (ty "Extra") ~init:[ (at "x", Value.Int 1) ]);
      Alcotest.(check int) "object of the evolved type" 1 (Database.count db2)
  | l -> Alcotest.fail (Fmt.str "expected one journaled op, got %d" (List.length l))

let test_schema_requires_source_when_journaled () =
  let db = Database.create schema in
  Database.set_journal db (Some ignore);
  (match Database.set_schema db (load_schema evolved_source) with
  | () -> Alcotest.fail "set_schema without source should fail when journaled"
  | exception Database.Store_error _ -> ());
  (* and replaying a schema record needs a loader *)
  let db2 = Database.create schema in
  match Wal.apply db2 (Op_set_schema { source = evolved_source }) with
  | () -> Alcotest.fail "apply without load_schema should fail"
  | exception Wal.Wal_error _ -> ()

(* ---- writer: appending to a real file -------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "tdp_wal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_file path s =
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc s)

(* Writer, repair and checkpoint truncation over the transaction log,
   each step checked against a fresh decode of the file. *)
let test_writer_end_to_end () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "txn.log" in
      let records =
        List.concat
          (List.mapi
             (fun i op ->
               let txid = i + 1 in
               [ Txn_log.Begin { txid; branch = "main" };
                 Txn_log.Op { txid; op };
                 Txn_log.Commit { txid }
               ])
             ops)
      in
      let w = Txn_log.writer_create ~sync:false ~path ~next_seq:1 () in
      List.iter (fun r -> ignore (Txn_log.append w r)) records;
      Wal.close w;
      let n = List.length records in
      let d = Txn_log.decode (read_file path) in
      Alcotest.(check int) "every record decodes" n (List.length d.fentries);
      Alcotest.(check bool) "clean" true (d.fcorruption = None);
      Alcotest.(check (list string)) "payloads round-trip"
        (List.map Txn_log.payload_to_string records)
        (List.map (fun (e : _ Wal.framed) -> Txn_log.payload_to_string e.fvalue) d.fentries);
      (* a torn tail on disk: reopen, cut back to the valid prefix, and
         append cleanly after it *)
      append_file path "t 99 deadbeef torn";
      let d = Txn_log.decode (read_file path) in
      Alcotest.(check bool) "tear detected" true (d.fcorruption <> None);
      let w = Txn_log.writer_open ~sync:false ~path () in
      Wal.reset w ~valid_bytes:d.fvalid_bytes ~next_seq:d.fnext_seq;
      ignore (Txn_log.append w (Txn_log.Commit { txid = 42 }));
      let d = Txn_log.decode (read_file path) in
      Alcotest.(check bool) "clean after repair" true (d.fcorruption = None);
      Alcotest.(check int) "one more record" (n + 1) (List.length d.fentries);
      (* a checkpoint's truncation: empty file, numbering resumes high *)
      Wal.reset w ~valid_bytes:0 ~next_seq:(n + 2);
      ignore (Txn_log.append w (Txn_log.Commit { txid = 43 }));
      Wal.close w;
      let d = Txn_log.decode (read_file path) in
      Alcotest.(check (list int)) "resumes past the checkpoint" [ n + 2 ]
        (List.map (fun (e : _ Wal.framed) -> e.fseq) d.fentries))

(* ---- the legacy store fixture ------------------------------------- *)

(* test/golden/legacy_store was written by the two-log binary: `odb
   store init`, an `odb store append` of three ops, `odb store
   checkpoint` (snapshot header wal-seq 3), a second append (w 4..6),
   two commits through `odb serve` (txn.log), then a torn w 7 on
   wal.log.  legacy_store.dump is that binary's `odb store dump`
   (snapshot + wal.log), legacy_store.recovered its full recovery
   (snapshot + wal.log, then txn.log). *)

(* [dune runtest] runs in test/, [dune exec test/test_wal.exe] at the
   repository root. *)
let golden name =
  let here = Filename.concat "golden" name in
  if Sys.file_exists here then here else Filename.concat "test/golden" name
let load_schema src = (Tdp_lang.Elaborate.load_exn src).Tdp_lang.Elaborate.schema

let with_legacy_store f =
  with_temp_dir (fun dir ->
      List.iter
        (fun n ->
          let src = read_file (golden (Filename.concat "legacy_store" n)) in
          Out_channel.with_open_bin (Filename.concat dir n) (fun oc ->
              Out_channel.output_string oc src))
        [ "schema.odb"; "snapshot.dump"; "wal.log"; "txn.log" ];
      f dir (load_schema (read_file (Filename.concat dir "schema.odb"))))

let main_dump store = Mvcc.dump (Mvcc.head store ~branch:Mvcc.main_branch)

(* The body of a snapshot file, without its header comments. *)
let snapshot_body dir =
  String.split_on_char '\n' (read_file (Filename.concat dir "snapshot.dump"))
  |> List.filter (fun l -> not (String.starts_with ~prefix:"--" l))
  |> String.concat "\n"

let open_legacy dir schema =
  let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
  let dump = main_dump o.Mvcc.store in
  Mvcc.close o.Mvcc.store;
  (o, dump)

let test_legacy_first_open () =
  with_legacy_store (fun dir schema ->
      let o, dump = open_legacy dir schema in
      Alcotest.(check string) "state is the two-log recovery"
        (read_file (golden "legacy_store.recovered")) dump;
      Alcotest.(check int) "both served commits replayed" 2 o.Mvcc.txn_applied;
      Alcotest.(check (option int)) "the fold reports the damaged w 7" (Some 7)
        (Option.map (fun (c : Wal.corruption) -> c.at_seq) o.Mvcc.legacy_corruption);
      Alcotest.(check bool) "wal.log removed" false
        (Sys.file_exists (Filename.concat dir "wal.log"));
      Alcotest.(check string) "the folded snapshot is the two-log store dump"
        (read_file (golden "legacy_store.dump")) (snapshot_body dir);
      let snap = read_file (Filename.concat dir "snapshot.dump") in
      Alcotest.(check (pair int int)) "wal-seq names the last folded record; txn-seq kept"
        (6, 0) (Dump.wal_seq snap, Dump.txn_seq snap))

let test_legacy_reopen () =
  with_legacy_store (fun dir schema ->
      let _, first = open_legacy dir schema in
      let o, again = open_legacy dir schema in
      Alcotest.(check string) "reopen is equal" first again;
      Alcotest.(check int) "the log still replays" 2 o.Mvcc.txn_applied;
      Alcotest.(check bool) "nothing left to fold, nothing reported" true
        (o.Mvcc.legacy_corruption = None))

let test_legacy_crash_window () =
  with_legacy_store (fun dir schema ->
      let wal = read_file (Filename.concat dir "wal.log") in
      let _, first = open_legacy dir schema in
      (* a crash after the folded snapshot's rename, before wal.log's
         removal: the old wal.log is still there *)
      Out_channel.with_open_bin (Filename.concat dir "wal.log") (fun oc ->
          Out_channel.output_string oc wal);
      let snapshot = read_file (Filename.concat dir "snapshot.dump") in
      let refold = Wal.fold_legacy ~load_schema ~schema ~snapshot ~wal () in
      Alcotest.(check (option int))
        "w 4..6 are skipped; the fold stops only at the torn w 7" (Some 7)
        (Option.map (fun (c : Wal.corruption) -> c.at_seq) refold.corruption);
      let _, again = open_legacy dir schema in
      Alcotest.(check string) "nothing folded twice" first again;
      Alcotest.(check bool) "wal.log removed" false
        (Sys.file_exists (Filename.concat dir "wal.log")))

let test_legacy_replica () =
  with_legacy_store (fun dir schema ->
      let r = Replica.open_ ~load_schema ~schema dir in
      ignore (Replica.poll r);
      Alcotest.(check bool) "running" true (Replica.status r = Replica.Running);
      Alcotest.(check string) "replica of the unfolded directory"
        (read_file (golden "legacy_store.recovered")) (main_dump (Replica.store r));
      Alcotest.(check bool) "read-only: wal.log left alone" true
        (Sys.file_exists (Filename.concat dir "wal.log"));
      Replica.close r)

let suite =
  [ Alcotest.test_case "payload roundtrip" `Quick test_payload_roundtrip;
    Alcotest.test_case "encode/decode" `Quick test_encode_decode;
    Alcotest.test_case "decode degenerate inputs" `Quick test_decode_degenerate;
    Alcotest.test_case "decode sequence rules" `Quick test_decode_sequence_rules;
    Alcotest.test_case "truncation at every byte offset" `Quick
      test_truncation_every_offset;
    Alcotest.test_case "bit flip at every byte offset" `Quick
      test_byteflip_every_offset;
    Alcotest.test_case "snapshot skips replayed prefix" `Quick
      test_snapshot_skips_replayed_prefix;
    Alcotest.test_case "snapshot/wal gap detected" `Quick
      test_snapshot_wal_gap_detected;
    Alcotest.test_case "schema record roundtrip" `Quick test_schema_record_roundtrip;
    Alcotest.test_case "schema source required when journaled" `Quick
      test_schema_requires_source_when_journaled;
    Alcotest.test_case "writer end to end" `Quick test_writer_end_to_end;
    Alcotest.test_case "legacy fixture: first writable open folds once" `Quick
      test_legacy_first_open;
    Alcotest.test_case "legacy fixture: reopen is equal" `Quick test_legacy_reopen;
    Alcotest.test_case "legacy fixture: restored wal.log folds nothing twice" `Quick
      test_legacy_crash_window;
    Alcotest.test_case "legacy fixture: replica bootstraps unfolded" `Quick
      test_legacy_replica
  ]

let () = Alcotest.run "wal" [ ("wal", suite) ]
