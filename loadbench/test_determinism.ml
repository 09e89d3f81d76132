(* Same seed, same bytes, same counts: two builds of each fixture are
   byte-identical, and the traced replay's counters repeat exactly. *)

open Loadbench
module W = Workload

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let scale = Fixture.tiny
let seed = 1

let files dir = List.sort compare (Array.to_list (Sys.readdir dir))

let build kind =
  let dir = Filename.temp_dir ~temp_dir:(Sys.getcwd ()) "fixture" "" in
  Fixture.build kind ~seed scale dir;
  dir

(* The counts the replay must repeat, by per-layer metric name. *)
let counts w =
  let ctx = W.context w ~seed scale in
  let fixture = build (W.fixture w) in
  let copy suffix =
    let d = fixture ^ suffix in
    Fixture.copy_dir fixture d;
    d
  in
  let dir_a = copy "-a" and dir_b = copy "-b" in
  let t = Replay.run ~dir_a ~dir_b w ctx ~seed ~n:200 in
  List.iter Fixture.rm_rf [ fixture; dir_a; dir_b ];
  check (W.to_string w ^ " replay responses") (t.failed = 0);
  let per_commit x = if t.commits = 0 then 0.0 else float_of_int x /. float_of_int t.commits in
  let rows = Array.fold_left (fun a (q : Replay.per_req) -> a + q.rows) 0 t.reqs in
  let defines = List.filter (fun (q : Replay.per_req) -> q.cls = W.Define) (Array.to_list t.reqs) in
  [ ("txn_log.records_per_commit", per_commit t.log_records);
    ("txn_log.bytes_per_commit", per_commit t.log_bytes);
    ( "lang.rows_examined_per_row",
      if rows = 0 then 0.0 else float_of_int t.extent_rows /. float_of_int rows );
    ( "projection.surrogates_per_define",
      if defines = [] then 0.0
      else
        float_of_int (List.fold_left (fun a (q : Replay.per_req) -> a + q.surrogates) 0 defines)
        /. float_of_int (List.length defines) )
  ]

let () =
  List.iter
    (fun kind ->
      let a = build kind and b = build kind in
      let name = Fixture.kind_name kind in
      check (name ^ " file set") (files a = files b);
      List.iter
        (fun f ->
          check
            (Printf.sprintf "%s/%s byte-identical" name f)
            (Fixture.read_file (Filename.concat a f) = Fixture.read_file (Filename.concat b f)))
        (files a);
      Fixture.rm_rf a;
      Fixture.rm_rf b)
    [ Fixture.Emp; Fixture.Synth_ddl ];
  List.iter
    (fun w ->
      let first = counts w and second = counts w in
      List.iter2
        (fun (name, x) (_, y) ->
          check (Printf.sprintf "%s %s repeats (%g)" (W.to_string w) name x) (x = y))
        first second;
      (* the counts that matter on this workload are not vacuous *)
      let nonzero name = List.assoc name first > 0.0 in
      match w with
      | W.Commit -> check "commit records_per_commit > 0" (nonzero "txn_log.records_per_commit")
      | W.Scan_eval -> check "scan-eval rows_examined_per_row > 0" (nonzero "lang.rows_examined_per_row")
      | W.View_ddl -> check "view-ddl surrogates_per_define > 0" (nonzero "projection.surrogates_per_define")
      | _ -> ())
    [ W.Commit; W.Scan_eval; W.View_ddl ];
  if !failures > 0 then exit 1
