(* Seeded fixture directories, built through public APIs.  Every byte
   is a pure function of the seed and the scale, and so is the
   in-memory oracle the response checks compare against. *)

open Tdp_core
module Database = Tdp_store.Database
module Value = Tdp_store.Value
module Dump = Tdp_store.Dump
module Mvcc = Tdp_txn.Mvcc
module Synth = Tdp_synth.Synth

type scale = {
  employees : int;  (* Employee objects in emp100k's snapshot *)
  log_txns : int;  (* committed hrs_worked brackets in its txn.log *)
  low_paid : int;  (* employees with pay_rate < 1.0 *)
  synth_objects : int;  (* objects in synth-ddl *)
}

let full = { employees = 100_000; log_txns = 5_000; low_paid = 500; synth_objects = 2_000 }
let smoke = { employees = 10_000; log_txns = 500; low_paid = 50; synth_objects = 500 }
let tiny = { employees = 1_000; log_txns = 50; low_paid = 5; synth_objects = 200 }

let ty = Type_name.of_string
let at = Attr_name.of_string

(* ---- emp100k --------------------------------------------------------- *)

(* The state the fixture's store recovers to, indexed by OID (slot 0
   unused): OIDs 1..n are the Employees in creation order. *)
type emp = {
  n : int;
  ssn : int array;  (* a permutation of 0..n-1 *)
  oid_of_ssn : int array;
  name : string array;
  born : int array;
  pay : float array;
  hrs : float array;  (* after the log's updates *)
  low : int array;  (* OIDs with pay_rate < 1.0, ascending *)
  log : (int * float) array;  (* the log's (oid, hrs_worked) updates *)
}

let employees ~seed scale =
  let st = Random.State.make [| seed; 0xe4 |] in
  let n = scale.employees in
  let ssn = Array.init (n + 1) (fun i -> i - 1) in
  for i = n downto 2 do
    let j = 1 + Random.State.int st i in
    let t = ssn.(i) in
    ssn.(i) <- ssn.(j);
    ssn.(j) <- t
  done;
  let oid_of_ssn = Array.make n 0 in
  for i = 1 to n do oid_of_ssn.(ssn.(i)) <- i done;
  let letter () = Char.chr (Char.code 'a' + Random.State.int st 26) in
  let name = Array.init (n + 1) (fun _ -> String.init 7 (fun _ -> letter ())) in
  let born = Array.init (n + 1) (fun _ -> 1950 + Random.State.int st 50) in
  let pay = Array.init (n + 1) (fun _ -> 10.0 +. (float_of_int (Random.State.int st 9000) /. 100.0)) in
  let low = Array.init (n + 1) Fun.id in
  for i = n downto 2 do
    let j = 1 + Random.State.int st i in
    let t = low.(i) in
    low.(i) <- low.(j);
    low.(j) <- t
  done;
  let low = Array.sub low 1 scale.low_paid in
  Array.sort Int.compare low;
  Array.iter (fun o -> pay.(o) <- 0.25 *. float_of_int (1 + Random.State.int st 3)) low;
  let hrs = Array.make (n + 1) 40.0 in
  let log =
    Array.init scale.log_txns (fun _ ->
        (1 + Random.State.int st n, float_of_int (10 + Random.State.int st 500) /. 10.0))
  in
  Array.iter (fun (o, h) -> hrs.(o) <- h) log;
  { n; ssn; oid_of_ssn; name; born; pay; hrs; low; log }

let employee_schema () = (Tdp_lang.Elaborate.load_exn Employee_schema.source).schema

let employee_init e i ~hrs =
  [ (at "ssn", Value.Int e.ssn.(i));
    (at "name", Value.String e.name.(i));
    (at "date_of_birth", Value.Date e.born.(i));
    (at "pay_rate", Value.Float e.pay.(i));
    (at "hrs_worked", Value.Float hrs)
  ]

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let build_emp ~seed scale dir =
  let e = employees ~seed scale in
  let schema = employee_schema () in
  let db = Database.create schema in
  Database.reserve db e.n;
  for i = 1 to e.n do
    ignore (Database.new_object db (ty "Employee") ~init:(employee_init e i ~hrs:40.0))
  done;
  write_file (Filename.concat dir "schema.odb") Employee_schema.source;
  write_file (Filename.concat dir "snapshot.dump") (Dump.to_string db);
  (* The log is written unsynced: the bytes are the same, and the
     fixture is copied before any run reads it. *)
  let o = Mvcc.open_dir ~sync:false ~schema dir in
  Array.iter
    (fun (oid, h) ->
      let t = Mvcc.begin_ o.store in
      Mvcc.set_attr t (Tdp_store.Oid.of_int oid) (at "hrs_worked") (Value.Float h);
      match Mvcc.commit t with
      | Ok _ -> ()
      | Error err -> failwith (Mvcc.commit_error_message err))
    e.log;
  Mvcc.close o.store

(* ---- synth-ddl ------------------------------------------------------- *)

(* About 24 types and 200 methods: 48 readers, 24 writers and 128
   general methods over a multiple-inheritance DAG.  The schema and
   its objects are fixed, not drawn from the workload seed: derivation
   cost differs several-fold between generated schemas, and runs under
   different seeds must measure the same work.  The seed orders the
   requests. *)
let synth_config =
  { Synth.default with n_types = 24; attrs_per_type = 2; writer_fraction = 0.5; n_gfs = 32; methods_per_gf = 4 }

(* The printed schema and the schema the server elaborates from it. *)
let synth_schema () =
  let source = Tdp_lang.Printer.print (Synth.generate synth_config) in
  (source, (Tdp_lang.Elaborate.load_exn source).schema)

let synth_db scale =
  let source, schema = synth_schema () in
  let db = Database.create schema in
  ignore (Synth.populate ~seed:synth_config.seed db scale.synth_objects);
  (source, db)

let build_synth scale dir =
  let source, db = synth_db scale in
  write_file (Filename.concat dir "schema.odb") source;
  write_file (Filename.concat dir "snapshot.dump") (Dump.to_string db)

(* ---- directories ----------------------------------------------------- *)

type kind = Emp | Synth_ddl

let kind_name = function Emp -> "emp" | Synth_ddl -> "synth"

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

let build kind ~seed scale dir =
  match kind with
  | Emp -> build_emp ~seed scale dir
  | Synth_ddl -> build_synth scale dir

(* A fixture is built once per (kind, scale, seed) under [work] and
   published by rename, so an interrupted build is never reused. *)
let ensure ~work kind ~seed scale =
  let name =
    match kind with
    | Emp -> Fmt.str "fixture-emp%d-seed%d" scale.employees seed
    | Synth_ddl -> Fmt.str "fixture-synth%d" scale.synth_objects
  in
  let dir = Filename.concat work name in
  if not (Sys.file_exists dir) then begin
    let tmp = Fmt.str "%s.tmp%d" dir (Unix.getpid ()) in
    rm_rf tmp;
    mkdir_p tmp;
    build kind ~seed scale tmp;
    Sys.rename tmp dir
  end;
  dir
