(* The statement-language store backend over MVCC snapshots, built the
   way the server's [eval] verb builds it, with every store call
   wrapped in a trace span.  Per-row reads are too many to span: they
   are counted, and the first [recorded] of them are kept so their
   per-call cost can be timed as one batch afterwards. *)

module Mvcc = Tdp_txn.Mvcc
module Database = Tdp_store.Database
module Interp = Tdp_store.Interp
module Session = Tdp_lang.Session
module Trace = Tdp_obs.Trace

let recorded = 1 lsl 18

(* Process-wide counters, read and reset by the single-threaded replay. *)
type counters = {
  mutable calls : int;  (* store_ops calls of any kind *)
  mutable gets : int;  (* per-row attribute reads *)
  mutable extent_rows : int;  (* rows the extents returned *)
  mutable visited : int;  (* rows the extent folds walked *)
}

let c = { calls = 0; gets = 0; extent_rows = 0; visited = 0 }

(* The first [recorded] per-row reads, in order. *)
let read_oids = Array.make recorded (Tdp_store.Oid.of_int 1)
let read_attrs = Array.make recorded (Tdp_core.Attr_name.of_string "_")

let reset () =
  c.calls <- 0;
  c.gets <- 0;
  c.extent_rows <- 0;
  c.visited <- 0

let span = Trace.with_span

(* As the server's [eval_call]: a whole-store materialization per call,
   the method run against it with a journal, any ops it performed
   replayed into the open transaction. *)
let eval_call ~read ~write gf args =
  let db = span "mvcc.to_database" (fun () -> Mvcc.to_database (read ())) in
  let ops = ref [] in
  Database.set_journal db (Some (fun op -> ops := op :: !ops));
  let result = Interp.call (Interp.create db) gf args in
  Database.set_journal db None;
  (match List.rev !ops with
  | [] -> ()
  | ops ->
      let t = write () in
      List.iter
        (fun (op : Database.op) ->
          match op with
          | Op_new { ty; init; _ } -> ignore (Mvcc.new_object t ty ~init)
          | Op_set { oid; attr; value } -> Mvcc.set_attr t oid attr value
          | Op_delete { oid; policy } -> Mvcc.delete t ~policy oid
          | Op_set_schema { source } -> Mvcc.set_schema t ~source)
        ops);
  result

(* [read] is the session's read snapshot (the open transaction's view,
   else the branch head), [write] its open transaction, [size] the
   number of objects an extent fold walks. *)
let store_ops ~read ~write ?(size = fun () -> 0) () : Session.store_ops =
  let call name f =
    c.calls <- c.calls + 1;
    span name f
  in
  { s_schema = (fun () -> call "mvcc.head" (fun () -> Mvcc.schema (read ())));
    s_extent =
      (fun ty ->
        call "mvcc.extent" (fun () ->
            let oids = Mvcc.extent (read ()) ty in
            c.visited <- c.visited + size ();
            c.extent_rows <- c.extent_rows + List.length oids;
            oids));
    s_type_of = (fun oid -> call "mvcc.type_of" (fun () -> Mvcc.type_of (read ()) oid));
    s_get =
      (fun oid attr ->
        if c.gets < recorded then begin
          read_oids.(c.gets) <- oid;
          read_attrs.(c.gets) <- attr
        end;
        c.calls <- c.calls + 1;
        c.gets <- c.gets + 1;
        Mvcc.get_attr (read ()) oid attr);
    s_count = (fun () -> call "mvcc.count" (fun () -> Mvcc.count (read ())));
    s_new = (fun ty init -> call "mvcc.new_object" (fun () -> Mvcc.new_object (write ()) ty ~init));
    s_set = (fun oid attr v -> call "mvcc.set_attr" (fun () -> Mvcc.set_attr (write ()) oid attr v));
    s_del = (fun oid policy -> call "mvcc.delete" (fun () -> Mvcc.delete (write ()) ~policy oid));
    s_call = (fun gf args -> call "server.eval_call" (fun () -> eval_call ~read ~write gf args));
    s_instances = None
  }

(* The per-call cost of a per-row read as the served path pays it (a
   head fetch, then the attribute): the recorded reads replayed against
   [store] as one timed batch; the median of three. *)
let read_cost store =
  let k = min c.gets recorded in
  if k = 0 then 0.0
  else
    let once () =
      let t0 = Stats.now_ns () in
      for i = 0 to k - 1 do
        match Mvcc.get_attr (Mvcc.head store ~branch:Mvcc.main_branch) read_oids.(i) read_attrs.(i) with
        | v -> ignore (Sys.opaque_identity v)
        | exception Database.Store_error _ -> ()
      done;
      (Stats.now_ns () -. t0) /. float_of_int k
    in
    Stats.median_list (List.init 3 (fun _ -> once ()))
