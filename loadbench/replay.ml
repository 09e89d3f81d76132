(* The traced replay: the first requests of a workload's seeded
   streams, run in process on one thread against two fresh fixture
   copies opened with fsync per log record.

   Pass A sends each request line through [Server.handle_line], one
   [Server.session] per simulated connection: the service time.  Pass B
   runs the same request through the layers' public functions, each call
   wrapped in a trace span (memory sink), with [Tdp_obs.Metrics] on.
   The two passes alternate request by request, so they see the same
   machine state; pass B's response must equal pass A's.

   Self time is a span's duration less its children's.  Three costs
   have no span of their own and are carved out of their parent's self
   time instead: per-row reads (counted, and costed by replaying the
   recorded reads as one timed batch), inference inside [Session.eval]
   (the [infer.*_ns] program histograms) and log appends inside
   [Mvcc.commit] ([wal.append_ns]). *)

open Tdp_core
module Mvcc = Tdp_txn.Mvcc
module Server = Tdp_txn.Server
module Txn_log = Tdp_txn.Txn_log
module Session = Tdp_lang.Session
module Stmt = Tdp_lang.Stmt
module Elaborate = Tdp_lang.Elaborate
module Catalog = Tdp_algebra.Catalog
module View = Tdp_algebra.View
module Infer = Tdp_infer.Infer
module Dump = Tdp_store.Dump
module Value = Tdp_store.Value
module Oid = Tdp_store.Oid
module Database = Tdp_store.Database
module Trace = Tdp_obs.Trace
module Sink = Tdp_obs.Sink
module Metrics = Tdp_obs.Metrics
module W = Workload

(* ---- pass B ---------------------------------------------------------- *)

type op =
  | O_get of Oid.t * Attr_name.t
  | O_typeof of Oid.t
  | O_begin
  | O_set of Oid.t * Attr_name.t * Value.t
  | O_new of Type_name.t * (Attr_name.t * Value.t) list
  | O_commit
  | O_eval of string

(* Decoded just before pass B's clock starts; the request's own parse
   is timed as [server.parse_request]. *)
let decode (r : W.req) =
  let oid tok = Oid.of_int (int_of_string (String.sub tok 1 (String.length tok - 1))) in
  let slot tok =
    let i = String.index tok '=' in
    ( Attr_name.of_string (String.sub tok 0 i),
      Dump.value_of_string 0 (String.sub tok (i + 1) (String.length tok - i - 1)) )
  in
  match Dump.tokens 0 r.line with
  | [ "get"; o; a ] -> O_get (oid o, Attr_name.of_string a)
  | [ "typeof"; o ] -> O_typeof (oid o)
  | [ "begin" ] -> O_begin
  | [ "set"; o; s ] ->
      let a, v = slot s in
      O_set (oid o, a, v)
  | "new" :: ty :: slots -> O_new (Type_name.of_string ty, List.map slot slots)
  | [ "commit" ] -> O_commit
  | "eval" :: _ -> O_eval r.src
  | _ -> invalid_arg ("Replay.decode: " ^ r.line)

type bconn = {
  store : Mvcc.t;
  mutable txn : Mvcc.txn option;
  mutable session : Session.t option;
  mutable catalog : Catalog.t;
}

let span = Trace.with_span

let read b () =
  match b.txn with
  | Some t when Mvcc.state t = Mvcc.Open -> Mvcc.view t
  | _ -> Mvcc.head b.store ~branch:Mvcc.main_branch

let write b () =
  match b.txn with
  | Some t when Mvcc.state t = Mvcc.Open -> t
  | _ -> raise (Database.Store_error "no open transaction (begin first)")

let rows_of (o : Session.outcome) =
  match o with Extent { rows; _ } -> List.length rows | Called { results; _ } -> List.length results | _ -> 0

(* As [Session]'s define: resolve, principal inference and
   instantiation against the store schema, then the catalog derivation
   (Applicability, FactorState, FactorMethods). *)
let define b ~name sv =
  let expr = span "lang.resolve" (fun () -> Elaborate.view_expr sv) in
  let schema = span "mvcc.head" (fun () -> Mvcc.schema (read b ())) in
  let p =
    span "infer.infer" (fun () ->
        match Infer.infer ~name (View.to_pipeline ~is_ref:(fun _ -> false) expr) with
        | Ok p -> p
        | Error e -> failwith (Infer.error_message e))
  in
  span "infer.admits" (fun () ->
      match Infer.admits schema p with Ok () -> () | Error e -> failwith (Infer.error_message e));
  let catalog, _ = span "catalog.define" (fun () -> Catalog.define_exn b.catalog ~name expr) in
  b.catalog <- catalog;
  Session.Defined { name; expr; attrs = [] }

let drop b name =
  b.catalog <- span "catalog.drop" (fun () -> Catalog.drop_exn b.catalog ~name);
  Session.Dropped name

(* One request through the layers; returns the response line and the
   rows its statements produced. *)
let handle_b b ~size (r : W.req) op =
  ignore (span "server.parse_request" (fun () -> Server.parse_request r.line));
  let render f = (span "server.render" f, 0) in
  match op with
  | O_get (oid, attr) ->
      let snap = span "mvcc.head" (read b) in
      let v = span "mvcc.get_attr" (fun () -> Mvcc.get_attr snap oid attr) in
      render (fun () -> Fmt.str "ok %s" (Dump.value_to_string v))
  | O_typeof oid ->
      let snap = span "mvcc.head" (read b) in
      let t = span "mvcc.type_of" (fun () -> Mvcc.type_of snap oid) in
      render (fun () -> Fmt.str "ok %s" (Type_name.to_string t))
  | O_begin ->
      let t = span "mvcc.begin" (fun () -> Mvcc.begin_ ~branch:Mvcc.main_branch b.store) in
      b.txn <- Some t;
      render (fun () -> Fmt.str "ok txn %d base %d" (Mvcc.txid t) (Mvcc.version (Mvcc.view t)))
  | O_set (oid, attr, v) ->
      span "mvcc.set_attr" (fun () -> Mvcc.set_attr (write b ()) oid attr v);
      render (fun () -> "ok")
  | O_new (ty, init) ->
      let oid = span "mvcc.new_object" (fun () -> Mvcc.new_object (write b ()) ty ~init) in
      render (fun () -> Fmt.str "ok #%d" (Oid.to_int oid))
  | O_commit -> (
      let t = write b () in
      b.txn <- None;
      match span "mvcc.commit" (fun () -> Mvcc.commit t) with
      | Ok v -> render (fun () -> Fmt.str "ok committed %d" v)
      | Error (Mvcc.Conflict reason) -> render (fun () -> Fmt.str "conflict %S" reason)
      | Error (Mvcc.Invalid reason) -> render (fun () -> Fmt.str "err %S" reason))
  | O_eval src ->
      let stmts = span "lang.parse" (fun () -> Stmt.parse_string src) in
      let session =
        match b.session with
        | Some s -> s
        | None ->
            let s =
              Session.create (Ops.store_ops ~read:(read b) ~write:(write b) ~size ())
            in
            b.session <- Some s;
            s
      in
      let outcomes =
        List.map
          (fun (st : Stmt.t) ->
            match st.sdesc with
            | Tdp_lang.Ast.SDefine { name; expr } -> define b ~name expr
            | Tdp_lang.Ast.SDrop name -> drop b name
            | _ -> span "lang.eval" (fun () -> Session.eval session st))
          stmts
      in
      let text = span "lang.render" (fun () -> String.concat "\n" (List.map Session.render outcomes)) in
      ( span "server.render" (fun () ->
            if List.exists Session.failed outcomes then Fmt.str "err %S" text else Fmt.str "ok %S" text),
        List.fold_left (fun n o -> n + rows_of o) 0 outcomes )

(* ---- layers ---------------------------------------------------------- *)

let layers = [ "server"; "lang"; "infer"; "catalog"; "mvcc"; "wal"; "interp"; "bench" ]

let layer_of name =
  let pre prefix = String.starts_with ~prefix name in
  if name = "req" then "bench"
  else if pre "server." then "server"
  else if pre "lang." then "lang"
  else if pre "infer." then "infer"
  else if pre "catalog." || pre "projection." || pre "applicability." || pre "schema_index." then "catalog"
  else if pre "mvcc." then "mvcc"
  else if pre "wal." then "wal"
  else "interp" (* interp.call, dispatch, and anything else a method runs *)

let layer_index l = W.index_of l layers

(* ---- the replay ------------------------------------------------------ *)

type per_req = {
  cls : W.cls;
  unit_id : int;
  a_ns : float;  (* pass A service time *)
  b_wall_ns : float;  (* pass B, monotonic clock around the root span *)
  spans : int;  (* spans under the root *)
  self : float array;  (* ns, by layer *)
  rows : int;
  surrogates : int;  (* surrogate types a define added *)
}

type result = {
  reqs : per_req array;
  failed : int;
  errors : string list;
  span_cost_ns : float;
  durations : (string, Stats.samples) Hashtbl.t;  (* ns, by span name *)
  jsonl : string;  (* every request's spans, one JSON object per line *)
  open_dir_s : float;
  snapshot_load_s : float;
  replay_us_per_txn : float;
  commits : int;
  log_records : int;  (* appended by pass B *)
  log_bytes : int;
  metrics : Metrics.snapshot;  (* program histograms over pass B *)
  gets : int;
  get_ns : float;  (* estimated per-row read cost *)
  calls : int;
  extent_rows : int;
  visited : int;
}

let hist (m : Metrics.snapshot) name =
  match List.assoc_opt name m.histograms with
  | Some h -> (h.Metrics.count, h.sum_ns)
  | None -> (0, 0.0)

(* An empty request of [null_spans] spans, run beside every traced one
   under the same heap: the instrumentation's own cost per span,
   measured where it is paid. *)
let null_spans = 5

let null_request i =
  let t0 = Stats.now_ns () in
  Trace.with_span "calibrate" ~attrs:[ ("null", string_of_int i); ("cls", "null") ] (fun () ->
      for _ = 2 to null_spans do
        Trace.with_span "calibrate.child" ignore
      done);
  Stats.now_ns () -. t0 -. Lazy.force Stats.clock_cost_ns

let log_stats dir =
  let path = Filename.concat dir "txn.log" in
  if not (Sys.file_exists path) then (0, 0)
  else
    let s = Fixture.read_file path in
    let d = Txn_log.decode s in
    (List.length d.fentries, d.fvalid_bytes)

let count_surrogates catalog =
  Hierarchy.fold
    (fun d n -> if Type_def.is_surrogate d then n + 1 else n)
    (Schema.hierarchy (Catalog.schema catalog))
    0

(* The first [n] requests of both connections' streams, whole units,
   alternating connections; units are numbered uniquely. *)
let requests w ctx ~seed ~n =
  let stream conn =
    let s = W.stream w ctx ~seed ~conn in
    let rec go acc k u =
      if k >= n / 2 then List.rev acc
      else
        let work = W.next s in
        let tagged = List.map (fun r -> (conn, (2 * u) + conn, r)) work.reqs in
        go (List.rev_append tagged acc) (k + List.length work.reqs) (u + 1)
    in
    go [] 0 0
  in
  let rec interleave a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: a', y :: b' -> x :: y :: interleave a' b'
  in
  interleave (stream 0) (stream 1)

(* One request's spans: per layer, the summed (duration - children)
   and the number of children whose instrumentation landed there. *)
let attribute spans =
  let child = Hashtbl.create 16 in
  List.iter
    (fun (s : Sink.span) ->
      match s.parent with
      | Some p ->
          let d, k = Option.value ~default:(0.0, 0) (Hashtbl.find_opt child p) in
          Hashtbl.replace child p (d +. s.duration_ns, k + 1)
      | None -> ())
    spans;
  let raw = Array.make (List.length layers) 0.0 and kids = Array.make (List.length layers) 0 in
  List.iter
    (fun (s : Sink.span) ->
      let d, k = Option.value ~default:(0.0, 0) (Hashtbl.find_opt child s.id) in
      let l = layer_index (layer_of s.name) in
      raw.(l) <- raw.(l) +. s.duration_ns -. d;
      kids.(l) <- kids.(l) + k)
    spans;
  (raw, kids)

let run ~dir_a ~dir_b w ctx ~seed ~n =
  let source = Fixture.read_file (Filename.concat dir_a "schema.odb") in
  let load_schema src = (Elaborate.load_exn src).schema in
  let schema = load_schema source in
  let open_ dir = (Mvcc.open_dir ~load_schema ~sync:true ~schema dir).store in
  let s0 = open_ dir_a in
  (* the second store's recovery is traced: the set-up layers' numbers *)
  Metrics.reset ();
  Metrics.enable ();
  let t0 = Stats.now_ns () in
  let o1 = Mvcc.open_dir ~load_schema ~sync:true ~schema dir_b in
  let open_dir_s = (Stats.now_ns () -. t0) /. 1e9 in
  Metrics.disable ();
  let _, load_ns = hist (Metrics.snapshot ()) "dump.load_ns" in
  let snapshot_load_s = load_ns /. 1e9 in
  let stores = [| s0; o1.store |] in
  let records0, bytes0 = log_stats dir_b in
  (* Both stores receive every request, one through each pass; which
     store serves pass A flips unit by unit, so neither pass keeps the
     store whose heap layout happens to be faster.  Both evolve
     identically, so the object count is shared. *)
  let size = ref (Mvcc.count (Mvcc.head s0 ~branch:Mvcc.main_branch)) in
  let staged = Array.make 2 0 in
  let sa = Array.map (fun store -> Array.init 2 (fun _ -> Server.session ~store ())) stores in
  let sb =
    Array.map
      (fun store -> Array.init 2 (fun _ -> { store; txn = None; session = None; catalog = Catalog.create schema }))
      stores
  in
  let durations = Hashtbl.create 64 and jsonl = Buffer.create 65536 in
  let failed = ref 0 and errors = ref [] and commits = ref 0 and null_ns = ref 0.0 in
  let fail m =
    incr failed;
    if List.length !errors < 5 then errors := m :: !errors
  in
  Metrics.reset ();
  Ops.reset ();
  Gc.compact ();
  let pending = ref [] in
  let seen = Array.make (List.length W.all_cls) 0 in
  let one i (conn, unit_id, (r : W.req)) =
    let a_store = (unit_id / 2) mod 2 in
    let b = sb.(1 - a_store).(conn) in
    let pass_a () =
      let t0 = Stats.now_ns () in
      let ra = Server.handle_line sa.(a_store).(conn) r.line in
      (ra, Stats.now_ns () -. t0 -. Lazy.force Stats.clock_cost_ns)
    in
    let pass_b () =
      let sink, collected = Sink.memory () in
      let m0 = Metrics.snapshot () and gets0 = Ops.c.gets in
      (* decoded last, so its values are as cache-warm as pass A's own
         parse results *)
      let op = decode r in
      Metrics.enable ();
      Trace.set_sink sink;
      let t0 = Stats.now_ns () in
      let rb, rows =
        try
          Trace.with_span "req"
            ~attrs:[ ("req", string_of_int i); ("cls", W.cls_name r.cls) ]
            (fun () -> handle_b b ~size:(fun () -> !size) r op)
        with e -> (Fmt.str "err %S" (Printexc.to_string e), 0)
      in
      let wall = Stats.now_ns () -. t0 -. Lazy.force Stats.clock_cost_ns in
      let spans = collected () in
      null_ns := !null_ns +. null_request i;
      Trace.set_sink Sink.null;
      Metrics.disable ();
      let m1 = Metrics.snapshot () in
      let delta name = snd (hist m1 name) -. snd (hist m0 name) in
      (rb, rows, wall, spans, Ops.c.gets - gets0, delta "infer.solve_ns" +. delta "infer.admit_ns", delta "wal.append_ns")
    in
    let surr0 = count_surrogates b.catalog in
    (* alternate which pass goes first within each request class (the
       first of two fsyncs pays for the file-system journal), and start
       each pass on an empty minor heap *)
    let k = Drive.cls_index r.cls in
    seen.(k) <- seen.(k) + 1;
    Gc.minor ();
    let (ra, a_ns), (rb, rows, b_wall_ns, spans, gets, infer_ns, wal_ns) =
      if seen.(k) mod 2 = 0 then
        let a = pass_a () in
        Gc.minor ();
        (a, pass_b ())
      else
        let bres = pass_b () in
        Gc.minor ();
        (pass_a (), bres)
    in
    (match W.check r ra with
    | W.Fail m -> fail m
    | W.Committed _ ->
        incr commits;
        size := !size + staged.(conn)
    | _ -> ());
    (match r.cls with W.Begin -> staged.(conn) <- 0 | W.New -> staged.(conn) <- staged.(conn) + 1 | _ -> ());
    if rb <> ra then fail (Fmt.str "traced path diverged at %s: %s <> %s" r.line rb ra);
    List.iter
      (fun (s : Sink.span) ->
        let d =
          match Hashtbl.find_opt durations s.name with
          | Some d -> d
          | None ->
              let d = Stats.samples () in
              Hashtbl.replace durations s.name d;
              d
        in
        Stats.add d s.duration_ns;
        Buffer.add_string jsonl (Tdp_obs.Json.to_string (Sink.span_to_json s));
        Buffer.add_char jsonl '\n')
      spans;
    let raw, kids = attribute spans in
    let explicit_infer = raw.(layer_index "infer") > 0.0 in
    pending := (raw, kids, gets, (if explicit_infer then 0.0 else infer_ns), wal_ns) :: !pending;
    { cls = r.cls;
      unit_id;
      a_ns;
      b_wall_ns;
      spans = List.length spans - 1;
      self = Array.make (List.length layers) 0.0;
      rows;
      surrogates = count_surrogates b.catalog - surr0
    }
  in
  let reqs = Array.of_list (List.mapi one (requests w ctx ~seed ~n)) in
  let metrics = Metrics.snapshot () in
  let get_ns = Ops.read_cost stores.(1) in
  Array.iter Mvcc.close stores;
  let records1, bytes1 = log_stats dir_b in
  let span_cost_ns = !null_ns /. float_of_int (null_spans * max 1 (Array.length reqs)) in
  (* each child's instrumentation cost lands in its parent's span; the
     costs without spans of their own move out of their parent's layer,
     per-row reads bounded by the evaluator time they were part of *)
  List.iteri
    (fun j (raw, kids, gets, infer_ns, wal_ns) ->
      let q = reqs.(Array.length reqs - 1 - j) in
      Array.iteri (fun l x -> q.self.(l) <- x -. (float_of_int kids.(l) *. span_cost_ns)) raw;
      let move ~from ~to_ ns =
        let ns = Float.min ns (Float.max 0.0 q.self.(layer_index from)) in
        q.self.(layer_index from) <- q.self.(layer_index from) -. ns;
        q.self.(layer_index to_) <- q.self.(layer_index to_) +. ns
      in
      move ~from:"lang" ~to_:"infer" infer_ns;
      move ~from:"lang" ~to_:"mvcc" (float_of_int gets *. get_ns);
      move ~from:"mvcc" ~to_:"wal" wal_ns)
    !pending;
  { reqs;
    failed = !failed;
    errors = List.rev !errors;
    span_cost_ns;
    durations;
    jsonl = Buffer.contents jsonl;
    open_dir_s;
    snapshot_load_s;
    replay_us_per_txn =
      (if o1.txn_applied = 0 then 0.0
       else (open_dir_s -. snapshot_load_s) *. 1e6 /. float_of_int o1.txn_applied);
    commits = !commits;
    log_records = records1 - records0;
    log_bytes = bytes1 - bytes0;
    metrics;
    gets = Ops.c.gets;
    get_ns;
    calls = Ops.c.calls;
    extent_rows = Ops.c.extent_rows;
    visited = Ops.c.visited
  }
