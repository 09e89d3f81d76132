(* Metrics from a socket run and a traced replay: the end-to-end and
   per-layer sets BENCHMARK.json names, the detail lines, and the
   reconciliation table. *)

module W = Workload
module J = Tdp_obs.Json
module Metrics = Tdp_obs.Metrics

type metric = { name : string; value : float; unit : string; n : int }

let m name value unit n = { name; value; unit; n }

type t = {
  workload : W.name;
  end_to_end : metric list;
  per_layer : metric list;  (* empty without a traced replay *)
  detail : metric list;  (* class-level numbers, for people *)
  attempted : int;
  failed : int;
  errors : string list;
  guard : string list;  (* percentiles with fewer than ten samples beyond *)
  tables : string list;  (* printed before the result line *)
}

let min_beyond = 10

(* A percentile of [s] (ns) in [unit]; records a guard failure when
   fewer than [min_beyond] samples lie beyond it. *)
let pct guard name s q unit =
  let scale = match unit with "ms" -> 1e6 | "us" -> 1e3 | _ -> 1.0 in
  if Stats.beyond s q < min_beyond then guard := name :: !guard;
  m name (Stats.quantile s q /. scale) unit (Stats.count s)

let units_lat (r : Drive.result) us = Stats.merge (List.map (Drive.lat_unit r) us)

(* The steady-state metrics: each second of the window is measured on
   its own and the median second reported, so a burst of outside load
   moves one second, not the result.  A statistic falls back to the
   whole window when some second cannot support it (too few requests,
   or fewer than [min_beyond] samples beyond a percentile). *)
let steady guard w (r : Drive.result) n_window =
  let slices = Drive.slices r (W.headline w) in
  let head = units_lat r (W.headline w) in
  let per_second ~min_count f whole =
    if List.for_all (fun s -> min_count s) slices then Stats.median_list (List.map f slices) else whole
  in
  let pct_steady name q =
    let need = int_of_float (Float.ceil (float_of_int min_beyond /. (1.0 -. q))) in
    let enough (s, _) = Stats.count s >= need && Stats.beyond s q >= min_beyond in
    if List.for_all enough slices then
      m name (Stats.median_list (List.map (fun (s, _) -> Stats.quantile s q) slices) /. 1e3) "us" (Stats.count head)
    else pct guard name head q "us"
  in
  [ m "ops_per_s"
      (per_second ~min_count:(fun (_, k) -> k >= 100) (fun (_, k) -> float_of_int k)
         (float_of_int n_window /. r.seconds))
      "req/s" n_window;
    pct_steady "op_p50_us" 0.5;
    pct_steady "op_tail_us" (W.tail_q w)
  ]

let conflict_ratio (r : Drive.result) =
  let commits = Drive.sum_conns (fun c -> c.commits) r
  and conflicts = Drive.sum_conns (fun c -> c.conflicts) r in
  m "mvcc.conflict_ratio"
    (if conflicts = 0 then 0.0 else float_of_int conflicts /. float_of_int (commits + conflicts))
    "ratio" (commits + conflicts)

let socket_metrics w (r : Drive.result) =
  let guard = ref [] in
  let n_window = Drive.sum_conns (fun c -> c.in_window) r in
  let end_to_end =
    m "setup_s" (Stats.median_list r.setup) "s" (List.length r.setup)
    :: steady guard w r n_window
    @ [ m "server_rss_mb" (float_of_int r.rss_kb /. 1024.0) "MB" 1 ]
  in
  let lat u = Drive.lat_unit r u in
  let txn = lat W.U_txn in
  let attempted = Drive.sum_conns (fun c -> c.attempted) r + r.durability_attempted in
  let failed =
    Drive.sum_conns (fun c -> c.failed) r + r.durability_failed + if r.clean_stop then 0 else 1
  in
  let detail =
    (match w with
    | W.Point_read -> [ pct guard "get_p50_us" (lat W.U_get) 0.5 "us"; pct guard "get_p99_us" (lat W.U_get) 0.99 "us" ]
    | W.Commit -> []
    | W.Scan_eval ->
        [ pct guard "scan_p50_ms" (lat W.U_scan) 0.5 "ms";
          (* about twenty calls a run: a mean, not a percentile *)
          m "call_mean_ms" (Stats.mean (lat W.U_call) /. 1e6) "ms" (Stats.count (lat W.U_call))
        ]
    | W.View_ddl -> [ pct guard "ddl_p50_us" (lat W.U_ddl) 0.5 "us"; pct guard "ddl_p99_us" (lat W.U_ddl) 0.99 "us" ]
    | W.Mixed_rw ->
        [ pct guard "get_p50_us" (lat W.U_get) 0.5 "us";
          pct guard "get_p90_us" (lat W.U_get) 0.9 "us";
          pct guard "scan_p50_ms" (lat W.U_mscan) 0.5 "ms"
        ])
    @ (if W.writes w then
         [ m "txn_per_s" (float_of_int (Stats.count txn) /. r.seconds) "txn/s" (Stats.count txn);
           pct guard "txn_p50_us" txn 0.5 "us";
           pct guard "txn_p99_us" txn 0.99 "us";
           conflict_ratio r
         ]
       else [])
    @ [ m "failed_ratio" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio" attempted ]
  in
  let errors =
    List.concat_map (fun (c : Drive.conn) -> List.rev c.errors) r.conns
    @ r.durability_errors
    @ if r.clean_stop then [] else [ "odb serve did not exit within 10 s of SIGTERM" ]
  in
  (end_to_end, detail, attempted, failed, errors, !guard)

(* ---- traced replay ---------------------------------------------------- *)

let self_total (q : Replay.per_req) = Array.fold_left ( +. ) 0.0 q.self

(* Pass B's wall time less the instrumentation's own cost: what the
   reconciliation holds against pass A. *)
let net (t : Replay.result) (q : Replay.per_req) =
  q.b_wall_ns -. (float_of_int (q.spans + 1) *. t.span_cost_ns)

let fold_reqs (t : Replay.result) f init = Array.fold_left f init t.reqs

let class_reqs (t : Replay.result) cls =
  List.filter (fun (q : Replay.per_req) -> q.cls = cls) (Array.to_list t.reqs)

let samples_of l f =
  let s = Stats.samples () in
  List.iter (fun x -> Stats.add s (f x)) l;
  s

let span_samples (t : Replay.result) name =
  Option.value ~default:(Stats.samples ()) (Hashtbl.find_opt t.durations name)

(* Pass-A service time per transaction: the sum over its requests. *)
let txn_service (t : Replay.result) =
  let units = Hashtbl.create 256 in
  Array.iter
    (fun (q : Replay.per_req) ->
      match q.cls with
      | W.Begin | W.Set | W.New | W.Commit_req ->
          Hashtbl.replace units q.unit_id (q.a_ns +. Option.value ~default:0.0 (Hashtbl.find_opt units q.unit_id))
      | _ -> ())
    t.reqs;
  let s = Stats.samples () in
  Hashtbl.iter (fun _ v -> Stats.add s v) units;
  s

(* What reconciliation compares: one item per request, except that a
   transaction's requests (begin, set/new, commit) make one item, the
   unit whose cost the fsyncs dominate.  Each item carries its pass-A
   time, its net pass-B time and its per-layer self times. *)
type item = { key : string; a : float; b : float; self : float array }

let items (t : Replay.result) =
  let txns = Hashtbl.create 256 and out = ref [] in
  Array.iter
    (fun (q : Replay.per_req) ->
      let b = net t q in
      match q.cls with
      | W.Begin | W.Set | W.New | W.Commit_req -> (
          match Hashtbl.find_opt txns q.unit_id with
          | None -> Hashtbl.replace txns q.unit_id { key = "txn"; a = q.a_ns; b; self = Array.copy q.self }
          | Some i ->
              Array.iteri (fun l x -> i.self.(l) <- i.self.(l) +. x) q.self;
              Hashtbl.replace txns q.unit_id { i with a = i.a +. q.a_ns; b = i.b +. b })
      | c -> out := { key = W.cls_name c; a = q.a_ns; b; self = q.self } :: !out)
    t.reqs;
  let all = List.rev !out @ Hashtbl.fold (fun _ i acc -> i :: acc) txns [] in
  List.filter_map
    (fun key ->
      match List.filter (fun i -> i.key = key) all with [] -> None | l -> Some (key, l))
    ("txn" :: List.map W.cls_name W.all_cls)

let hist_p50_us (t : Replay.result) name hist =
  match List.assoc_opt hist t.metrics.histograms with
  | Some h when h.Metrics.count > 0 -> Some (m name (h.p50_ns /. 1e3) "us" h.count)
  | _ -> None

let ratio a b = if b = 0.0 then 0.0 else a /. b

let replay_metrics (r : Drive.result) (t : Replay.result) =
  let n = Array.length t.reqs in
  let sum_a = fold_reqs t (fun a q -> a +. q.a_ns) 0.0 in
  let sum_self = fold_reqs t (fun a q -> a +. self_total q) 0.0 in
  let sum_wall = fold_reqs t (fun a q -> a +. q.b_wall_ns) 0.0 in
  (* e2e minus service, per class, weighted by the replay's class mix
     (the socket run's mix differs: fast requests complete more often) *)
  let transport =
    let parts =
      List.filter_map
        (fun c ->
          let e2e = Drive.lat_cls r c and qs = class_reqs t c in
          if Stats.count e2e = 0 || qs = [] then None
          else
            let a = samples_of qs (fun q -> q.a_ns) in
            Some (float_of_int (List.length qs), Stats.mean e2e -. Stats.mean a))
        W.all_cls
    in
    ratio
      (List.fold_left (fun acc (k, d) -> acc +. (k *. d)) 0.0 parts)
      (List.fold_left (fun acc (k, _) -> acc +. k) 0.0 parts)
  in
  let n_window = Drive.sum_conns (fun c -> c.in_window) r in
  let bytes = List.fold_left (fun a (c : Drive.conn) -> a +. Array.fold_left ( +. ) 0.0 c.resp_bytes) 0.0 r.conns in
  let rows = fold_reqs t (fun a q -> a + q.rows) 0 in
  let defines = class_reqs t W.Define in
  let classes = List.filter (fun c -> class_reqs t c <> []) W.all_cls in
  let groups = items t in
  (* medians: a preemption or collector pause lands in one pass only *)
  let dev l =
    let a = Stats.quantile (samples_of l (fun i -> i.a)) 0.5
    and b = Stats.quantile (samples_of l (fun i -> i.b)) 0.5 in
    (ratio b a, Float.abs (ratio b a -. 1.0))
  in
  let layer_share l =
    ratio (fold_reqs t (fun a q -> a +. q.self.(Replay.layer_index l)) 0.0) sum_self
  in
  let fsyncs = match List.assoc_opt "wal.fsync_ns" t.metrics.histograms with Some h -> h.count | None -> 0 in
  let per_commit x = if t.commits = 0 then 0.0 else float_of_int x /. float_of_int t.commits in
  let per_layer =
    [ m "server.service_us" (sum_a /. float_of_int n /. 1e3) "us" n;
      m "server.transport_us" (transport /. 1e3) "us" n_window;
      m "server.cpu_us_per_op" (ratio (r.server_cpu_s *. 1e6) (float_of_int n_window)) "us" n_window;
      m "server.response_bytes" (ratio bytes (float_of_int n_window)) "B" n_window
    ]
    @ List.map (fun l -> m ("share." ^ l) (layer_share l) "ratio" n) Replay.layers
    @ [ m "lang.store_calls_per_row" (ratio (float_of_int t.calls) (float_of_int rows)) "count" rows;
        m "lang.rows_examined_per_row" (ratio (float_of_int t.extent_rows) (float_of_int rows)) "count" rows;
        m "mvcc.rows_visited_per_returned"
          (ratio (float_of_int t.visited) (float_of_int t.extent_rows))
          "count" t.extent_rows;
        m "projection.surrogates_per_define"
          (ratio
             (float_of_int (List.fold_left (fun a (q : Replay.per_req) -> a + q.surrogates) 0 defines))
             (float_of_int (List.length defines)))
          "count" (List.length defines);
        m "txn_log.records_per_commit" (per_commit t.log_records) "count" t.commits;
        m "txn_log.bytes_per_commit" (per_commit t.log_bytes) "B" t.commits;
        m "wal.fsyncs_per_commit" (per_commit fsyncs) "count" t.commits;
        conflict_ratio r;
        m "mvcc.open_dir_s" t.open_dir_s "s" 1;
        m "store.snapshot_load_s" t.snapshot_load_s "s" 1;
        m "gen.cpu_share" (ratio r.gen_cpu_s r.seconds) "ratio" 1;
        m "trace.overhead_ratio" (ratio (sum_wall -. sum_a) sum_a) "ratio" n;
        m "trace.reconcile_max_dev"
          (List.fold_left (fun a (_, l) -> Float.max a (snd (dev l))) 0.0 groups)
          "ratio" (List.length groups)
      ]
  in
  (* class-level detail; a p50 is printed only when it rests on at
     least ten samples beyond it *)
  let p50 name s scale unit =
    if Stats.beyond s 0.5 < min_beyond then None
    else Some (m name (Stats.quantile s 0.5 /. scale) unit (Stats.count s))
  in
  let service c = p50 ("server.service_us." ^ W.cls_name c) (samples_of (class_reqs t c) (fun q -> q.a_ns)) 1e3 "us" in
  let lang_self c =
    p50 ("lang.eval_self_us." ^ W.cls_name c)
      (samples_of (class_reqs t c) (fun q -> q.self.(Replay.layer_index "lang")))
      1e3 "us"
  in
  let transport name e2e a =
    if Stats.beyond e2e 0.5 < min_beyond || Stats.beyond a 0.5 < min_beyond then None
    else Some (m name ((Stats.quantile e2e 0.5 -. Stats.quantile a 0.5) /. 1e3) "us" (Stats.count e2e))
  in
  let detail =
    List.filter_map Fun.id
      (List.map service classes
      @ [ p50 "server.service_us.txn" (txn_service t) 1e3 "us";
          transport "server.transport_us.get" (Drive.lat_cls r W.Get)
            (samples_of (class_reqs t W.Get) (fun q -> q.a_ns));
          transport "server.transport_us.txn" (Drive.lat_unit r W.U_txn) (txn_service t);
          p50 "lang.parse_us" (span_samples t "lang.parse") 1e3 "us";
          lang_self W.Scan;
          lang_self W.Type;
          lang_self W.Define;
          hist_p50_us t "infer.solve_us" "infer.solve_ns";
          hist_p50_us t "infer.admit_us" "infer.admit_ns";
          p50 "catalog.define_us" (span_samples t "catalog.define") 1e3 "us";
          p50 "catalog.drop_us" (span_samples t "catalog.drop") 1e3 "us";
          p50 "applicability.analyze_us" (span_samples t "applicability.analyze") 1e3 "us";
          p50 "projection.project_us" (span_samples t "projection.project") 1e3 "us";
          (if t.get_ns > 0.0 then Some (m "mvcc.get_attr_us" (t.get_ns /. 1e3) "us" (min t.gets Ops.recorded))
           else p50 "mvcc.get_attr_us" (span_samples t "mvcc.get_attr") 1e3 "us");
          p50 "mvcc.extent_us" (span_samples t "mvcc.extent") 1e3 "us";
          p50 "mvcc.to_database_ms" (span_samples t "mvcc.to_database") 1e6 "ms";
          p50 "mvcc.commit_us" (span_samples t "mvcc.commit") 1e3 "us";
          (let s = span_samples t "mvcc.commit" in
           if Stats.beyond s 0.99 < min_beyond then None
           else Some (m "mvcc.commit_p99_us" (Stats.quantile s 0.99 /. 1e3) "us" (Stats.count s)));
          hist_p50_us t "wal.fsync_us" "wal.fsync_ns";
          hist_p50_us t "wal.append_us" "wal.append_ns";
          (if t.replay_us_per_txn > 0.0 then Some (m "mvcc.txn_replay_us_per_txn" t.replay_us_per_txn "us" 1)
           else None)
        ])
  in
  (* the reconciliation and self-time table *)
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  pr "traced replay: %d requests, %.0f ns per span (measured in place, subtracted), overhead %.1f%%\n" n t.span_cost_ns
    (100.0 *. ratio (sum_wall -. sum_a) sum_a);
  pr "%-13s %5s %10s %10s %7s %11s |" "class" "n" "A_us" "B_net_us" "B/A" "residual_us";
  List.iter (fun l -> pr " %8s" l) Replay.layers;
  pr "\n";
  List.iter
    (fun (key, l) ->
      let k = float_of_int (List.length l) in
      let a = Stats.quantile (samples_of l (fun i -> i.a)) 0.5 in
      let e2e =
        if key = "txn" then Drive.lat_unit r W.U_txn
        else Drive.lat_cls r (List.find (fun c -> W.cls_name c = key) W.all_cls)
      in
      pr "%-13s %5d %10.1f %10.1f %7.3f %11.1f |" key (List.length l) (a /. 1e3)
        (Stats.quantile (samples_of l (fun i -> i.b)) 0.5 /. 1e3)
        (fst (dev l))
        (if Stats.count e2e = 0 then Float.nan else (Stats.quantile e2e 0.5 -. a) /. 1e3);
      List.iter
        (fun layer ->
          let j = Replay.layer_index layer in
          pr " %8.1f" (List.fold_left (fun x i -> x +. i.self.(j)) 0.0 l /. k /. 1e3))
        Replay.layers;
      pr "\n")
    groups;
  pr "(A, B: p50 per request or transaction; B/A must lie within 0.9..1.1; layers: mean self time, us)\n";
  (per_layer, detail, Buffer.contents b)

let make w (r : Drive.result) (t : Replay.result option) =
  let end_to_end, detail, attempted, failed, errors, guard = socket_metrics w r in
  match t with
  | None -> { workload = w; end_to_end; per_layer = []; detail; attempted; failed; errors; guard; tables = [] }
  | Some t ->
      let per_layer, more, table = replay_metrics r t in
      let attempted = attempted + Array.length t.reqs and failed = failed + t.failed in
      let per_layer =
        per_layer @ [ m "failed_ratio" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio" attempted ]
      in
      (* a per-layer metric replaces its detail line of the same name
         (failed_ratio there also counts the replay's checks) *)
      let detail = List.filter (fun x -> not (List.exists (fun y -> y.name = x.name) per_layer)) detail in
      { workload = w;
        end_to_end;
        per_layer;
        detail = detail @ more;
        attempted;
        failed;
        errors = errors @ t.errors;
        guard;
        tables = [ table ]
      }

(* A one-second smoke run cannot support a p99: there the percentile
   guard warns instead of failing. *)
let correct ?(guarded = true) t = t.failed = 0 && ((not guarded) || t.guard = [])

(* ---- output ----------------------------------------------------------- *)

let line w (x : metric) = Fmt.str "%s %s %.6g %s n=%d" (W.to_string w) x.name x.value x.unit x.n

let metric_json x = (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit) ])

let detail_json t =
  let entry x = J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit); ("n", J.Int x.n) ] in
  let list l = J.Obj (List.map (fun x -> (x.name, entry x)) l) in
  J.Obj
    [ ("workload", J.String (W.to_string t.workload));
      ("correct", J.Bool (correct t));
      ("attempted", J.Int t.attempted);
      ("failed", J.Int t.failed);
      ("errors", J.List (List.map (fun e -> J.String e) t.errors));
      ("end_to_end", list t.end_to_end);
      ("per_layer", list t.per_layer);
      ("detail", list t.detail);
      ("tables", J.List (List.map (fun s -> J.String s) t.tables))
    ]
