open Tdp_core
module Oid = Tdp_store.Oid
module Value = Tdp_store.Value
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Wal = Tdp_store.Wal
module Obs = Tdp_obs
module View = Tdp_algebra.View
module Pred = Tdp_algebra.Pred
module String_map = Map.Make (String)

(* Snapshot-isolation MVCC over immutable database versions.

   A [snapshot] is a persistent value: an [Oid.Map] of immutable
   object records plus the schema and its compiled index.  Committing
   never mutates a snapshot — it builds a new one sharing almost all
   structure with its parent (O(ops · log n)), then publishes it as the
   branch head with one atomic store.  Readers need no lock, neither to
   fetch a head nor to read it: they see exactly the version they
   started from, which is the whole of snapshot isolation.

   Writes go through transactions.  A transaction pins its branch head
   as [base], stages validated ops against a private overlay snapshot,
   and at commit — under the store lock — runs first-writer-wins
   conflict detection: if any version committed to the branch since
   [base] wrote an object this transaction also wrote (or either side
   swapped the schema), the transaction aborts.  Surviving transactions
   are re-applied to the *current* head (catching read-write races that
   write-set intersection cannot see, e.g. a new reference to an object
   a later commit deleted), logged as a begin..commit bracket in the
   transaction log — one write and one fsync for the whole bracket —
   and only then published.  The log append precedes publication, so
   the log is always at least as new as memory; a failed append rolls
   the whole bracket back, and a crash mid-write leaves at most a begin
   without its commit, which replay discards — no torn state.

   Every op is validated by {!Database}'s object rules, over the
   snapshot's index and object map: one definition and one message
   text for both stores.

   Domain-safety inventory (OCaml 5: reader domains run lock-free over
   snapshots, and [stage] runs on session domains without the store
   lock): [Oid.Map]/[Attr_name.Map] are immutable; the schema index is
   built with [Schema_index.compile] (no shared intern table).  Reads
   use only [Schema_index.subtype], a pure bit test; validation also
   reads the memoized [layout]/[layout_positions], so two domains may
   fill one memo cell at once.  Each cell is a write-once [option] slot
   holding a value nobody mutates once built: a racing reader sees
   [None] (and builds an equal value) or a fully built [Some], as OCaml
   5 publishes a block's initializing writes with it.  Publication is
   atomic: the branch table is one immutable [String_map] behind an
   [Atomic.t] (replaced whole, under the lock, by a fork), each branch
   head is an [Atomic.t] (set by commit and replay under the lock), and
   [closed] is atomic, so [head] and [branches] are plain loads that
   take no lock.  Everything else a writer touches — versions, the txid
   allocator, write-set history, the log writer — stays under the store
   lock.  [Obs.Metrics] is not thread-safe, so every metric below is
   recorded while holding the store lock. *)

let fail fmt = Fmt.kstr (fun s -> raise (Database.Store_error s)) fmt
let main_branch = "main"

let m_begin = Obs.Metrics.counter "txn.begin"
let m_commit = Obs.Metrics.counter "txn.commit"
let m_abort = Obs.Metrics.counter "txn.abort"
let m_conflict = Obs.Metrics.counter "txn.conflict"
let m_commit_ns = Obs.Metrics.histogram "txn.commit_ns"

(* ---- snapshots ----------------------------------------------------- *)

type stored = { st_ty : Type_name.t; st_slots : Value.t Attr_name.Map.t }

type snapshot = {
  objs : stored Oid.Map.t;
  schema : Schema.t;
  index : Schema_index.t;
  next_oid : int;
  version : int;
}

let empty_snapshot schema =
  { objs = Oid.Map.empty;
    schema;
    index = Schema_index.compile (Schema.hierarchy schema);
    next_oid = 1;
    version = 0
  }

let version s = s.version
let schema s = s.schema
let next_oid s = s.next_oid
let count s = Oid.Map.cardinal s.objs

let find s oid =
  match Oid.Map.find_opt oid s.objs with
  | Some st -> st
  | None -> Database.no_object oid

let type_of s oid = (find s oid).st_ty
let slots s oid = (find s oid).st_slots

let get_attr s oid attr =
  let st = find s oid in
  match Attr_name.Map.find_opt attr st.st_slots with
  | Some v -> v
  | None -> Database.no_attr oid st.st_ty attr

(* The deep extent of [ty] filtered by [keep], in OID order
   ([Oid.Map.fold] visits keys in order): one fold over the snapshot
   that conses only the OIDs it returns. *)
let filter_extent s ty keep =
  Oid.Map.fold
    (fun oid st acc ->
      if Schema_index.subtype s.index st.st_ty ty && keep oid st then oid :: acc
      else acc)
    s.objs []
  |> List.rev

let extent s ty = filter_extent s ty (fun _ _ -> true)

(* Identity instances of a view over the snapshot, as [View.instances]
   over [to_database s] computes them.  Selection predicates push down
   to the [Base] leaves — filtering distributes over a generalization's
   union — and run inside that leaf's one fold on the stored slots,
   inner predicates first like the nested filters they replace. *)
let instances s expr =
  let rec go preds (e : View.expr) =
    match e with
    | Base n -> (
        match preds with
        | [] -> extent s n
        | p :: rest ->
            let test = Pred.holds (List.fold_left (fun a b -> Pred.And (a, b)) p rest) in
            filter_extent s n (fun oid st ->
                test (fun attr ->
                    match Attr_name.Map.find attr st.st_slots with
                    | v -> v
                    | exception Not_found -> get_attr s oid attr)))
    | Project (e, _) -> go preds e
    | Select (e, p) -> go (p :: preds) e
    | Generalize (a, b) -> List.sort_uniq Oid.compare (go preds a @ go preds b)
    | Join _ ->
        Error.raise_
          (Invariant_violation
             "join views have no identity instances; use Join.materialize")
  in
  go [] expr

(* ---- op application ------------------------------------------------ *)

(* The object rules are {!Database}'s; finding referrers (a fold, where
   the columnar store keeps a reverse index) is this module's own. *)

let referent s oid = Option.map (fun st -> st.st_ty) (Oid.Map.find_opt oid s.objs)

let referrers s oid =
  Oid.Map.fold
    (fun other st acc ->
      if Oid.equal other oid then acc
      else
        Attr_name.Map.fold
          (fun attr v acc ->
            match v with
            | Value.Ref r when Oid.equal r oid -> (other, attr) :: acc
            | _ -> acc)
          st.st_slots acc)
    s.objs []
  |> List.sort (fun (a, x) (b, y) ->
         match Oid.compare a b with 0 -> Attr_name.compare x y | c -> c)

(* Apply one validated op, returning the successor snapshot (same
   [version]; commit stamps the new version on publication).
   @raise Database.Store_error when the op does not validate. *)
let apply ?load_schema s (op : Database.op) =
  match op with
  | Database.Op_new { oid; ty; init } ->
      Database.check_fresh_oid ~referent:(referent s) oid;
      let row = Database.build_row s.index ~referent:(referent s) ty ~init in
      let st_slots = ref Attr_name.Map.empty in
      Array.iteri
        (fun i a -> st_slots := Attr_name.Map.add (Attribute.name a) row.(i) !st_slots)
        (Schema_index.layout s.index ty);
      { s with
        objs = Oid.Map.add oid { st_ty = ty; st_slots = !st_slots } s.objs;
        next_oid = max s.next_oid (Oid.to_int oid + 1)
      }
  | Database.Op_set { oid; attr; value } ->
      let st = find s oid in
      if not (Attr_name.Map.mem attr st.st_slots) then Database.no_attr oid st.st_ty attr;
      Database.check_set s.index ~referent:(referent s) st.st_ty attr value;
      { s with
        objs =
          Oid.Map.add oid
            { st with st_slots = Attr_name.Map.add attr value st.st_slots }
            s.objs
      }
  | Database.Op_delete { oid; policy } ->
      let _ = find s oid in
      let refs = referrers s oid in
      Database.check_delete policy oid refs;
      let objs =
        match policy with
        | Database.Restrict -> s.objs
        | Database.Nullify ->
            List.fold_left
              (fun objs (other, attr) ->
                let st = Oid.Map.find other objs in
                Oid.Map.add other
                  { st with st_slots = Attr_name.Map.add attr Value.Null st.st_slots }
                  objs)
              s.objs refs
      in
      { s with objs = Oid.Map.remove oid objs }
  | Database.Op_set_schema { source } ->
      let schema = Database.schema_of_source load_schema source in
      { s with schema; index = Schema_index.compile (Schema.hierarchy schema) }

(* ---- write sets ---------------------------------------------------- *)

type writes = { w_oids : Oid.Set.t; w_schema : bool }

let no_writes = { w_oids = Oid.Set.empty; w_schema = false }

let writes_add w (op : Database.op) =
  match op with
  | Database.Op_new { oid; _ } | Database.Op_set { oid; _ } | Database.Op_delete { oid; _ }
    ->
      { w with w_oids = Oid.Set.add oid w.w_oids }
  | Database.Op_set_schema _ -> { w with w_schema = true }

(* A schema swap conflicts with every concurrent commit: it can change
   the meaning of any staged op. *)
let writes_conflict a b =
  a.w_schema || b.w_schema || not (Oid.Set.disjoint a.w_oids b.w_oids)

(* ---- the store ----------------------------------------------------- *)

(* How many committed write sets a branch retains, at least, for
   first-writer-wins checks.  A transaction whose base predates the
   retained window aborts conservatively. *)
let recent_limit = 1024

(* [head] is read lock-free; the write-set history only under the lock. *)
type branch = {
  head : snapshot Atomic.t;
  mutable recent : (int * writes) list;  (* newest first *)
  mutable n_recent : int;  (* List.length recent *)
  mutable floor : int;  (* write sets of versions <= floor were discarded *)
}

type t = {
  lock : Mutex.t;
  mutable version : int;  (* last committed version, across all branches *)
  mutable next_txid : int;
  branches : branch String_map.t Atomic.t;  (* replaced whole, under the lock *)
  mutable writer : Wal.writer option;
  load_schema : (string -> Schema.t) option;
  mutable dir : string option;
  closed : bool Atomic.t;
}

let locked t f = Mutex.protect t.lock f

let check_live t =
  if Atomic.get t.closed then fail "store is closed"

let find_branch t name =
  match String_map.find_opt name (Atomic.get t.branches) with
  | Some br -> br
  | None -> fail "unknown branch %s" name

let new_branch (head : snapshot) =
  { head = Atomic.make head; recent = []; n_recent = 0; floor = head.version }

(* Add a branch; the caller holds the lock, the only writer of the table. *)
let add_branch t name head =
  Atomic.set t.branches (String_map.add name (new_branch head) (Atomic.get t.branches))

let make ?load_schema (base : snapshot) =
  { lock = Mutex.create ();
    version = base.version;
    next_txid = 1;
    branches = Atomic.make (String_map.singleton main_branch (new_branch base));
    writer = None;
    load_schema;
    dir = None;
    closed = Atomic.make false
  }

let create ?load_schema schema = make ?load_schema (empty_snapshot schema)

let snapshot_of_database db ~version =
  let objs =
    List.fold_left
      (fun objs (o : Database.obj) ->
        Oid.Map.add o.oid { st_ty = o.ty; st_slots = o.slots } objs)
      Oid.Map.empty (Database.objects db)
  in
  let sch = Database.schema db in
  { objs;
    schema = sch;
    index = Schema_index.compile (Schema.hierarchy sch);
    next_oid = Database.next_oid db;
    version
  }

(* A memory-only store seeded from a recovered database — how a
   replica bootstraps from the primary's snapshot. *)
let of_database ?load_schema db =
  make ?load_schema (snapshot_of_database db ~version:0)

(* Materialize a snapshot as a mutable {!Database} — the bridge to
   {!Dump} for checkpoints and textual dumps.  Two passes so forward
   references restore. *)
let to_database s =
  let db = Database.create s.schema in
  let refs = ref [] in
  Oid.Map.iter
    (fun oid st ->
      let init =
        Attr_name.Map.fold
          (fun a v acc ->
            match v with
            | Value.Ref _ ->
                refs := (oid, a, v) :: !refs;
                acc
            | v -> (a, v) :: acc)
          st.st_slots []
      in
      ignore (Database.restore_object db ~oid ~ty:st.st_ty ~init))
    s.objs;
  List.iter (fun (oid, a, v) -> Database.set_attr db oid a v) (List.rev !refs);
  db

let dump s = Dump.to_string (to_database s)

(* ---- store reads --------------------------------------------------- *)

(* Lock-free: two atomic loads, so a reader never waits behind a commit
   holding the lock through its fsync. *)
let head t ~branch =
  check_live t;
  Atomic.get (find_branch t branch).head

let branches t =
  List.map
    (fun (name, br) -> (name, (Atomic.get br.head).version))
    (String_map.bindings (Atomic.get t.branches))

let current_version t = locked t (fun () -> t.version)

(* ---- transactions -------------------------------------------------- *)

type txn_state = Open | Committed of int | Aborted of string

type txn = {
  store : t;
  txid : int;
  txn_branch : string;
  base : snapshot;
  mutable overlay : snapshot;
  mutable ops : Database.op list;  (* reversed *)
  mutable writes : writes;
  mutable state : txn_state;
}

type commit_error = Conflict of string | Invalid of string

let commit_error_message = function Conflict m -> m | Invalid m -> m

let begin_ ?(branch = main_branch) t =
  locked t (fun () ->
      check_live t;
      let head = Atomic.get (find_branch t branch).head in
      let txid = t.next_txid in
      t.next_txid <- txid + 1;
      Obs.Metrics.incr m_begin;
      { store = t;
        txid;
        txn_branch = branch;
        base = head;
        overlay = head;
        ops = [];
        writes = no_writes;
        state = Open
      })

let txid txn = txn.txid
let view txn = txn.overlay
let state txn = txn.state

let check_open txn =
  match txn.state with
  | Open -> ()
  | Committed v -> fail "transaction %d already committed as version %d" txn.txid v
  | Aborted r -> fail "transaction %d is aborted: %s" txn.txid r

(* Validate against the overlay and stage.  A failing op raises and
   leaves the transaction untouched (still open, overlay unchanged). *)
let stage txn op =
  check_open txn;
  let overlay = apply ?load_schema:txn.store.load_schema txn.overlay op in
  txn.overlay <- overlay;
  txn.ops <- op :: txn.ops;
  txn.writes <- writes_add txn.writes op

let new_object txn ty ~init =
  let oid = Oid.of_int txn.overlay.next_oid in
  stage txn (Database.Op_new { oid; ty; init });
  oid

let set_attr txn oid attr value = stage txn (Database.Op_set { oid; attr; value })

let delete txn ?(policy = Database.Restrict) oid =
  stage txn (Database.Op_delete { oid; policy })

let set_schema txn ~source = stage txn (Database.Op_set_schema { source })

(* Abort records are audit trail, not correctness: losers never logged
   their ops (brackets are written only at commit), so replay needs no
   cancellation.  A failure to record one must not mask the abort. *)
let log_abort t txn reason =
  match t.writer with
  | Some w when txn.ops <> [] && not (Wal.writer_poisoned w) -> (
      try ignore (Txn_log.append w (Txn_log.Abort { txid = txn.txid; reason }))
      with Wal.Wal_error _ | Sys_error _ | Unix.Unix_error _ -> ())
  | _ -> ()

let abort ?(reason = "aborted by client") txn =
  match txn.state with
  | Aborted _ -> ()
  | Committed v -> fail "transaction %d already committed as version %d" txn.txid v
  | Open ->
      txn.state <- Aborted reason;
      locked txn.store (fun () ->
          Obs.Metrics.incr m_abort;
          log_abort txn.store txn reason)

let first_writer_wins br txn =
  if txn.base.version = (Atomic.get br.head).version then None
  else if txn.base.version < br.floor then
    Some
      (Fmt.str "base version %d predates the retained write-set history (floor %d)"
         txn.base.version br.floor)
  else
    let clash =
      List.find_opt
        (fun (v, w) -> v > txn.base.version && writes_conflict w txn.writes)
        br.recent
    in
    Option.map
      (fun (v, _) ->
        Fmt.str "write set intersects version %d (committed after base %d)" v
          txn.base.version)
      clash

(* The history is cut back to [recent_limit] entries only once it
   reaches twice that, so a commit pays amortized O(1) for it (not a
   rebuild of [recent_limit] cells under the lock) and the window never
   holds fewer than [recent_limit] versions. *)
let trim_recent br =
  if br.n_recent >= 2 * recent_limit then begin
    let rec take n = function
      | (v, _) :: _ when n = 0 ->
          br.floor <- v;
          []
      | x :: tl -> x :: take (n - 1) tl
      | [] -> []
    in
    br.recent <- take recent_limit br.recent;
    br.n_recent <- recent_limit
  end

(* Stamp [snap] with the next version and make it [br]'s head,
   recording its write set.  The caller holds the store lock. *)
let install t br writes snap =
  let v = t.version + 1 in
  t.version <- v;
  Atomic.set br.head { snap with version = v };
  br.recent <- (v, writes) :: br.recent;
  br.n_recent <- br.n_recent + 1;
  trim_recent br;
  v

let commit txn =
  match txn.state with
  | Committed v -> Error (Invalid (Fmt.str "transaction %d already committed as version %d" txn.txid v))
  | Aborted r -> Error (Invalid (Fmt.str "transaction %d is aborted: %s" txn.txid r))
  | Open when txn.ops = [] ->
      (* Read-only: nothing to publish, nothing to log. *)
      txn.state <- Committed txn.base.version;
      locked txn.store (fun () -> Obs.Metrics.incr m_commit);
      Ok txn.base.version
  | Open ->
      let t = txn.store in
      locked t (fun () ->
          Obs.Metrics.time m_commit_ns (fun () ->
              check_live t;
              let br = find_branch t txn.txn_branch in
              match first_writer_wins br txn with
              | Some reason ->
                  txn.state <- Aborted reason;
                  Obs.Metrics.incr m_conflict;
                  Obs.Metrics.incr m_abort;
                  log_abort t txn reason;
                  Error (Conflict reason)
              | None -> (
                  let ops = List.rev txn.ops in
                  (* Re-validate against the current head: write-set
                     intersection cannot see read-write races (e.g. a
                     staged reference to an object a later commit
                     deleted), re-application does. *)
                  match
                    List.fold_left
                      (fun snap op -> apply ?load_schema:t.load_schema snap op)
                      (Atomic.get br.head) ops
                  with
                  | exception Database.Store_error msg ->
                      let reason = "no longer applies to the branch head: " ^ msg in
                      txn.state <- Aborted reason;
                      Obs.Metrics.incr m_conflict;
                      Obs.Metrics.incr m_abort;
                      log_abort t txn reason;
                      Error (Conflict reason)
                  | snap -> (
                      (* Write-ahead: the whole bracket reaches the log
                         as one durable batch before the head moves.  A
                         failed append leaves none of it behind; a crash
                         mid-write at most a begin without a commit
                         record, which replay discards. *)
                      let txid = txn.txid in
                      match
                        Option.iter
                          (fun w ->
                            ignore
                              (Txn_log.append_batch w
                                 ((Txn_log.Begin { txid; branch = txn.txn_branch }
                                  :: List.map (fun op -> Txn_log.Op { txid; op }) ops)
                                 @ [ Txn_log.Commit { txid } ])))
                          t.writer
                      with
                      | exception exn ->
                          txn.state <- Aborted "transaction log append failed";
                          Obs.Metrics.incr m_abort;
                          raise exn
                      | () ->
                          let v = install t br txn.writes snap in
                          txn.state <- Committed v;
                          Obs.Metrics.incr m_commit;
                          Ok v))))

(* ---- replication support ------------------------------------------- *)

(* The transaction-log replayer below applies committed brackets
   outside any transaction: it validates their ops against the branch
   head with [apply_op] and installs the successor with [publish].
   Publication still maintains the per-branch write-set history, so
   local read-only transactions (and a post-promotion switch to writes)
   see a coherent store. *)

let apply_op t s op = apply ?load_schema:t.load_schema s op

let publish t ~branch ~ops snap =
  locked t (fun () ->
      check_live t;
      install t (find_branch t branch) (List.fold_left writes_add no_writes ops) snap)

let log_seq t =
  locked t (fun () -> match t.writer with Some w -> Wal.writer_seq w - 1 | None -> 0)

let log_writer t = locked t (fun () -> t.writer)

(* ---- transaction-log replay ---------------------------------------- *)

(* The one place a transaction log turns back into versions, fed one
   framed record at a time: recovery feeds it a decoded log, a replica
   the records it tails.  Every txid seen moves the allocator past it.
   A begin opens a bracket that buffers its ops until the commit, which
   applies them to the branch head and publishes one version; an abort
   drops the bracket; a fork copies the source head.  Structural damage
   stops replay at a seq — the record's own, or for a bracket that no
   longer applies its begin's — and the caller decides what stopping
   means (truncation for recovery, a halt for a replica).  A replica
   serves reads while it replays, so store state is touched under the
   lock only. *)

type bracket = { b_branch : string; mutable b_ops : Database.op list; b_seq : int }
type replay = { r_store : t; brackets : (int, bracket) Hashtbl.t }
type replay_stop = { stop_seq : int; stop_reason : string }

let replay_start t = { r_store = t; brackets = Hashtbl.create 8 }
let open_brackets r = Hashtbl.fold (fun _ b acc -> b.b_seq :: acc) r.brackets []

let replay_record r (e : Txn_log.record Wal.framed) =
  let t = r.r_store in
  let stop ?(seq = e.Wal.fseq) fmt =
    Fmt.kstr (fun stop_reason -> Error { stop_seq = seq; stop_reason }) fmt
  in
  (match e.Wal.fvalue with
  | Txn_log.Begin { txid; _ }
  | Txn_log.Op { txid; _ }
  | Txn_log.Commit { txid }
  | Txn_log.Abort { txid; _ } ->
      locked t (fun () -> if txid >= t.next_txid then t.next_txid <- txid + 1)
  | Txn_log.Fork _ -> ());
  match e.Wal.fvalue with
  | Txn_log.Begin { txid; branch } ->
      if Hashtbl.mem r.brackets txid then stop "duplicate begin for txid %d" txid
      else if not (String_map.mem branch (Atomic.get t.branches)) then
        stop "begin on unknown branch %s" branch
      else begin
        Hashtbl.replace r.brackets txid { b_branch = branch; b_ops = []; b_seq = e.Wal.fseq };
        Ok ()
      end
  | Txn_log.Op { txid; op } -> (
      match Hashtbl.find_opt r.brackets txid with
      | Some b ->
          b.b_ops <- op :: b.b_ops;
          Ok ()
      | None -> stop "op outside any open transaction (txid %d)" txid)
  | Txn_log.Abort { txid; _ } ->
      Hashtbl.remove r.brackets txid;
      Ok ()
  | Txn_log.Fork { branch; from_ } ->
      locked t (fun () ->
          let table = Atomic.get t.branches in
          match String_map.find_opt from_ table with
          | None -> stop "fork from unknown branch %s" from_
          | Some _ when String_map.mem branch table ->
              stop "fork of existing branch %s" branch
          | Some src ->
              add_branch t branch (Atomic.get src.head);
              Ok ())
  | Txn_log.Commit { txid } -> (
      match Hashtbl.find_opt r.brackets txid with
      | None -> stop "commit without begin (txid %d)" txid
      | Some b -> (
          Hashtbl.remove r.brackets txid;
          let ops = List.rev b.b_ops in
          match List.fold_left (apply_op t) (head t ~branch:b.b_branch) ops with
          | snap ->
              ignore (publish t ~branch:b.b_branch ~ops snap);
              Ok ()
          | exception exn ->
              stop ~seq:b.b_seq "replayed transaction no longer applies: %s"
                (Wal.replay_failure exn)))

(* ---- branches ------------------------------------------------------ *)

let fork t ~from_ ~branch =
  locked t (fun () ->
      check_live t;
      if not (Txn_log.valid_branch_name branch) then fail "invalid branch name %S" branch;
      if String_map.mem branch (Atomic.get t.branches) then
        fail "branch %s already exists" branch;
      let src = Atomic.get (find_branch t from_).head in
      (match t.writer with
      | None -> ()
      | Some w -> ignore (Txn_log.append w (Txn_log.Fork { branch; from_ })));
      add_branch t branch src;
      src.version)

(* ---- recovery ------------------------------------------------------ *)

type opened = {
  store : t;
  txn_applied : int;  (** committed transactions replayed *)
  txn_discarded : int;  (** dangling begin..op brackets dropped *)
  txn_corruption : Wal.corruption option;
  txn_valid_bytes : int;
  txn_next_seq : int;
  tmp_removed : bool;
  legacy_corruption : Wal.corruption option;  (** where the [wal.log] fold stopped *)
}

(* The byte offset at which record [seq] starts in a decoded log. *)
let offset_of_seq entries seq =
  let rec go prev = function
    | [] -> prev
    | (e : _ Wal.framed) :: rest -> if e.Wal.fseq = seq then prev else go e.Wal.fends_at rest
  in
  go 0 entries

(* Replay [txn] over the base state: records the snapshot already
   absorbed ([txn-seq] header, [base_seq]) are skipped, and a replay
   stop ends the replayable prefix exactly like a checksum failure. *)
let replay_log ?load_schema ~base_seq (base : Database.t) txn =
  let t = make ?load_schema (snapshot_of_database base ~version:0) in
  let d = Txn_log.decode txn in
  let r = replay_start t in
  let rec go = function
    | [] -> Ok ()
    | (e : Txn_log.record Wal.framed) :: rest -> (
        if e.Wal.fseq <= base_seq then go rest
        else match replay_record r e with Ok () -> go rest | Error _ as stop -> stop)
  in
  let corruption, valid, next_seq =
    match go d.Wal.fentries with
    | Ok () -> (d.Wal.fcorruption, d.Wal.fvalid_bytes, d.Wal.fnext_seq)
    | Error { stop_seq; stop_reason } ->
        let offset = offset_of_seq d.Wal.fentries stop_seq in
        (Some { Wal.at_seq = stop_seq; offset; reason = stop_reason }, offset, stop_seq)
  in
  (* A checkpoint truncates the log but bakes its last txn-seq into the
     snapshot header; new records must continue past it, or the next
     recovery would skip them as already-in-snapshot. *)
  let next_seq = max next_seq (base_seq + 1) in
  { store = t;
    (* the base is version 0 and each replayed bracket publishes one *)
    txn_applied = t.version;
    txn_discarded = List.length (open_brackets r);
    txn_corruption = corruption;
    txn_valid_bytes = valid;
    txn_next_seq = next_seq;
    tmp_removed = false;
    legacy_corruption = None
  }

let recover_text ?load_schema ~schema ?snapshot ?wal ?(txn = "") () =
  let legacy = Wal.fold_legacy ?load_schema ~schema ?snapshot ?wal () in
  let base_seq = Option.fold ~none:0 ~some:Dump.txn_seq snapshot in
  { (replay_log ?load_schema ~base_seq legacy.Wal.db txn) with
    legacy_corruption = legacy.Wal.corruption
  }

let snapshot_file = "snapshot.dump"
let wal_file = "wal.log"
let txn_file = "txn.log"

let read_file path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let open_dir ?load_schema ?(sync = true) ~schema dir =
  let in_dir = Filename.concat dir in
  let snap_path = in_dir snapshot_file and wal_path = in_dir wal_file in
  (* The lock comes first: nothing below may read, repair or rewrite a
     directory another process is writing. *)
  let writer = Txn_log.writer_open ~sync ~path:(in_dir txn_file) () in
  match
    (* A crash between temp-write and rename leaves an orphaned .tmp
       sibling; it is never read as a snapshot, only removed. *)
    let tmp_removed = Dump.clean_tmp ~path:snap_path in
    let snapshot = read_file snap_path and wal = read_file wal_path in
    let txn = Wal.contents writer in
    let base = Wal.fold_legacy ?load_schema ~schema ?snapshot ?wal () in
    let base_seq = Option.fold ~none:0 ~some:Dump.txn_seq snapshot in
    if wal <> None then begin
      (* A store from before the one-log format: fold its wal.log into
         the snapshot once, then drop it.  The folded snapshot names
         the last record it took ([wal-seq]), so a crash before the
         removal folds nothing twice. *)
      if base.wal_seq > Option.fold ~none:0 ~some:Dump.wal_seq snapshot then
        Dump.save ~wal_seq:base.wal_seq ~txn_seq:base_seq ~path:snap_path base.db;
      Sys.remove wal_path;
      Dump.fsync_dir dir
    end;
    let o = replay_log ?load_schema ~base_seq base.db txn in
    (* Cut a torn or damaged tail before appending over it. *)
    Wal.reset writer ~valid_bytes:o.txn_valid_bytes ~next_seq:o.txn_next_seq;
    o.store.writer <- Some writer;
    o.store.dir <- Some dir;
    { o with tmp_removed; legacy_corruption = base.corruption }
  with
  | o -> o
  | exception exn ->
      Wal.close writer;
      raise exn

(* ---- checkpoint and close ------------------------------------------ *)

let checkpoint t =
  locked t (fun () ->
      check_live t;
      match (t.dir, t.writer) with
      | None, _ | _, None -> fail "checkpoint requires a directory-backed store"
      | Some dir, Some w ->
          let table = Atomic.get t.branches in
          if String_map.cardinal table > 1 then
            fail "checkpoint requires a single branch (%d exist)"
              (String_map.cardinal table);
          let head = Atomic.get (String_map.find main_branch table).head in
          let txn_seq = Wal.writer_seq w - 1 in
          (* The snapshot lands atomically with a [txn-seq] header naming
             the log records it absorbs; replay skips those, so a crash
             anywhere between the rename and the truncation below
             recovers to exactly this state. *)
          Dump.save ~txn_seq ~path:(Filename.concat dir snapshot_file) (to_database head);
          Wal.reset w ~valid_bytes:0 ~next_seq:(txn_seq + 1))

let close t =
  locked t (fun () ->
      if not (Atomic.get t.closed) then begin
        Atomic.set t.closed true;
        (match t.writer with None -> () | Some w -> Wal.close w);
        t.writer <- None
      end)
