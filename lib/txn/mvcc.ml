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

   A [snapshot] is a persistent value in two parts.  Its [base] is a
   columnar {!Database} that nothing writes once a snapshot holds it;
   its [delta] is a persistent [Oid.Map] of the rows written since that
   base, with [Dead] tombstones over deleted base rows.  Point reads look
   in the delta, then in the base's OID table; a selection runs
   [Pred.scan] over the base's blocks, drops the OIDs the delta shadows
   and merges in the delta rows that pass the subtype test and
   [Pred.holds].  Committing never mutates a snapshot: it adds one delta
   entry per op to a successor (O(ops · log delta)), then publishes it
   as the branch head with one atomic store.  Readers need no lock,
   neither to fetch a head nor to read it: they see exactly the version
   they started from, which is the whole of snapshot isolation.

   Compaction keeps the delta small.  Once it holds a fixed fraction of
   the base's rows, the committer copies the base (never reusing its
   arrays: pinned snapshots still read them), folds the delta in, and
   publishes the copy with an empty delta.  A schema swap compacts at
   once onto the new schema, so a base's index is always its
   snapshot's.  [to_database] is the same copy, handed to the caller.
   Recovery owns its base until it publishes, so it folds the replayed
   delta into it in place.

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
   snapshot's index and its delta-then-base lookups: one definition and
   one message text for both stores.

   Domain-safety inventory (OCaml 5: reader domains run lock-free over
   snapshots, and [stage] runs on session domains without the store
   lock): a delta ([Oid.Map]/[Attr_name.Map]) is immutable.  A base is
   written only before any snapshot holds it — by the compaction that
   builds it, or by recovery before it publishes — so readers' hash
   lookups, block reads and [Pred.scan]'s [Pool.find] on its
   string pool race with no writer.  Compaction reads the old base
   only.  Indexes come from [Schema_index.compile] or the base
   database's own; Mvcc never touches the shared [of_hierarchy] intern
   table.  Reads use only [Schema_index.subtype], a pure bit test, and
   [descendants_or_self]; validation also reads the memoized
   [layout]/[layout_positions], so two domains may fill one memo cell
   at once.  Each cell is a write-once [option] slot holding a value
   nobody mutates once built: a racing reader sees [None] (and builds
   an equal value) or a fully built [Some], as OCaml 5 publishes a
   block's initializing writes with it.  Publication is atomic: the
   branch table is one immutable [String_map] behind an [Atomic.t]
   (replaced whole, under the lock, by a fork), each branch head is an
   [Atomic.t] (set by commit and replay under the lock), and [closed]
   is atomic, so [head] and [branches] are plain loads that take no
   lock.  Everything else a writer touches — versions, the txid
   allocator, write-set history, the log writer — stays under the store
   lock.  [Obs.Metrics] is not thread-safe: every metric this module
   records is recorded under the store lock.  The timers on the read
   path ([Pred.scan], [Database.extent]) run on reader domains with no
   lock; they record only while the registry is enabled, which [odb
   serve] leaves off by default.  Under [odb --metrics serve] readers
   race on those two histograms, so their counts and sums are
   approximate (a lost update, never a torn value: OCaml 5 races are
   memory-safe). *)

let fail fmt = Fmt.kstr (fun s -> raise (Database.Store_error s)) fmt
let main_branch = "main"

let m_begin = Obs.Metrics.counter "txn.begin"
let m_commit = Obs.Metrics.counter "txn.commit"
let m_abort = Obs.Metrics.counter "txn.abort"
let m_conflict = Obs.Metrics.counter "txn.conflict"
let m_commit_ns = Obs.Metrics.histogram "txn.commit_ns"
let m_compact_ns = Obs.Metrics.histogram "mvcc.compact_ns"

(* ---- snapshots ----------------------------------------------------- *)

(* A delta entry: the state of an object written since the base, or a
   tombstone over a base object deleted since. *)
type stored = { st_ty : Type_name.t; st_slots : Value.t Attr_name.Map.t }
type entry = Live of stored | Dead

type snapshot = {
  base : Database.t;  (* never mutated once a snapshot holds it *)
  delta : entry Oid.Map.t;
  delta_size : int;  (* Oid.Map.cardinal delta *)
  count : int;  (* live objects *)
  next_oid : int;
  version : int;
}

(* A snapshot whose base is [db] and whose delta is empty.  [db] now
   belongs to the snapshot: nothing may mutate it. *)
let wrap db ~version =
  { base = db;
    delta = Oid.Map.empty;
    delta_size = 0;
    count = Database.count db;
    next_oid = Database.next_oid db;
    version
  }

let version s = s.version
let schema s = Database.schema s.base
let index s = Database.index s.base
let next_oid s = s.next_oid
let count s = s.count
let delta_size s = s.delta_size

(* The delta's row for [oid]; [None] when the base decides.
   @raise Database.Store_error over a tombstone. *)
let delta_row s oid =
  match Oid.Map.find_opt oid s.delta with
  | Some (Live st) -> Some st
  | Some Dead -> Database.no_object oid
  | None -> None

let find s oid =
  match delta_row s oid with
  | Some st -> st
  | None -> { st_ty = Database.type_of s.base oid; st_slots = Database.slots s.base oid }

let type_of s oid =
  match delta_row s oid with Some st -> st.st_ty | None -> Database.type_of s.base oid

let slots s oid = (find s oid).st_slots

let slot oid st attr =
  match Attr_name.Map.find attr st.st_slots with
  | v -> v
  | exception Not_found -> Database.no_attr oid st.st_ty attr

let get_attr s oid attr =
  match delta_row s oid with
  | Some st -> slot oid st attr
  | None -> Database.get_attr s.base oid attr

(* [base_hits] (ascending OIDs from the base) with the delta laid over
   them, in one ascending walk that allocates only its output: a base
   OID the delta holds is dropped, and a live delta row is kept when
   [keep] holds of it. *)
let over_delta s base_hits keep =
  let hits = ref base_hits and out = ref [] in
  let rec emit_below oid =
    match !hits with
    | h :: hs when Oid.compare h oid <= 0 ->
        hits := hs;
        if not (Oid.equal h oid) then begin
          out := h :: !out;
          emit_below oid
        end
    | _ -> ()
  in
  Oid.Map.iter
    (fun oid e ->
      emit_below oid;
      match e with Live st when keep oid st -> out := oid :: !out | _ -> ())
    s.delta;
  List.rev_append !out !hits

let in_extent s ty st = Schema_index.subtype (index s) st.st_ty ty

let extent s ty =
  over_delta s (Database.extent s.base ty) (fun _ st -> in_extent s ty st)

(* Identity instances of a view over the snapshot: [View]'s walker with
   a leaf that runs a filtered extent as one [Pred.scan] over the base's
   columnar blocks plus [Pred.holds] over the delta's rows. *)
let instances s =
  View.instances_with ~leaf:(fun n -> function
    | None -> extent s n
    | Some p ->
        let test = Pred.holds p in
        (* one reader closure over the row under test, not one per row *)
        let row_oid = ref (Oid.of_int 0)
        and row = ref { st_ty = n; st_slots = Attr_name.Map.empty } in
        let get attr = slot !row_oid !row attr in
        over_delta s (Pred.scan s.base n p) (fun oid st ->
            row_oid := oid;
            row := st;
            in_extent s n st && test get))

(* ---- compaction ---------------------------------------------------- *)

(* Write the delta's row states into [db]. *)
let fold_delta db s =
  Oid.Map.iter
    (fun oid -> function
      | Live st -> Database.put_row db oid st.st_ty st.st_slots
      | Dead -> Database.remove_row db oid)
    s.delta;
  Database.advance_next_oid db s.next_oid

(* A fresh database holding the snapshot's state: a copy of the base
   (its arrays are never reused — pinned snapshots still read them) with
   the delta folded in.  [schema]/[index] default to the snapshot's. *)
let compacted_db ?schema:sch ?index:ix s =
  let schema = Option.value sch ~default:(schema s)
  and index = Option.value ix ~default:(index s) in
  let db = Database.copy s.base ~schema ~index in
  fold_delta db s;
  db

(* The same snapshot over a new base and an empty delta. *)
let compact ?schema ?index s = wrap (compacted_db ?schema ?index s) ~version:s.version

(* A commit compacts once the delta holds [1 / compact_fraction] of the
   base's rows (and at least [compact_min]).  At 100k rows a compaction
   costs ~55 ms (a ~26 ms copy, then ~2.3 µs per folded entry), so over
   12.5k delta entries it amortizes to ~4.5 µs each; a selection's delta
   pass costs ~0.3 µs per entry, so a full delta adds ~2–4 ms to a
   scan.  Halving the fraction would double the copies a busy writer
   pays, and their garbage (measured: a served writer beside a scanning
   reader got slower, and the server's RSS grew), to halve that. *)
let compact_fraction = 8
let compact_min = 64

let compaction_due s =
  s.delta_size >= max compact_min (Database.count s.base / compact_fraction)

(* Materialize as a mutable {!Database} the caller owns (the bridge to
   {!Dump}, checkpoints and replica saves): a compaction. *)
let to_database s = compacted_db s
let dump s = Dump.to_string (to_database s)

(* ---- op application ------------------------------------------------ *)

(* The object rules are {!Database}'s.  Referrers come from the base's
   reverse index, minus the objects the delta rewrote, plus the delta
   rows that hold a reference. *)

let referent s oid =
  match Oid.Map.find_opt oid s.delta with
  | Some (Live st) -> Some st.st_ty
  | Some Dead -> None
  | None -> Database.type_of_opt s.base oid

let referrers s oid =
  let from_base =
    List.filter
      (fun (other, _) -> not (Oid.Map.mem other s.delta))
      (Database.referrers s.base oid)
  in
  Oid.Map.fold
    (fun other e acc ->
      match e with
      | Live st when not (Oid.equal other oid) ->
          Attr_name.Map.fold
            (fun attr v acc ->
              match v with
              | Value.Ref r when Oid.equal r oid -> (other, attr) :: acc
              | _ -> acc)
            st.st_slots acc
      | _ -> acc)
    s.delta from_base
  |> List.sort (fun (a, x) (b, y) ->
         match Oid.compare a b with 0 -> Attr_name.compare x y | c -> c)

let put s oid e =
  { s with
    delta = Oid.Map.add oid e s.delta;
    delta_size = (if Oid.Map.mem oid s.delta then s.delta_size else s.delta_size + 1)
  }

(* Apply one validated op, returning the successor snapshot (same
   [version]; commit stamps the new version on publication).  Every op
   adds one delta entry, except a schema swap, which compacts onto the
   new schema at once: the base's blocks and extents must answer to the
   snapshot's own index.
   @raise Database.Store_error when the op does not validate. *)
let apply ?load_schema s (op : Database.op) =
  match op with
  | Database.Op_new { oid; ty; init } ->
      Database.check_fresh_oid ~referent:(referent s) oid;
      let index = index s in
      let row = Database.build_row index ~referent:(referent s) ty ~init in
      let st_slots = ref Attr_name.Map.empty in
      Array.iteri
        (fun i a -> st_slots := Attr_name.Map.add (Attribute.name a) row.(i) !st_slots)
        (Schema_index.layout index ty);
      let s = put s oid (Live { st_ty = ty; st_slots = !st_slots }) in
      { s with count = s.count + 1; next_oid = max s.next_oid (Oid.to_int oid + 1) }
  | Database.Op_set { oid; attr; value } ->
      let st = find s oid in
      if not (Attr_name.Map.mem attr st.st_slots) then Database.no_attr oid st.st_ty attr;
      Database.check_set (index s) ~referent:(referent s) st.st_ty attr value;
      put s oid (Live { st with st_slots = Attr_name.Map.add attr value st.st_slots })
  | Database.Op_delete { oid; policy } ->
      ignore (type_of s oid);
      let refs = referrers s oid in
      Database.check_delete policy oid refs;
      let s =
        match policy with
        | Database.Restrict -> s
        | Database.Nullify ->
            List.fold_left
              (fun s (other, attr) ->
                let st = find s other in
                put s other
                  (Live { st with st_slots = Attr_name.Map.add attr Value.Null st.st_slots }))
              s refs
      in
      let s =
        if Database.type_of_opt s.base oid <> None then put s oid Dead
        else { s with delta = Oid.Map.remove oid s.delta; delta_size = s.delta_size - 1 }
      in
      { s with count = s.count - 1 }
  | Database.Op_set_schema { source } ->
      let schema = Database.schema_of_source load_schema source in
      compact ~schema ~index:(Schema_index.compile (Schema.hierarchy schema)) s

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
  mutable recovering : bool;
      (* while recovery replays into a store no one else sees yet:
         publication leaves deltas to grow, and one in-place fold at the
         end settles them *)
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
    closed = Atomic.make false;
    recovering = false
  }

let create ?load_schema schema =
  let index = Schema_index.compile (Schema.hierarchy schema) in
  make ?load_schema (wrap (Database.create ~index schema) ~version:0)

(* A memory-only store seeded from a recovered database — how a
   replica bootstraps from the primary's snapshot.  The store takes
   [db] over as its first base. *)
let of_database ?load_schema db = make ?load_schema (wrap db ~version:0)

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
   recording its write set, compacting first when its delta has grown
   enough.  The caller holds the store lock. *)
let install t br writes snap =
  let v = t.version + 1 in
  t.version <- v;
  let snap =
    if (not t.recovering) && compaction_due snap then
      Obs.Metrics.time m_compact_ns (fun () -> compact snap)
    else snap
  in
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
(* Leave recovery: every branch head over a base of its own with an
   empty delta.  Forks replay over the base they forked from, so forked
   heads are compacted first, into copies that share no table with it;
   then the main head's delta is folded straight into its base, which
   recovery owns — nothing has published a snapshot of it to a reader
   yet, and no other head still holds it. *)
let settle_recovery t =
  t.recovering <- false;
  String_map.iter
    (fun name br ->
      if name <> main_branch then Atomic.set br.head (compact (Atomic.get br.head)))
    (Atomic.get t.branches);
  let br = String_map.find main_branch (Atomic.get t.branches) in
  let head = Atomic.get br.head in
  fold_delta head.base head;
  Atomic.set br.head (wrap head.base ~version:head.version)

let replay_log ?load_schema ~base_seq (base : Database.t) txn =
  let t = make ?load_schema (wrap base ~version:0) in
  t.recovering <- true;
  let d = Txn_log.decode txn in
  let r = replay_start t in
  let rec go = function
    | [] -> Ok ()
    | (e : Txn_log.record Wal.framed) :: rest -> (
        if e.Wal.fseq <= base_seq then go rest
        else match replay_record r e with Ok () -> go rest | Error _ as stop -> stop)
  in
  let stopped = go d.Wal.fentries in
  settle_recovery t;
  let corruption, valid, next_seq =
    match stopped with
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
