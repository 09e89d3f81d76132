(** Snapshot-isolation MVCC over immutable database versions.

    A {!snapshot} is a persistent value in two parts: a {e base}, a
    columnar {!Database} that nothing mutates once a snapshot holds it,
    and a {e delta}, a small persistent map of the objects written since
    that base (tombstones for deletions).  Reads look in the delta
    first, then in the base; selections scan the base's blocks and lay
    the delta over the result.  Committing never mutates a snapshot: it
    adds the transaction's rows to a successor's delta and publishes it
    as the branch head with one atomic store.  Once a delta holds a
    fixed fraction of its base's rows, the committer compacts: it copies
    the base, folds the delta in, and publishes the copy with an empty
    delta.  Readers need no lock to fetch a head ({!head}) or to read
    it, and see exactly the version they started from — snapshot
    isolation by construction.

    Writes go through transactions ({!begin_} … {!commit}).  A
    transaction pins its branch head as base, stages validated ops
    against a private overlay, and at commit runs first-writer-wins
    conflict detection: if any version committed to the branch since
    the base wrote an object this transaction also wrote (or either
    side swapped the schema), the transaction aborts with
    [Conflict].  Surviving transactions are logged as a
    [begin]..[commit] bracket in the {!Txn_log} — one write and one
    fsync per commit — {e before} the head moves, so a crash
    mid-commit leaves a dangling bracket that replay discards —
    recovery always yields the last fully committed version, never
    torn state.

    Recovery replays the log into the snapshot's base and folds the
    replayed delta into it in place, so a freshly opened store starts
    with an empty delta.

    Domain-safety: reader domains may call every snapshot accessor
    below, {!head} and {!branches} concurrently and lock-free — a
    published base, string pool included, is never written; the other
    store operations ({!begin_}, {!commit}, {!fork}, {!checkpoint}, …)
    serialize on the internal store lock (the one-writer discipline). *)

open Tdp_core
module Oid = Tdp_store.Oid
module Value = Tdp_store.Value
module Database = Tdp_store.Database
module Wal = Tdp_store.Wal

(** The default branch, ["main"]. *)
val main_branch : string

(** {1 Snapshots} *)

type snapshot

(** The commit version this snapshot was published as (0 = base). *)
val version : snapshot -> int

val schema : snapshot -> Schema.t

(** The next OID {!new_object} would allocate over this snapshot. *)
val next_oid : snapshot -> int

(** Live objects — O(1), kept as ops apply. *)
val count : snapshot -> int

(** Objects written (or deleted) since the snapshot's base: 0 right
    after a compaction. *)
val delta_size : snapshot -> int

(** @raise Database.Store_error on an unknown OID / attribute. *)
val type_of : snapshot -> Oid.t -> Type_name.t

val slots : snapshot -> Oid.t -> Value.t Attr_name.Map.t
val get_attr : snapshot -> Oid.t -> Attr_name.t -> Value.t

(** Deep extent (all objects of the type or a subtype), in OID order:
    the base's extent with the delta laid over it. *)
val extent : snapshot -> Type_name.t -> Oid.t list

(** Objects referencing [oid], with the referring attribute, in (OID,
    attribute) order — {!Database.referrers} of the snapshot's state,
    read from the base's reverse index and the delta. *)
val referrers : snapshot -> Oid.t -> (Oid.t * Attr_name.t) list

(** Identity instances of a view expression over the snapshot:
    {!Tdp_algebra.View.instances_with}, the walker
    {!Tdp_algebra.View.instances} shares, with this store's leaf — a
    filtered [Base] extent runs as one {!Tdp_algebra.Pred.scan} over the
    base's blocks plus a per-row test of the delta's rows.  So it equals
    (same OIDs, same order) [View.instances] over [to_database s].
    @raise Error.E on a [Join] view (no identity instances), and
    [Database.Store_error] when a predicate names an attribute an
    instance lacks. *)
val instances : snapshot -> Tdp_algebra.View.expr -> Oid.t list

(** Materialize as a fresh {!Database} the caller owns and may mutate
    (the bridge to {!Dump}): a compaction — a copy of the base with the
    delta folded in. *)
val to_database : snapshot -> Database.t

(** The snapshot in {!Tdp_store.Dump} format. *)
val dump : snapshot -> string

(** {1 Stores} *)

type t

(** An in-memory store (no log, no durability) whose [main] branch
    starts empty over [schema].  [load_schema] elaborates the surface
    source of schema-swap ops; without it such ops fail. *)
val create : ?load_schema:(string -> Schema.t) -> Schema.t -> t

(** An in-memory store whose [main] branch starts at the contents of
    [db] (version 0) — how a replica bootstraps from the primary's
    recovered snapshot.  O(1): [db] becomes the first base, so the
    caller must not mutate it afterwards. *)
val of_database : ?load_schema:(string -> Schema.t) -> Database.t -> t

(** Head snapshot of [branch]: an atomic load, no lock — a reader never
    waits behind a commit.
    @raise Database.Store_error on an unknown branch or a closed
    store. *)
val head : t -> branch:string -> snapshot

(** All branches with their head versions, sorted by name. *)
val branches : t -> (string * int) list

(** The last committed version across all branches. *)
val current_version : t -> int

(** Create branch [branch] from the head of [from_]; returns the
    forked version.  Durable stores log a [fork] record first. *)
val fork : t -> from_:string -> branch:string -> int

(** {1 Transactions} *)

type txn
type txn_state = Open | Committed of int | Aborted of string
type commit_error = Conflict of string | Invalid of string

val commit_error_message : commit_error -> string

(** Open a transaction against the current head of [branch]
    (default {!main_branch}). *)
val begin_ : ?branch:string -> t -> txn

val txid : txn -> int
val state : txn -> txn_state

(** The transaction's private view: its base snapshot plus every op it
    has staged so far.  Safe to read at any time. *)
val view : txn -> snapshot

(** Stage ops.  Each validates against the overlay first; a failing op
    raises [Database.Store_error] and leaves the transaction open and
    unchanged.  @raise Database.Store_error also once the transaction
    is no longer [Open]. *)
val new_object : txn -> Type_name.t -> init:(Attr_name.t * Value.t) list -> Oid.t

val set_attr : txn -> Oid.t -> Attr_name.t -> Value.t -> unit
val delete : txn -> ?policy:Database.delete_policy -> Oid.t -> unit
val set_schema : txn -> source:string -> unit

(** Stage any op as given — an [Op_new] keeps its OID rather than
    allocating one ([odb store append] scripts name their OIDs).  Same
    validation and failure behaviour as the ops above. *)
val stage : txn -> Database.op -> unit

(** First-writer-wins commit.  [Ok v] published version [v];
    [Error (Conflict _)] aborted on a write-set or revalidation
    conflict (a conflict {e is} an abort: the transaction is dead and
    the conflict was recorded in the log); [Error (Invalid _)] the
    transaction was not open.  Read-only transactions commit without
    logging or publishing.  Raises only if the transaction-log append
    itself fails (the transaction aborts first). *)
val commit : txn -> (int, commit_error) result

(** Abort an open transaction (idempotent on aborted ones).
    @raise Database.Store_error if already committed. *)
val abort : ?reason:string -> txn -> unit

(** {1 Replication support}

    A log-shipping replica ({!Tdp_replica}) applies the primary's
    [txn.log] outside any transaction, through the same
    {!replay_record} recovery uses, so a replica and a restarted
    primary turn one log prefix into the same branch states.  Replay
    maintains the per-branch version and write-set history commits
    do. *)

(** Validate and apply one op against a snapshot, returning the
    successor (same version; nothing is published).
    @raise Database.Store_error when the op does not validate. *)
val apply_op : t -> snapshot -> Database.op -> snapshot

(** An incremental transaction-log replayer over one store. *)
type replay

(** Where replay must stop: the seq of the offending record (of its
    [begin] when a committed bracket no longer applies) and why. *)
type replay_stop = { stop_seq : int; stop_reason : string }

val replay_start : t -> replay

(** Feed the next framed record.  Every txid seen advances the
    transaction-id allocator; [begin]/[op] buffer per txid, [abort]
    drops the bracket, [fork] copies the source head, and [commit]
    applies the bracket to its branch head and publishes one version.
    A duplicate begin, a begin on an unknown branch, an op or commit
    outside any bracket, a fork from an unknown branch or onto an
    existing one, and a bracket that no longer applies return [Error];
    the store is then unchanged by that record and replay must not
    continue.  Safe while readers use the store. *)
val replay_record : replay -> Txn_log.record Wal.framed -> (unit, replay_stop) result

(** The begin seqs of brackets still waiting for their commit — the
    dangling brackets a crash mid-commit leaves, never published. *)
val open_brackets : replay -> int list

(** The last durable transaction-log seq this store has written (0
    without a writer) — what the [seq] protocol verb reports on a
    primary. *)
val log_seq : t -> int

(** The transaction-log writer, if any — exposed so fault-injection
    tests can sabotage it and exercise a failed commit append. *)
val log_writer : t -> Wal.writer option

(** {1 Durability and recovery} *)

(** The files of a store directory: the atomic snapshot, the
    transaction log, and the retired [wal.log] an older store may still
    hold (folded into the snapshot on the first writable open). *)
val snapshot_file : string

val txn_file : string
val wal_file : string

type opened = {
  store : t;
  txn_applied : int;  (** committed transactions replayed *)
  txn_discarded : int;  (** dangling begin..op brackets dropped *)
  txn_corruption : Wal.corruption option;
  txn_valid_bytes : int;
  txn_next_seq : int;
  tmp_removed : bool;  (** an orphaned snapshot [.tmp] was cleaned up *)
  legacy_corruption : Wal.corruption option;
      (** why the legacy [wal.log] fold stopped early, if it did: the
          records from there on were dropped *)
}

(** Recover a store from snapshot / legacy [wal.log] / transaction-log
    {e contents}: the base state is {!Wal.fold_legacy} of the snapshot
    and [wal] (just the snapshot without one), then {!replay_record}
    runs over every record above the snapshot's [txn-seq] header.
    Total on arbitrary [wal] and [txn] bytes — corruption and a
    {!replay_stop} both end the replayable prefix; dangling brackets
    are discarded.  Reads only: nothing is written. *)
val recover_text :
  ?load_schema:(string -> Schema.t) ->
  schema:Schema.t ->
  ?snapshot:string ->
  ?wal:string ->
  ?txn:string ->
  unit ->
  opened

(** Open a durable store directory ([snapshot.dump], [txn.log]; either
    may be absent) for writing.  Locks [txn.log] first (one writer per
    directory), then removes an orphaned snapshot [.tmp], recovers,
    repairs a torn transaction-log tail, and keeps the locked
    transaction-log writer ([sync] defaults to one fsync per append:
    per commit bracket, abort or fork record).  Subsequent commits are
    write-ahead logged into [DIR/txn.log].

    A legacy [wal.log] is folded once: the folded base is saved with
    {!Tdp_store.Dump.save} (its [wal-seq] header names the last record
    taken, its [txn-seq] is kept), then [wal.log] is removed.  A crash
    between the two folds nothing twice.
    @raise Database.Store_error when another process holds the
    directory ("store DIR is in use by another process"). *)
val open_dir :
  ?load_schema:(string -> Schema.t) ->
  ?sync:bool ->
  schema:Schema.t ->
  string ->
  opened

(** Fold the current [main] head into a fresh atomic snapshot (with a
    [txn-seq] cursor header) and truncate the log in place, keeping its
    lock.  Crash safe at every point: replay skips records the snapshot
    already absorbed.  @raise Database.Store_error on a memory-only
    store or when more than one branch exists. *)
val checkpoint : t -> unit

(** Close the log writer, releasing the directory lock; later store
    operations fail. *)
val close : t -> unit
