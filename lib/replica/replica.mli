(** Log-shipping read replicas with failover.

    A primary's store directory ([snapshot.dump] + [txn.log]) is
    already a replication feed: the log is a CRC'd, seq-numbered
    prefix-commit log ({!Tdp_store.Wal}).  A replica bootstraps from
    the snapshot (folding a legacy [wal.log] in memory, as recovery
    does) and then {e tails} the log record-at-a-time — bounded memory,
    resumable offsets — applying each record through
    {!Tdp_txn.Mvcc.replay_record}, the replayer recovery uses: brackets
    publish at their commit, dangling ones stay buffered and are never
    applied.

    Because a record applies only once its full line is present and
    checksummed, killing the feed at any byte offset leaves the
    replica at exactly the state [recover] would produce from the same
    prefix — the fault-injection suite checks every offset.

    {b Checkpoints.} A primary checkpoint truncates the log in place.
    Three tells detect it: the file shrinking below the consumed
    offset, the snapshot's [txn-seq] header advancing past the applied
    position, and the log's first frame carrying a seq above the base
    the tail was opened against — the latter two catch in-place
    rewrites that leave the log at (or above) the old byte size, where
    the stale offset reads only silence or garbage.  All resolve by
    {e resync}: reload the base from the snapshot, re-open the tail
    from offset 0.

    {b Halts.} Corruption, unexplainable sequence gaps, structurally
    invalid brackets and unexpected replay exceptions all {e halt} the
    apply loop with a structured reason ({!status}).  A halted replica
    still serves reads at its last applied state; nothing in the apply
    loop raises a bare [Assert_failure]. *)

open Tdp_core
module Database = Tdp_store.Database
module Mvcc = Tdp_txn.Mvcc

type t

type status = Running | Halted of string  (** structured, diagnosable *)

(** Open a replica over [primary_dir]: load the current snapshot and
    start tailing the log.  [schema]/[load_schema] as in
    {!Tdp_txn.Mvcc.recover_text}.
    @raise Database.Store_error when [primary_dir] is not a store
    directory, or on a damaged snapshot (snapshots are written
    atomically — a bad one is real damage, not a torn tail). *)
val open_ :
  ?load_schema:(string -> Schema.t) -> schema:Schema.t -> string -> t

(** Apply everything currently shippable (resyncing across checkpoints
    as needed); returns the number of records applied.  Cheap when
    idle: an [fstat]-bounded read past the log's end plus bounded
    header probes (the snapshot's seq header, the log's first frame)
    for the checkpoint tells — never O(database) bytes.  Never raises;
    failures halt ({!status}). *)
val poll : t -> int

val status : t -> status
val primary_dir : t -> string

(** The replica's {!Tdp_txn.Mvcc} store — hand it to
    {!Tdp_txn.Server.start} with [mode = Read_only] to serve. *)
val store : t -> Mvcc.t

(** Applied txn.log seq, snapshot-absorbed records included — what
    the [seq] protocol verb reports. *)
val applied_seq : t -> int

(** Durable log bytes not yet consumed — what the [lag] protocol verb
    reports; 0 when fully caught up. *)
val lag : t -> int

(** Times the replica reloaded its base from the primary snapshot. *)
val resyncs : t -> int

(** Close the tails and the store.  The replica is dead afterwards. *)
val close : t -> unit

(** {1 Persistence and failover} *)

(** Persist the applied state as a complete store directory (schema
    copy + atomic snapshot whose [txn-seq] header is the replica's
    applied position) — what {!promote} judges, and what a
    promoted replica serves from.
    @raise Database.Store_error with more than one branch. *)
val save : t -> dir:string -> unit

type promotion = {
  replica_txn : int;  (** the saved state's [txn-seq] *)
  primary_ckpt_txn : int;  (** [txn-seq] of the primary's last checkpoint *)
  primary_last_txn : int;  (** last durable txn.log seq on the primary *)
}

type promote_error =
  | Diverged of string
      (** the replica's state is not a prefix of primary history:
          either it missed records a checkpoint folded away, or it
          claims records beyond the primary's durable tip *)
  | Lagging of string
      (** strictly behind the durable tip — promoting would discard
          committed records; force with [allow_lag] *)
  | Unpromotable of string  (** no saved replica state *)

val promote_error_message : promote_error -> string

(** Failover judgement: compare the saved replica state in
    [replica_dir] ({!save}) against [primary_dir]'s last checkpoint
    and durable log tip.  [Ok _] means [replica_dir] is exactly the
    primary's durable state (or a lag-forced prefix) and can be served
    as the new primary as-is — its snapshot headers make any fresh
    writer resume at the right sequence number.  Reads the primary's
    log streamingly; never loads it whole. *)
val promote :
  ?allow_lag:bool ->
  replica_dir:string ->
  primary_dir:string ->
  unit ->
  (promotion, promote_error) result
