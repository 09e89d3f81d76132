open Tdp_core
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Wal = Tdp_store.Wal
module Mvcc = Tdp_txn.Mvcc
module Txn_log = Tdp_txn.Txn_log
module Obs = Tdp_obs

(* A log-shipping read replica.

   The primary's store directory is already a replication feed: the
   snapshot is the base, and txn.log is a CRC'd, seq-numbered
   prefix-commit log.  The replica bootstraps from the snapshot (folding
   a legacy wal.log in memory, as recovery does), then tails txn.log
   record-at-a-time ({!Wal.tail_poll}) through {!Mvcc}'s
   transaction-log replayer, the one recovery uses: brackets publish at
   their commit, dangling ones stay buffered until it arrives (or
   forever: a bracket the primary never committed is never applied).

   Shipping is torn-tail tolerant by construction: a record is applied
   only once its full line is present and checksummed, so killing the
   feed at any byte offset leaves the replica at the state [recover]
   would produce from the same prefix.

   Checkpoints on the primary truncate the log in place; the tailer
   reports [Truncated] and the replica re-opens from offset 0.  If its
   applied position already covers the new snapshot it just keeps
   going (the fresh log resumes one seq past the checkpoint); if it
   fell behind — records it never shipped were folded into the
   snapshot — it reloads the whole base: a {e resync}.

   Everything that can go wrong — log corruption, sequence gaps that a
   resync cannot explain, a bracket that no longer applies, an
   unexpected exception — halts the apply loop with a structured,
   diagnosable reason.  A halted replica still serves reads at its
   last applied state; it never dies on a bare [Assert_failure]. *)

let fail fmt = Fmt.kstr (fun s -> raise (Database.Store_error s)) fmt

let m_applied = Obs.Metrics.counter "replica.applied"
let m_resyncs = Obs.Metrics.counter "replica.resyncs"
let m_apply_ns = Obs.Metrics.histogram "replica.apply_ns"

let snapshot_file = Mvcc.snapshot_file
let txn_file = Mvcc.txn_file
let schema_file = "schema.odb"

type status = Running | Halted of string

type t = {
  primary_dir : string;
  schema : Schema.t;
  load_schema : (string -> Schema.t) option;
  mutable store : Mvcc.t;
  mutable tail : Txn_log.record Wal.tail option;
  (* last record consumed, bracket or not; includes records folded
     via the snapshot *)
  mutable applied_seq : int;
  (* the seq the snapshot had folded when the tail was (re)opened; the
     log's first frame must carry base+1, so a higher first frame means
     the log was rewritten in place under us *)
  mutable base_seq : int;
  mutable replay : Mvcc.replay;  (* brackets, over [store] *)
  mutable resyncs : int;
  mutable status : status;
  (* a gap right after (re)opening a tail usually means the primary
     checkpointed between our snapshot read and the tail open; one
     resync explains it, a second identical gap is real damage *)
  mutable gap_retry : bool;
}

let in_dir t f = Filename.concat t.primary_dir f

let read_file path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let halt t fmt =
  Fmt.kstr
    (fun reason -> if t.status = Running then t.status <- Halted reason)
    fmt

(* ---- bootstrap and resync ------------------------------------------ *)

let close_tail t =
  Option.iter Wal.tail_close t.tail;
  t.tail <- None

(* (Re)load the base state from the primary's current snapshot.  The
   snapshot is written atomically ([Dump.save] renames), so we always
   read a complete one; its [txn-seq] header tells us which log records
   it has already absorbed.  A legacy wal.log is folded in memory, read
   {e before} the snapshot: should the primary fold it meanwhile, the
   newer snapshot's [wal-seq] header skips what it already holds. *)
let load_base t =
  let wal = read_file (in_dir t Mvcc.wal_file) in
  let snapshot = read_file (in_dir t snapshot_file) in
  let legacy =
    Wal.fold_legacy ?load_schema:t.load_schema ~schema:t.schema ?snapshot ?wal ()
  in
  let seq = match snapshot with Some text -> Dump.txn_seq text | None -> 0 in
  t.store <- Mvcc.of_database ?load_schema:t.load_schema legacy.Wal.db;
  t.replay <- Mvcc.replay_start t.store;
  t.applied_seq <- seq;
  t.base_seq <- seq;
  close_tail t;
  let path = in_dir t txn_file in
  if Sys.file_exists path then
    t.tail <- Some (Wal.tail_open ~magic:Txn_log.magic ~parse:Txn_log.parse path)

(* Just the snapshot's cursor header — among the first lines of the
   dump, so a bounded read suffices; polls must never re-read
   O(database) bytes. *)
let snapshot_seq t =
  match open_in_bin (in_dir t snapshot_file) with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Dump.txn_seq (really_input_string ic (min 512 (in_channel_length ic))))

(* The seq of the frame at byte 0 of [path]: "MAGIC SEQ CRC PAYLOAD\n",
   so it sits between the first two spaces.  [None] when the file is
   missing, empty, or the header is still torn. *)
let first_frame_seq path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let chunk = really_input_string ic (min 64 (in_channel_length ic)) in
          match String.index_opt chunk ' ' with
          | None -> None
          | Some sp -> (
              let rest =
                String.sub chunk (sp + 1) (String.length chunk - sp - 1)
              in
              match String.index_opt rest ' ' with
              | None -> None
              | Some sp2 -> int_of_string_opt (String.sub rest 0 sp2)))

(* A truncating checkpoint rewrites the log in place, and the rewrite
   can leave the file at the very byte size the tail has consumed — no
   [Truncated], no new bytes, nothing for the tailer to see.  But the
   rewritten log's first frame carries (checkpointed seq)+1, above the
   base+1 the tail was opened against: that jump is the tell. *)
let rewritten_under t =
  match first_frame_seq (in_dir t txn_file) with
  | Some seq -> seq > t.base_seq + 1
  | None -> false

(* A resync regresses to the primary's durable snapshot, so it is only
   sound when that snapshot covers everything we have applied;
   otherwise the primary's history has a hole below our position and
   the halt is honest. *)
let resync t ~why =
  let snap = snapshot_seq t in
  if snap < t.applied_seq then
    halt t
      "cannot resync (%s): primary snapshot covers txn %d but replica already \
       applied txn %d — primary history is gapped below the replica's position"
      why snap t.applied_seq
  else begin
    t.resyncs <- t.resyncs + 1;
    Obs.Metrics.incr m_resyncs;
    load_base t
  end

let open_ ?load_schema ~schema primary_dir =
  if not (Sys.file_exists primary_dir && Sys.is_directory primary_dir) then
    fail "no store directory %s" primary_dir;
  let store = Mvcc.create ?load_schema schema in
  let t =
    { primary_dir;
      schema;
      load_schema;
      store;
      tail = None;
      applied_seq = 0;
      base_seq = 0;
      replay = Mvcc.replay_start store;
      resyncs = 0;
      status = Running;
      gap_retry = false
    }
  in
  load_base t;
  t

(* ---- the shipping loop --------------------------------------------- *)

(* Structural damage the replayer reports (commit without begin, fork
   of an existing branch, a bracket that no longer applies, …) halts
   at the seq recovery would truncate to. *)
let apply t (e : Txn_log.record Wal.framed) =
  match Mvcc.replay_record t.replay e with
  | Ok () ->
      t.applied_seq <- e.fseq;
      Obs.Metrics.incr m_applied;
      true
  | Error { stop_seq; stop_reason } ->
      halt t "%s replay stops at seq %d: %s" txn_file stop_seq stop_reason;
      false

(* Drain the tail.  [`Drained n] caught up (n records applied);
   [`Truncated] the file shrank below our offset; [`Corrupt _] the
   bytes at our offset do not decode — both may mean the primary
   checkpointed under us, so the verdict is [poll]'s, not ours.  Gap
   handling: a record above the expected seq right after a (re)open is
   a checkpoint race, explained by one resync; the same gap twice is
   damage. *)
let drain t =
  let rec go n =
    match t.tail with
    | None -> `Drained n
    | Some _ when t.status <> Running -> `Drained n
    | Some tl -> (
        match Wal.tail_poll tl with
        | Wal.Wait -> `Drained n
        | Wal.Truncated -> `Truncated
        | Wal.Halted c -> `Corrupt c
        | Wal.Shipped e ->
            if e.Wal.fseq <= t.applied_seq then go n (* already absorbed *)
            else if e.Wal.fseq > t.applied_seq + 1 then
              if t.gap_retry then begin
                halt t "%s sequence gap: replica applied to %d, log resumes at %d"
                  txn_file t.applied_seq e.Wal.fseq;
                `Drained n
              end
              else `Gap
            else if apply t e then begin
              t.gap_retry <- false;
              go (n + 1)
            end
            else `Drained n)
  in
  go 0

let poll t =
  match t.status with
  | Halted _ -> 0
  | Running ->
      Obs.Metrics.time m_apply_ns (fun () ->
          (* The snapshot header advancing past our position is the
             universal checkpoint tell.  The tailer alone cannot be: an
             in-place rewrite that leaves the log at (or above) the
             consumed byte size never reports [Truncated] — the stale
             offset just reads silence or garbage. *)
          let checkpointed () = snapshot_seq t > t.applied_seq in
          let rec round total budget =
            if budget = 0 || t.status <> Running then total
            else
              let resync_round applied ~why =
                t.gap_retry <- true;
                let before = t.applied_seq in
                resync t ~why;
                (* a resync that moved us forward has explained the
                   gap; one that did not gets no second chance *)
                if t.applied_seq > before then t.gap_retry <- false;
                round (total + applied) (budget - 1)
              in
              match drain t with
              | `Drained a ->
                  if checkpointed () then
                    resync_round a ~why:"snapshot advanced past the tailed log"
                  else if rewritten_under t then
                    resync_round a ~why:"log rewritten in place under the tail"
                  else
                    (* the log may have grown while we were applying,
                       but the next poll will pick that up *)
                    total + a
              | `Truncated | `Gap -> resync_round 0 ~why:"checkpoint detected while tailing"
              | `Corrupt c ->
                  (* garbage at a stale offset after an in-place log
                     rewrite is a checkpoint artifact, not damage *)
                  if checkpointed () || rewritten_under t then
                    resync_round 0 ~why:"checkpoint under a corrupt read"
                  else begin
                    halt t "%s corrupt at seq %d (offset %d): %s" txn_file c.at_seq
                      c.offset c.reason;
                    total
                  end
          in
          round 0 4)

let store t = t.store
let status t = t.status
let primary_dir t = t.primary_dir
let applied_seq t = t.applied_seq
let resyncs t = t.resyncs

(* Bytes of durable log the replica has not yet consumed — what the
   [lag] protocol verb reports.  A partial trailing record and
   buffered open brackets have been read but not applied; they show up
   in {!applied_seq}/{!status}, not here. *)
let lag t =
  let size = try (Unix.stat (in_dir t txn_file)).st_size with Unix.Unix_error _ -> 0 in
  match t.tail with None -> size | Some tl -> max 0 (size - Wal.tail_offset tl)

(* The seq the replica could restart from: everything up to it is
   applied and no open bracket spans it. *)
let stable_seq t =
  List.fold_left (fun acc seq -> min acc (seq - 1)) t.applied_seq
    (Mvcc.open_brackets t.replay)

let close t =
  close_tail t;
  Mvcc.close t.store

(* ---- persistence and promotion ------------------------------------- *)

(* Persist the replica's applied state as a complete store directory:
   schema copy + atomic snapshot whose [txn-seq] header is the
   replica's applied position.  That directory is what [promote]
   judges and what a promoted replica serves from. *)
let save t ~dir =
  (match Mvcc.branches t.store with
  | [ _ ] -> ()
  | bs -> fail "replica save requires a single branch (%d exist)" (List.length bs));
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (match read_file (in_dir t schema_file) with
  | Some src ->
      let oc = open_out_bin (Filename.concat dir schema_file) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc src)
  | None -> ());
  Dump.save ~txn_seq:(stable_seq t)
    ~path:(Filename.concat dir snapshot_file)
    (Mvcc.to_database (Mvcc.head t.store ~branch:Mvcc.main_branch))

type promotion = {
  replica_txn : int;
  primary_ckpt_txn : int;
  primary_last_txn : int;
}

type promote_error =
  | Diverged of string  (** replica state is not a prefix of primary history *)
  | Lagging of string  (** behind the durable primary tip; force with allow_lag *)
  | Unpromotable of string  (** missing replica state / unreadable primary *)

let promote_error_message = function
  | Diverged m | Lagging m | Unpromotable m -> m

(* Last durable seq in the log, streamed (never O(file) memory): the
   checkpoint seq when the log is empty or wholly absorbed. *)
let last_seq_of_log ~ckpt path =
  if not (Sys.file_exists path) then ckpt
  else begin
    let tl = Wal.tail_open ~magic:Txn_log.magic ~parse:Txn_log.parse path in
    Fun.protect
      ~finally:(fun () -> Wal.tail_close tl)
      (fun () ->
        let rec go last =
          match Wal.tail_poll tl with
          | Wal.Shipped e -> go e.Wal.fseq
          | Wal.Wait | Wal.Truncated | Wal.Halted _ -> last
        in
        go ckpt)
  end

(* Failover judgement: compare the replica's applied position against
   the primary's last checkpoint and durable log tip.

   - applied < checkpoint: records the replica never shipped were
     folded into the primary's snapshot — the replica's state is not a
     prefix of primary history: {e diverged}, refused.
   - applied > durable tip: the replica claims records the primary
     does not have — phantom history: {e diverged}, refused.
   - applied < durable tip: an honest {e lag}; promoting would discard
     committed records, so it is refused unless [allow_lag].
   - otherwise the replica is exactly the primary's durable state and
     its saved directory can serve as the new primary as-is. *)
let promote ?(allow_lag = false) ~replica_dir ~primary_dir () =
  match read_file (Filename.concat replica_dir snapshot_file) with
  | None ->
      Error
        (Unpromotable
           (Fmt.str "no replica state at %s/%s (run replicate with --save, or save)"
              replica_dir snapshot_file))
  | Some replica_snap -> (
      let replica = Dump.txn_seq replica_snap in
      match read_file (Filename.concat primary_dir snapshot_file) with
      | exception Sys_error m -> Error (Unpromotable m)
      | primary_snap ->
          let ckpt = match primary_snap with None -> 0 | Some s -> Dump.txn_seq s in
          let last = last_seq_of_log ~ckpt (Filename.concat primary_dir txn_file) in
          let p =
            { replica_txn = replica; primary_ckpt_txn = ckpt; primary_last_txn = last }
          in
          if replica < ckpt then
            Error
              (Diverged
                 (Fmt.str
                    "replica applied txn %d but the primary's last checkpoint \
                     folded txn %d — records the replica never shipped are gone \
                     from the log"
                    replica ckpt))
          else if replica > last then
            Error
              (Diverged
                 (Fmt.str
                    "replica applied txn %d beyond the primary's durable txn %d — \
                     phantom records"
                    replica last))
          else if replica < last && not allow_lag then
            Error
              (Lagging
                 (Fmt.str
                    "replica applied txn %d lags the primary's durable txn %d — \
                     promoting now would discard committed records (use \
                     allow_lag to force)"
                    replica last))
          else Ok p)
