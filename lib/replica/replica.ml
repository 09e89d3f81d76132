open Tdp_core
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Wal = Tdp_store.Wal
module Mvcc = Tdp_txn.Mvcc
module Txn_log = Tdp_txn.Txn_log
module Obs = Tdp_obs

(* A log-shipping read replica.

   The primary's store directory is already a replication feed: the
   snapshot is the base, and wal.log / txn.log are CRC'd, seq-numbered
   prefix-commit logs.  The replica bootstraps from the snapshot, then
   tails both logs record-at-a-time ({!Wal.tail_poll}) and applies:

   - wal.log records ([w], plain ops from the [odb store] write path)
     apply directly to the [main] head, one op per published version;
   - txn.log records ([t], server commits) go through {!Mvcc}'s
     transaction-log replayer, the one recovery uses: brackets publish
     at their commit, dangling ones stay buffered until it arrives (or
     forever: a bracket the primary never committed is never applied).

   Shipping is torn-tail tolerant by construction: a record is applied
   only once its full line is present and checksummed, so killing the
   feed at any byte offset leaves the replica at the state [recover]
   would produce from the same prefix.

   Checkpoints on the primary truncate the logs in place; the tailer
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
let wal_file = Mvcc.wal_file
let txn_file = Mvcc.txn_file
let schema_file = "schema.odb"

type status = Running | Halted of string

type t = {
  primary_dir : string;
  schema : Schema.t;
  load_schema : (string -> Schema.t) option;
  mutable store : Mvcc.t;
  mutable wal_tail : Database.op Wal.tail option;
  mutable txn_tail : Txn_log.record Wal.tail option;
  mutable applied_wal_seq : int;  (* includes records folded via snapshot *)
  mutable applied_txn_seq : int;  (* last txn record consumed, bracket or not *)
  (* seqs the snapshot had folded when the tails were (re)opened; the
     logs' first frames must carry base+1, so a higher first frame
     means the log was rewritten in place under us *)
  mutable base_wal_seq : int;
  mutable base_txn_seq : int;
  mutable replay : Mvcc.replay;  (* txn.log brackets, over [store] *)
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

let halt_corruption t ~log (c : Wal.corruption) =
  halt t "%s corrupt at seq %d (offset %d): %s" log c.at_seq c.offset c.reason

(* ---- bootstrap and resync ------------------------------------------ *)

let close_tails t =
  (match t.wal_tail with Some tl -> Wal.tail_close tl | None -> ());
  (match t.txn_tail with Some tl -> Wal.tail_close tl | None -> ());
  t.wal_tail <- None;
  t.txn_tail <- None

let parse_wal payload =
  match Wal.payload_of_string ~line:0 payload with
  | op -> Ok op
  | exception Dump.Parse_error { message; _ } -> Error message

let open_tails t =
  close_tails t;
  let open_one ~magic ~parse path =
    if Sys.file_exists path then Some (Wal.tail_open ~magic ~parse path) else None
  in
  t.wal_tail <- open_one ~magic:'w' ~parse:parse_wal (in_dir t wal_file);
  t.txn_tail <- open_one ~magic:Txn_log.magic ~parse:Txn_log.parse (in_dir t txn_file)

(* (Re)load the base state from the primary's current snapshot.  The
   snapshot is written atomically ([Dump.save] renames), so we always
   read a complete one; its [wal-seq]/[txn-seq] headers tell us which
   log records it has already absorbed. *)
let load_base t =
  let snapshot = read_file (in_dir t snapshot_file) in
  let db = Database.create t.schema in
  let wal_seq, txn_seq =
    match snapshot with
    | None -> (0, 0)
    | Some text ->
        ignore (Dump.load_into db text);
        (Dump.wal_seq text, Dump.txn_seq text)
  in
  t.store <- Mvcc.of_database ?load_schema:t.load_schema db;
  t.replay <- Mvcc.replay_start t.store;
  t.applied_wal_seq <- wal_seq;
  t.applied_txn_seq <- txn_seq;
  t.base_wal_seq <- wal_seq;
  t.base_txn_seq <- txn_seq;
  open_tails t

(* Just the snapshot's cursor headers — they are the first lines of
   the dump, so a bounded read suffices; polls must never re-read
   O(database) bytes. *)
let snapshot_seqs t =
  match open_in_bin (in_dir t snapshot_file) with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let head = really_input_string ic (min 512 (in_channel_length ic)) in
          (Dump.wal_seq head, Dump.txn_seq head))

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

(* A truncating checkpoint rewrites each log in place, and the rewrite
   can leave the file at the very byte size the tail has consumed — no
   [Truncated], no new bytes, nothing for the tailer to see.  But the
   rewritten log's first frame carries (checkpointed seqs)+1, above the
   base+1 the tails were opened against: that jump is the tell. *)
let rewritten_under t =
  let jumped path base =
    match first_frame_seq (in_dir t path) with
    | Some seq -> seq > base + 1
    | None -> false
  in
  jumped wal_file t.base_wal_seq || jumped txn_file t.base_txn_seq

(* A resync regresses to the primary's durable snapshot, so it is only
   sound when that snapshot covers everything we have applied;
   otherwise the primary's history has a hole below our position and
   the halt is honest. *)
let resync t ~why =
  let snap_wal, snap_txn = snapshot_seqs t in
  if snap_wal < t.applied_wal_seq || snap_txn < t.applied_txn_seq then
    halt t
      "cannot resync (%s): primary snapshot covers wal %d txn %d but replica \
       already applied wal %d txn %d — primary history is gapped below the \
       replica's position"
      why snap_wal snap_txn t.applied_wal_seq t.applied_txn_seq
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
      wal_tail = None;
      txn_tail = None;
      applied_wal_seq = 0;
      applied_txn_seq = 0;
      base_wal_seq = 0;
      base_txn_seq = 0;
      replay = Mvcc.replay_start store;
      resyncs = 0;
      status = Running;
      gap_retry = false
    }
  in
  load_base t;
  t

(* ---- applying shipped records -------------------------------------- *)

let main = Mvcc.main_branch

let apply_wal_record t (e : Database.op Wal.framed) =
  match Mvcc.apply_op t.store (Mvcc.head t.store ~branch:main) e.fvalue with
  | snap ->
      ignore (Mvcc.publish t.store ~branch:main ~ops:[ e.fvalue ] snap);
      t.applied_wal_seq <- e.fseq;
      Obs.Metrics.incr m_applied;
      true
  | exception exn ->
      halt t "wal record %d does not apply: %s" e.fseq (Mvcc.replay_failure exn);
      false

(* Structural damage the replayer reports (commit without begin, fork
   of an existing branch, a bracket that no longer applies, …) halts
   at the seq recovery would truncate to. *)
let apply_txn_record t (e : Txn_log.record Wal.framed) =
  match Mvcc.replay_record t.replay e with
  | Ok () ->
      t.applied_txn_seq <- e.fseq;
      Obs.Metrics.incr m_applied;
      true
  | Error { stop_seq; stop_reason } ->
      halt t "%s replay stops at seq %d: %s" txn_file stop_seq stop_reason;
      false

(* ---- the shipping loop --------------------------------------------- *)

(* Drain one tail.  [`Drained n] caught up (n records applied);
   [`Truncated] the file shrank below our offset; [`Corrupt _] the
   bytes at our offset do not decode — both may mean the primary
   checkpointed under us, so the verdict is [poll]'s, not ours.  Gap
   handling: a record above the expected seq right after a (re)open is
   a checkpoint race, explained by one resync; the same gap twice is
   damage. *)
let drain t ~log ~applied_seq ~apply tail_of =
  let rec go n =
    match tail_of t with
    | None -> `Drained n
    | Some tl -> (
        if t.status <> Running then `Drained n
        else
          match Wal.tail_poll tl with
          | Wal.Wait -> `Drained n
          | Wal.Truncated -> `Truncated
          | Wal.Halted c -> `Corrupt (log, c)
          | Wal.Shipped e ->
              let expected = applied_seq t + 1 in
              if e.Wal.fseq <= applied_seq t then go n (* already absorbed *)
              else if e.Wal.fseq > expected then
                if t.gap_retry then begin
                  halt t
                    "%s sequence gap: replica applied to %d, log resumes at %d"
                    log (applied_seq t) e.Wal.fseq;
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

let drain_wal t =
  drain t ~log:wal_file
    ~applied_seq:(fun t -> t.applied_wal_seq)
    ~apply:apply_wal_record
    (fun t -> t.wal_tail)

let drain_txn t =
  drain t ~log:txn_file
    ~applied_seq:(fun t -> t.applied_txn_seq)
    ~apply:apply_txn_record
    (fun t -> t.txn_tail)

let poll t =
  match t.status with
  | Halted _ -> 0
  | Running ->
      Obs.Metrics.time m_apply_ns (fun () ->
          (* The snapshot headers advancing past our position are the
             universal checkpoint tell.  The tailers alone cannot be:
             an in-place rewrite that leaves a log at (or above) the
             consumed byte size never reports [Truncated] — the stale
             offset just reads silence or garbage. *)
          let checkpointed () =
            let snap_wal, snap_txn = snapshot_seqs t in
            snap_wal > t.applied_wal_seq || snap_txn > t.applied_txn_seq
          in
          let rec round total budget =
            if budget = 0 || t.status <> Running then total
            else
              let resync_round applied ~why =
                t.gap_retry <- true;
                let before = (t.applied_wal_seq, t.applied_txn_seq) in
                resync t ~why;
                (* a resync that moved us forward has explained the
                   gap; one that did not gets no second chance *)
                if (t.applied_wal_seq, t.applied_txn_seq) > before then
                  t.gap_retry <- false;
                round (total + applied) (budget - 1)
              in
              match (drain_wal t, drain_txn t) with
              | `Drained a, `Drained b ->
                  if checkpointed () then
                    resync_round (a + b)
                      ~why:"snapshot advanced past the tailed logs"
                  else if rewritten_under t then
                    resync_round (a + b)
                      ~why:"log rewritten in place under the tail"
                  else
                    (* logs may have grown while we were applying, but
                       the next poll will pick that up *)
                    total + a + b
              | (`Truncated | `Gap), _ | _, (`Truncated | `Gap) ->
                  resync_round 0 ~why:"checkpoint detected while tailing"
              | `Corrupt (log, c), _ | _, `Corrupt (log, c) ->
                  (* garbage at a stale offset after an in-place log
                     rewrite is a checkpoint artifact, not damage *)
                  if checkpointed () || rewritten_under t then
                    resync_round 0 ~why:"checkpoint under a corrupt read"
                  else begin
                    halt_corruption t ~log c;
                    total
                  end
          in
          round 0 4)

let store t = t.store
let status t = t.status
let primary_dir t = t.primary_dir
let applied_seqs t = (t.applied_wal_seq, t.applied_txn_seq)
let resyncs t = t.resyncs

(* Bytes of durable log the replica has not yet consumed — what the
   [lag] protocol verb reports.  A partial trailing record and
   buffered open brackets have been read but not applied; they show up
   in {!applied_seqs}/{!status}, not here. *)
let lag t =
  let behind path tail =
    let size = try (Unix.stat path).st_size with Unix.Unix_error _ -> 0 in
    match tail with
    | None -> size
    | Some tl -> max 0 (size - Wal.tail_offset tl)
  in
  (behind (in_dir t wal_file) t.wal_tail, behind (in_dir t txn_file) t.txn_tail)

(* The txn seq the replica could restart from: everything up to it is
   applied and no open bracket spans it. *)
let stable_txn_seq t =
  List.fold_left
    (fun acc seq -> min acc (seq - 1))
    t.applied_txn_seq (Mvcc.open_brackets t.replay)

let close t =
  close_tails t;
  Mvcc.close t.store

(* ---- persistence and promotion ------------------------------------- *)

(* Persist the replica's applied state as a complete store directory:
   schema copy + atomic snapshot whose [wal-seq]/[txn-seq] headers are
   the replica's applied position.  That directory is what [promote]
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
  Dump.save ~wal_seq:t.applied_wal_seq ~txn_seq:(stable_txn_seq t)
    ~path:(Filename.concat dir snapshot_file)
    (Mvcc.to_database (Mvcc.head t.store ~branch:main))

type promotion = {
  replica_wal : int;
  replica_txn : int;
  primary_ckpt_wal : int;
  primary_ckpt_txn : int;
  primary_last_wal : int;
  primary_last_txn : int;
}

type promote_error =
  | Diverged of string  (** replica state is not a prefix of primary history *)
  | Lagging of string  (** behind the durable primary tip; force with allow_lag *)
  | Unpromotable of string  (** missing replica state / unreadable primary *)

let promote_error_message = function
  | Diverged m | Lagging m | Unpromotable m -> m

(* Last durable seq in a log, streamed (never O(file) memory): the
   checkpoint seq when the log is empty or wholly absorbed. *)
let last_seq_of_log ~magic ~parse ~ckpt path =
  if not (Sys.file_exists path) then ckpt
  else begin
    let tl = Wal.tail_open ~magic ~parse path in
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
   the primary's last checkpoint and durable log tips.

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
      let replica_wal = Dump.wal_seq replica_snap in
      let replica_txn = Dump.txn_seq replica_snap in
      match read_file (Filename.concat primary_dir snapshot_file) with
      | exception Sys_error m -> Error (Unpromotable m)
      | primary_snap ->
          let ckpt_wal, ckpt_txn =
            match primary_snap with
            | None -> (0, 0)
            | Some s -> (Dump.wal_seq s, Dump.txn_seq s)
          in
          let last_wal =
            last_seq_of_log ~magic:'w' ~parse:parse_wal ~ckpt:ckpt_wal
              (Filename.concat primary_dir wal_file)
          in
          let last_txn =
            last_seq_of_log ~magic:Txn_log.magic ~parse:Txn_log.parse ~ckpt:ckpt_txn
              (Filename.concat primary_dir txn_file)
          in
          let p =
            { replica_wal;
              replica_txn;
              primary_ckpt_wal = ckpt_wal;
              primary_ckpt_txn = ckpt_txn;
              primary_last_wal = last_wal;
              primary_last_txn = last_txn
            }
          in
          if replica_wal < ckpt_wal || replica_txn < ckpt_txn then
            Error
              (Diverged
                 (Fmt.str
                    "replica applied wal %d txn %d but the primary's last \
                     checkpoint folded wal %d txn %d — records the replica \
                     never shipped are gone from the logs"
                    replica_wal replica_txn ckpt_wal ckpt_txn))
          else if replica_wal > last_wal || replica_txn > last_txn then
            Error
              (Diverged
                 (Fmt.str
                    "replica applied wal %d txn %d beyond the primary's \
                     durable wal %d txn %d — phantom records"
                    replica_wal replica_txn last_wal last_txn))
          else if
            (replica_wal < last_wal || replica_txn < last_txn) && not allow_lag
          then
            Error
              (Lagging
                 (Fmt.str
                    "replica applied wal %d txn %d lags the primary's durable \
                     wal %d txn %d — promoting now would discard committed \
                     records (use allow_lag to force)"
                    replica_wal replica_txn last_wal last_txn))
          else Ok p)
