(** Write-ahead log and crash recovery for {!Database}.

    The WAL is an append-only text file, one record per line:

    {v w <seq> <crc32> <payload> v}

    where [seq] is a 1-based, strictly consecutive sequence number,
    [crc32] is the CRC-32 (IEEE, hex) of ["<seq> <payload>"], and the
    payload uses the {!Dump} value grammar:

    {v
    new #<oid> <Type> <attr>=<value> …
    set #<oid> <attr>=<value>
    del #<oid> restrict|nullify
    schema "<escaped surface source>"
    v}

    A {!Database} with an attached {!writer} appends each validated
    mutation {e before} applying it, so the log is always at least as
    new as memory.  Recovery loads the latest snapshot ({!Dump.save}),
    then replays the WAL, stopping cleanly at the first torn or corrupt
    record: a log truncated or bit-flipped at {e any} byte offset
    recovers to the state after some prefix of the committed
    operations, never raising.  Mid-log holes are not tolerated — a
    record that fails its checksum or breaks the sequence ends the
    replayable prefix even if later bytes happen to parse. *)

open Tdp_core

exception Wal_error of string

(** CRC-32 (IEEE 802.3, reflected) of a string; the per-record
    checksum.  Detects all single-byte and burst errors up to 32 bits,
    which is what the fault-injection suite leans on. *)
val crc32 : string -> int

(** [payload_to_string op] / [payload_of_string ~line s] — the record
    payload grammar (without sequencing or checksum).  The same grammar
    serves as the [odb store append] mutation-script syntax.
    @raise Dump.Parse_error on malformed payloads. *)
val payload_to_string : Database.op -> string

val payload_of_string : line:int -> string -> Database.op

(** One full record line, trailing newline included. *)
val encode : seq:int -> Database.op -> string

(** {1 Generic framing}

    The [w <seq> <crc32> <payload>] line format, generalized over the
    record magic and payload grammar, so other prefix-commit logs (the
    {!Tdp_txn} transaction log, magic [t]) reuse the same CRC'd,
    torn-tail-tolerant framing and recovery discipline. *)

(** One framed record line ([magic] must not be whitespace). *)
val encode_line : magic:char -> seq:int -> string -> string

type corruption = {
  at_seq : int;  (** sequence number the bad record was expected to carry *)
  offset : int;  (** byte offset where the valid prefix ends *)
  reason : string;
}

type entry = { seq : int; op : Database.op; ends_at : int (** byte offset just past this record *) }

type decoded = {
  entries : entry list;  (** the valid prefix, in log order *)
  next_seq : int;  (** sequence number the next appended record should carry *)
  valid_bytes : int;  (** length of the valid prefix, in bytes *)
  corruption : corruption option;  (** why decoding stopped, if early *)
}

(** Decode a WAL image down to its valid prefix.  Never raises: torn
    tails, checksum failures, unparsable lines and sequence breaks all
    just end the prefix and are reported as [corruption]. *)
val decode : string -> decoded

type 'a framed = { fseq : int; fvalue : 'a; fends_at : int }

type 'a framed_decoded = {
  fentries : 'a framed list;
  fnext_seq : int;
  fvalid_bytes : int;
  fcorruption : corruption option;
}

(** {!decode}, generalized: decode any framed log down to its valid
    prefix, parsing payloads with [parse] (whose [Error] ends the
    prefix like a checksum failure).  Total on arbitrary bytes. *)
val decode_framed :
  magic:char -> parse:(string -> ('a, string) result) -> string -> 'a framed_decoded

(** {1 Incremental decode}

    The framing above, record-at-a-time: a cursor frames records out
    of a bounded buffer refilled on demand, so decoding a log costs
    O(longest record) memory, never O(file).  {!decode_framed},
    {!recover}, and the replica {!tail} below all run on this one
    cursor — their torn-tail semantics are identical by
    construction. *)

type 'a cursor

type 'a step =
  | Record of 'a framed
  | End_of_input
      (** the refill function returned 0 bytes; any buffered partial
          record stays pending — call {!cursor_next} again once more
          input exists, or treat the pending bytes as a torn tail *)
  | Corrupt of corruption  (** sticky: every later call returns it again *)

(** [cursor ~magic ~parse read] decodes the byte stream produced by
    [read] (same contract as {!Stdlib.input}: [read buf pos len]
    returns the number of bytes written, 0 at end of input).  [base]
    is the stream offset of the first byte (resume mid-file);
    [next_seq] pins the expected first sequence number (otherwise the
    first valid record sets the base). *)
val cursor :
  magic:char ->
  parse:(string -> ('a, string) result) ->
  ?base:int ->
  ?next_seq:int ->
  (bytes -> int -> int -> int) ->
  'a cursor

val cursor_of_string :
  magic:char -> parse:(string -> ('a, string) result) -> string -> 'a cursor

val cursor_next : 'a cursor -> 'a step

(** Stream offset where the valid prefix ends: just past the last
    framed record, at the start of any pending or corrupt bytes. *)
val cursor_pos : _ cursor -> int

(** Are undecoded bytes buffered past {!cursor_pos} (a partial line)? *)
val cursor_pending : _ cursor -> bool

(** The sequence number the next record must carry; [None] before the
    first record when [next_seq] was not pinned. *)
val cursor_expected : _ cursor -> int option

(** {!cursor_expected}, defaulted to 1 — the [next_seq] a fresh writer
    should use. *)
val cursor_next_seq : _ cursor -> int

val cursor_corruption : _ cursor -> corruption option

(** {1 File tailing}

    A cursor over a growing log file — the replication shipping
    primitive.  The tailer remembers its byte offset and expected
    sequence, so polling costs only the new bytes. *)

type 'a tail

type 'a tail_step =
  | Shipped of 'a framed  (** one more durable record *)
  | Wait  (** caught up with the end of file (partial tails stay buffered) *)
  | Truncated
      (** the file shrank below the consumed offset — the primary
          checkpointed; reopen from offset 0 with the same expected
          seq (the fresh log resumes one past the checkpoint) *)
  | Halted of corruption  (** sticky, exactly as in {!decode} *)

(** Open [path] for tailing from [offset] (default 0); [next_seq] pins
    the first expected sequence number when resuming.
    @raise Unix.Unix_error if the file cannot be opened. *)
val tail_open :
  magic:char ->
  parse:(string -> ('a, string) result) ->
  ?offset:int ->
  ?next_seq:int ->
  string ->
  'a tail

val tail_poll : 'a tail -> 'a tail_step

(** Byte offset of the shipped prefix (resume point for {!tail_open}). *)
val tail_offset : _ tail -> int

val tail_pending : _ tail -> bool
val tail_next_seq : _ tail -> int
val tail_expected : _ tail -> int option
val tail_close : _ tail -> unit

(** Truncate the file at [path] to its first [valid_bytes] bytes —
    repair after a torn append, before appending again. *)
val repair : path:string -> int -> unit

(** {1 Appending} *)

type writer

(** Create (truncate) a WAL at [path].  [sync] (default [true]) fsyncs
    once per append call (one record, or one {!append_batch});
    [magic] (default ['w']) is the record magic for layered log
    formats.  The parent directory is fsync'd so the file's creation is
    itself durable. *)
val writer_create :
  ?sync:bool -> ?magic:char -> path:string -> next_seq:int -> unit -> writer

(** Open an existing WAL for appending.  The caller supplies
    [next_seq], normally [last_seq + 1] from a preceding {!recover};
    appending after an unrepaired corrupt tail produces an unreadable
    log, so {!repair} first. *)
val writer_open :
  ?sync:bool -> ?magic:char -> path:string -> next_seq:int -> unit -> writer

(** Frame raw payloads with consecutive sequence numbers and append
    them; returns the first sequence number.  The framed batch reaches
    the file through one write call and, in sync mode, one [fsync] — a
    transaction bracket costs one durable write however many records it
    holds.

    Failure atomicity is per batch: the sequence counter advances only
    when the whole batch (and its fsync, in sync mode) succeeded.  A
    failed append rolls the file back to the previous batch boundary
    (best-effort, with [ftruncate]) and {e poisons} the writer — every
    later append raises {!Wal_error} instead of writing records that a
    torn tail would make unreachable or that would gap the sequence.
    Recover the path with {!repair} and a fresh writer. *)
val append_batch : writer -> string list -> int

(** Append one record — a batch of one; returns its sequence number. *)
val append : writer -> Database.op -> int

(** {!append} for layered formats: frame and append a raw payload. *)
val append_payload : writer -> string -> int

val writer_seq : writer -> int

(** Has this writer been poisoned by a failed append? *)
val writer_poisoned : writer -> bool

(** The writer's underlying descriptor — exposed so fault-injection
    tests can sabotage the fd and exercise the poisoning path. *)
val writer_fd : writer -> Unix.file_descr

(** Journal every subsequent mutation of [db] through [w] — the
    journaling mode: append durably first, mutate second.  Detach with
    [Database.set_journal db None]. *)
val attach : writer -> Database.t -> unit

val close : writer -> unit

(** {1 Replay and recovery} *)

(** Apply one logged op to a database.  [load_schema] elaborates the
    surface source of a [schema] record; without it, such a record
    raises {!Wal_error}.
    @raise Database.Store_error when the op does not validate. *)
val apply : ?load_schema:(string -> Schema.t) -> Database.t -> Database.op -> unit

type recovery = {
  db : Database.t;
  snapshot_seq : int;  (** wal-seq header of the snapshot, 0 if none *)
  replayed : int;  (** WAL records applied on top of the snapshot *)
  last_seq : int;  (** last applied sequence number (snapshot included) *)
  wal_valid_bytes : int;  (** prefix length to keep when repairing *)
  corruption : corruption option;
}

(** Recover a database from snapshot and WAL {e contents}.  Loads the
    snapshot into a fresh database over [schema], then replays every
    WAL record with [snapshot_seq < seq], in order, stopping at the
    first corrupt record or failing op.  Total for arbitrary [wal]
    bytes — decoding and replay failures end the prefix instead of
    raising (snapshot parse errors still raise: snapshots are written
    atomically and a bad one is real damage, not a torn tail). *)
val recover_text :
  ?load_schema:(string -> Schema.t) ->
  schema:Schema.t ->
  ?snapshot:string ->
  ?wal:string ->
  unit ->
  recovery

(** {!recover_text} over files; either file may be absent. *)
val recover :
  ?load_schema:(string -> Schema.t) ->
  schema:Schema.t ->
  snapshot_path:string ->
  wal_path:string ->
  unit ->
  recovery
