(** Log framing, the op payload grammar, and the legacy [wal.log]
    fold.

    A store directory has one durable log, [txn.log] ({!Tdp_txn.Txn_log}),
    one record per line:

    {v <magic> <seq> <crc32> <payload> v}

    where [seq] is a 1-based, strictly consecutive sequence number and
    [crc32] is the CRC-32 (IEEE, hex) of ["<seq> <payload>"].  Decoding
    stops cleanly at the first torn or corrupt record: a log truncated
    or bit-flipped at {e any} byte offset decodes to a prefix of the
    appended records, never raising.  Mid-log holes are not tolerated —
    a record that fails its checksum or breaks the sequence ends the
    valid prefix even if later bytes happen to parse.

    Ops travel in the {!Dump} value grammar, inside transaction records
    and in [odb store append] scripts:

    {v
    new #<oid> <Type> <attr>=<value> …
    set #<oid> <attr>=<value>
    del #<oid> restrict|nullify
    schema "<escaped surface source>"
    v}

    Stores written before the one-log format also kept a [wal.log] of
    bare ops (magic [w]).  Nothing writes one any more; {!fold_legacy}
    is its only reader. *)

open Tdp_core

exception Wal_error of string

(** CRC-32 (IEEE 802.3, reflected) of a string; the per-record
    checksum.  Detects all single-byte and burst errors up to 32 bits,
    which is what the fault-injection suite leans on. *)
val crc32 : string -> int

(** [payload_to_string op] / [payload_of_string ~line s] — the op
    grammar (without sequencing or checksum).
    @raise Dump.Parse_error on malformed payloads. *)
val payload_to_string : Database.op -> string

val payload_of_string : line:int -> string -> Database.op

(** {1 Framing}

    The [<magic> <seq> <crc32> <payload>] line format, generic over the
    record magic and payload grammar: the transaction log (magic [t])
    and the legacy fold (magic [w]) share one CRC'd, torn-tail-tolerant
    framing and recovery discipline. *)

(** One framed record line ([magic] must not be whitespace). *)
val encode_line : magic:char -> seq:int -> string -> string

type corruption = {
  at_seq : int;  (** sequence number the bad record was expected to carry *)
  offset : int;  (** byte offset where the valid prefix ends *)
  reason : string;
}

type 'a framed = {
  fseq : int;
  fvalue : 'a;
  fends_at : int;  (** byte offset just past this record *)
}

type 'a framed_decoded = {
  fentries : 'a framed list;  (** the valid prefix, in log order *)
  fnext_seq : int;  (** sequence number the next appended record should carry *)
  fvalid_bytes : int;  (** length of the valid prefix, in bytes *)
  fcorruption : corruption option;  (** why decoding stopped, if early *)
}

(** Decode a framed log down to its valid prefix, parsing payloads with
    [parse] (whose [Error] ends the prefix like a checksum failure).
    Never raises: torn tails, checksum failures, unparsable lines and
    sequence breaks all just end the prefix and are reported as
    [fcorruption]. *)
val decode_framed :
  magic:char -> parse:(string -> ('a, string) result) -> string -> 'a framed_decoded

(** {1 Incremental decode}

    The framing above, record-at-a-time: a cursor frames records out
    of a bounded buffer refilled on demand, so decoding a log costs
    O(longest record) memory, never O(file).  {!decode_framed},
    {!fold_legacy}, and the replica {!tail} below all run on this one
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
  | Halted of corruption  (** sticky, exactly as in {!decode_framed} *)

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

val tail_close : _ tail -> unit

(** {1 Appending}

    One writer per log file: opening a writer takes an exclusive
    [lockf] lock on the file, and {!close} releases it.  Locks belong to
    the process, so the lock keeps a second process out, not a second
    writer in the same process — and closing {e any} descriptor the
    process holds on the file drops it. *)

type writer

(** Open (or create) [path] for appending and lock it.  The writer
    numbers from 1 and treats the whole file as its durable prefix
    until {!reset}; appending after an unrepaired corrupt tail produces
    an unreadable log, so {!reset} to the valid prefix first.  [sync]
    (default [true]) fsyncs once per append call.  The parent directory
    is fsync'd so the file's creation is itself durable.
    @raise Database.Store_error when another process holds the lock
    ("store DIR is in use by another process"). *)
val writer_open : ?sync:bool -> magic:char -> path:string -> unit -> writer

(** The file's current contents, read through the writer's own
    descriptor — reading through another descriptor and closing it
    would drop the lock. *)
val contents : writer -> string

(** {!writer_open}, then {!reset} to an empty file numbering from
    [next_seq] — the lock is taken before anything is truncated. *)
val writer_create :
  ?sync:bool -> magic:char -> path:string -> next_seq:int -> unit -> writer

(** Truncate the file to its first [valid_bytes] bytes (when longer;
    fsync'd) and continue numbering at [next_seq]: the repair of a torn
    tail, and a checkpoint's truncation.  Done in place on the locked
    descriptor, so the lock is never dropped.  Clears poisoning: the
    file is in a known state afterwards. *)
val reset : writer -> valid_bytes:int -> next_seq:int -> unit

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
    torn tail would make unreachable or that would gap the sequence. *)
val append_batch : writer -> string list -> int

(** Frame and append one raw payload — a batch of one. *)
val append_payload : writer -> string -> int

val writer_seq : writer -> int

(** Has this writer been poisoned by a failed append? *)
val writer_poisoned : writer -> bool

(** The writer's underlying descriptor — exposed so fault-injection
    tests can sabotage the fd and exercise the poisoning path. *)
val writer_fd : writer -> Unix.file_descr

(** Close the descriptor, releasing the lock. *)
val close : writer -> unit

(** {1 The legacy fold} *)

(** Apply one op to a database.  [load_schema] elaborates the surface
    source of a [schema] op; without it, such an op raises
    {!Wal_error}.
    @raise Database.Store_error when the op does not validate. *)
val apply : ?load_schema:(string -> Schema.t) -> Database.t -> Database.op -> unit

(** Why replaying an op failed: a store, parse, log or schema error's
    own message, any other exception by name.  Replay ends the usable
    prefix with it instead of raising. *)
val replay_failure : exn -> string

type legacy = {
  db : Database.t;  (** snapshot plus the valid [wal.log] prefix *)
  wal_seq : int;  (** last [wal.log] seq folded (the snapshot's [wal-seq] if none) *)
  corruption : corruption option;  (** why the fold stopped early, if it did *)
}

(** Fold a pre-one-log store's snapshot and [wal.log] {e contents}:
    load the snapshot into a fresh database over [schema], then apply
    every [w] record with [wal-seq < seq], in order, stopping at the
    first torn, corrupt, out-of-sequence or failing record.  Total for
    arbitrary [wal] bytes (snapshot parse errors still raise: snapshots
    are written atomically and a bad one is real damage, not a torn
    tail).  Without [wal] this is just the snapshot load. *)
val fold_legacy :
  ?load_schema:(string -> Schema.t) ->
  schema:Schema.t ->
  ?snapshot:string ->
  ?wal:string ->
  unit ->
  legacy
