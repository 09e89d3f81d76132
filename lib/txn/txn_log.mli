(** The transaction log: the store's one durable log ([txn.log]),
    layered on the {!Tdp_store.Wal} framing (magic [t]), whose payload
    grammar wraps the op grammar in transaction brackets:

    {v
    begin <txid> <branch>
    op <txid> <wal-op-payload>
    commit <txid>
    abort <txid> "<reason>"
    fork <branch> <from-branch>
    v}

    The durable unit is the {e transaction}: on replay ({!Mvcc}), only
    ops bracketed by a [begin]..[commit] of the same txid take effect.
    A crash mid-commit leaves a begin without its commit record and
    recovery discards the bracket — no torn state.  [abort] records
    conflicts durably (the loser of first-writer-wins); [fork] records
    branch creation.  A server commit and an [odb store append] op
    write the same bracket; the append's holds one op. *)

module Database = Tdp_store.Database
module Wal = Tdp_store.Wal

type record =
  | Begin of { txid : int; branch : string }
  | Op of { txid : int; op : Database.op }
  | Commit of { txid : int }
  | Abort of { txid : int; reason : string }
  | Fork of { branch : string; from_ : string }

(** The record magic, ['t'] (the retired [wal.log] used ['w']). *)
val magic : char

(** Branch names are single unquoted tokens: nonempty, no whitespace,
    no double quotes. *)
val valid_branch_name : string -> bool

val payload_to_string : record -> string

(** @raise Tdp_store.Dump.Parse_error on malformed payloads. *)
val payload_of_string : line:int -> string -> record

(** {!payload_of_string} as a result — the [parse] a {!Tdp_store.Wal}
    tail or decoder takes. *)
val parse : string -> (record, string) result

(** One full framed record line, trailing newline included. *)
val encode : seq:int -> record -> string

(** Decode a log image down to its valid prefix; total on arbitrary
    bytes (see {!Tdp_store.Wal.decode_framed}). *)
val decode : string -> record Wal.framed_decoded

(** {!Tdp_store.Wal.writer_create} / {!Tdp_store.Wal.writer_open} with
    magic [t]: both lock the log for this process (one writer per store
    directory) and raise [Database.Store_error] when another process
    holds it. *)
val writer_create : ?sync:bool -> path:string -> next_seq:int -> unit -> Wal.writer

val writer_open : ?sync:bool -> path:string -> unit -> Wal.writer

(** Append one record; returns its sequence number.  Shares
    {!Tdp_store.Wal.append_batch}'s failure atomicity (poisoning). *)
val append : Wal.writer -> record -> int

(** Append records as one batch — one write, one fsync
    ({!Tdp_store.Wal.append_batch}); returns the first sequence number.
    A commit logs its whole [begin]..[commit] bracket this way, so a
    failed append leaves none of it behind.  The bytes are those of
    {!append} called once per record. *)
val append_batch : Wal.writer -> record list -> int
