(** Textual dump / load of object stores.

    One line per object:

    {v obj #<oid> <Type> <attr>=<value> … v}

    Values: [42], [42.5], ["…"], [true]/[false], [year:1990],
    [#3] (reference), [null].  [--] starts a comment line.  Loading is
    two-pass so forward references work; OIDs are preserved, which
    keeps references and view identities stable across dump/load. *)

exception Parse_error of { line : int; message : string }

(** Floats print as the shortest decimal that reads back bit-exactly
    ([%.12g], falling back to [%.17g]); non-finite floats print as
    [nan], [inf] and [-inf]. *)
val value_to_string : Value.t -> string

(** @raise Parse_error — also on non-positive OIDs in references. *)
val value_of_string : int -> string -> Value.t

(** Split a dump-grammar line into whitespace-separated tokens, keeping
    quoted strings (with escapes) intact.  Shared with the {!Wal}
    record grammar.  @raise Parse_error on an unterminated string. *)
val tokens : int -> string -> string list

(** Serialize every object, in OID order. *)
val to_string : Database.t -> string

(** Load a dump into the database; returns the restored OIDs in file
    order.
    @raise Parse_error on malformed input (including OIDs < 1).
    @raise Database.Store_error via [Parse_error] wrapping on schema
    violations. *)
val load_into : Database.t -> string -> Oid.t list

(** Atomically snapshot [db] to [path]: write-temp, fsync, rename,
    fsync the parent directory (without which the rename itself may not
    survive a crash).  [txn_seq] (default 0) is recorded in a header
    comment and names the last transaction-log record already folded
    into this snapshot; recovery skips records at or below it.
    [wal_seq] (default 0) is the same cursor for a legacy [wal.log],
    written only by {!Wal.fold_legacy}'s one-time fold. *)
val save : ?wal_seq:int -> ?txn_seq:int -> path:string -> Database.t -> unit

(** The [wal_seq] header of a snapshot's text, or 0 if absent. *)
val wal_seq : string -> int

(** The [txn_seq] header of a snapshot's text, or 0 if absent. *)
val txn_seq : string -> int

(** Fsync a directory file descriptor (best-effort; errors are
    swallowed).  Needed to make a completed [Sys.rename] or file
    creation durable on POSIX filesystems. *)
val fsync_dir : string -> unit

(** Remove an orphaned [path ^ ".tmp"] left by a crash between the
    temp-write and the rename of {!save}; returns whether one was
    removed.  Orphaned temporaries are never read as snapshots. *)
val clean_tmp : path:string -> bool
