(** The multi-client server: a line protocol over a Unix-domain or TCP
    socket, multiplexing concurrent sessions onto an {!Mvcc} store.

    {1 Concurrency model}

    [domains] accepter domains (OCaml 5) block in [accept] on one
    shared listening socket; each accepted connection is served by a
    fresh systhread attached to the accepting domain.  Sessions on
    different domains read their snapshots in parallel; all commits
    serialize on the {!Mvcc} store lock — parallel readers, one
    writer.

    {1 Protocol}

    One request line in, one response line out.  Responses are
    [ok …] (command-specific payload), [conflict "why"] (the commit
    lost first-writer-wins and the transaction is aborted), or
    [err "why"] (the session survives).  Requests, in the {!Dump}
    token grammar (quoted strings may contain spaces):

    {v
    hello | ping | quit
    begin [BRANCH]                 -> ok txn <id> base <version>
    commit                         -> ok committed <v> | conflict "…"
    abort ["reason"]               -> ok aborted
    new TYPE [attr=value …]        -> ok #<oid>
    set #OID attr=value            -> ok
    del #OID [restrict|nullify]    -> ok
    schema "<source>"              -> ok
    get #OID attr                  -> ok <value>
    typeof #OID                    -> ok <Type>
    extent TYPE                    -> ok <n> [#oid …]
    count | version                -> ok <n>
    branches                       -> ok [name:version …]
    branch BRANCH                  -> ok branch BRANCH
    fork BRANCH [FROM]             -> ok forked BRANCH at <v>
    seq                            -> ok txn <seq>
    lag                            -> ok txn <bytes>
    eval "<statements>"            -> ok "<transcript>" | err "<transcript>"
    v}

    [eval] runs statements of the interactive data language
    ({!Tdp_lang.Stmt}) through a per-connection
    {!Tdp_lang.Session} — the same statements, outcomes and rendering
    as [odb repl].  The quoted response payload is the newline-joined
    {!Tdp_lang.Session.render} of each statement's outcome, written
    already escaped by {!Tdp_lang.Session.render_to} into one buffer
    the session keeps across requests; it comes
    back as [err] iff any statement failed (the session, its views and
    its [let] bindings survive either way).  Reads see the open
    transaction's overlay (the branch head otherwise); mutating
    statements require an open transaction and otherwise fail with a
    TDP055 diagnostic.

    Sessions are stateful: a current branch (default [main]) and at
    most one open transaction.  Reads inside a transaction see its
    private overlay; reads outside see the branch head at the moment
    of the read.  Neither ever observes a partial commit.  A session
    that disconnects with a transaction still open aborts it — even
    when the disconnect lands between request and response (the write
    side raises [EPIPE]/[ECONNRESET] per session; [SIGPIPE] is ignored
    process-wide so a vanished TCP client can never kill the server).

    {1 Replica mode}

    A server started with [mode = Read_only _] (how [odb replicate]
    serves) refuses every mutating verb ([begin], [commit], [abort],
    [new], [set], [del], [schema], [fork]) with a structured [err] and
    answers [seq]/[lag] from the replica's shipping state.  On a
    read-write server, [seq] reports the store's own durable
    transaction-log position and [lag] is always [0]. *)

type t

(** What a read-only server reports for the replica verbs. *)
type replica_info = {
  ri_seq : unit -> int;  (** applied txn.log seq *)
  ri_lag : unit -> int;  (** txn.log bytes behind the primary *)
}

type mode = Read_write | Read_only of replica_info

(** Bind, listen and start accepting on [sockaddr] ([ADDR_UNIX path]
    or [ADDR_INET]; a stale Unix-socket path is unlinked, and an INET
    port of 0 is resolved — see {!sockaddr}).  [domains] (default
    derived from [Domain.recommended_domain_count], at least 2) is the
    number of accepter domains.  [mode] (default [Read_write])
    selects replica mode — see above.
    @raise Unix.Unix_error when binding fails. *)
val start : ?domains:int -> ?mode:mode -> store:Mvcc.t -> Unix.sockaddr -> t

(** The bound address (with the real port for [ADDR_INET _ 0]). *)
val sockaddr : t -> Unix.sockaddr

(** Stop accepting, shut down every live session, join all domains and
    session threads, and remove a Unix socket path.  Idempotent.
    Open transactions of dropped sessions are aborted; the store
    itself stays usable (and is {e not} closed). *)
val stop : t -> unit

(** {1 Protocol internals}

    Exposed for [odb connect], the golden-transcript scripts and the
    test suite. *)

(** One request line against a session-free, store-free view of the
    grammar.  @raise Tdp_store.Dump.Parse_error on malformed input. *)
type request

val parse_request : string -> request

type session

(** A fresh session on [store]: branch [main], no open transaction.
    [mode] defaults to [Read_write]. *)
val session : ?mode:mode -> store:Mvcc.t -> unit -> session

(** Handle one request line, total: every failure becomes an
    [err "…"] response line. *)
val handle_line : session -> string -> string

(** {1 Generic listener}

    The accept/serve machinery above, decoupled from the store grammar
    so other line protocols (the {!Tdp_replica} OID-range router) can
    reuse it: one response line per request line, write-side
    disconnects contained per session. *)

type handler = {
  h_line : string -> string;  (** one request -> one response, total *)
  h_quit : string -> bool;  (** did this request end the session? *)
  h_close : unit -> unit;  (** teardown, runs exactly once per session *)
}

(** The handler {!start} serves: a fresh {!session} per connection,
    [quit] ends it, teardown aborts a still-open transaction. *)
val store_handler : ?mode:mode -> store:Mvcc.t -> unit -> handler

(** As {!start}, but serving [make_handler ()] (one call per accepted
    connection) instead of store sessions. *)
val start_handler :
  ?domains:int -> (unit -> handler) -> Unix.sockaddr -> t

(** {1 Client} *)

type client

(** @raise Unix.Unix_error when the connect fails. *)
val connect : Unix.sockaddr -> client

(** Send one request line, wait for the one response line.
    @raise End_of_file when the server hung up. *)
val request : client -> string -> string

val close_client : client -> unit
