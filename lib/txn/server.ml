open Tdp_core
module Oid = Tdp_store.Oid
module Value = Tdp_store.Value
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Obs = Tdp_obs

(* The multi-client server: a line protocol over a Unix-domain or TCP
   socket, multiplexing concurrent sessions onto an {!Mvcc} store.

   Concurrency model (OCaml 5): [domains] accept domains all block in
   [accept] on the shared listening socket; each accepted connection is
   served by a fresh systhread attached to the accepting domain, so
   sessions on different domains read snapshots in parallel while
   sessions on one domain interleave at blocking points.  All writes
   funnel through [Mvcc.commit], which serializes on the store lock —
   parallel readers, one writer.

   One request line in, one response line out:

     ok …            the command succeeded; payload is command-specific
     conflict "why"  commit lost first-writer-wins (the txn is aborted)
     err "why"       anything else (the session survives)

   Sessions are stateful: a current branch (default main) and at most
   one open transaction.  Reads inside a transaction see its private
   overlay — the begin-time snapshot plus the session's own staged
   writes; reads outside see the branch head at the start of the
   request, fetched once (a lock-free load), so every row one request
   reads — a whole [eval] line included — comes from one committed
   version.  Either way a read never observes a partial commit: heads
   only ever advance to fully published versions. *)

let proto_version = 1

(* Obs.Metrics is not thread-safe; every increment below happens under
   [reg_lock] (the session registry lock). *)
let m_sessions = Obs.Metrics.counter "server.sessions"
let m_requests = Obs.Metrics.counter "server.requests"
let m_errors = Obs.Metrics.counter "server.errors"
let m_active = Obs.Metrics.gauge "server.active_sessions"

(* ---- requests ------------------------------------------------------ *)

type request =
  | Hello
  | Ping
  | Begin of string option
  | Commit
  | Abort of string option
  | New of Type_name.t * (Attr_name.t * Value.t) list
  | Set of Oid.t * Attr_name.t * Value.t
  | Del of Oid.t * Database.delete_policy
  | Schema of string
  | Get of Oid.t * Attr_name.t
  | Typeof of Oid.t
  | Extent of Type_name.t
  | Count
  | Version
  | Branches
  | Branch of string
  | Fork of string * string option
  | Seq
  | Lag
  | Eval of string
  | Quit

let parse_fail fmt =
  Fmt.kstr (fun message -> raise (Dump.Parse_error { line = 0; message })) fmt

let oid_of_token tok =
  if String.length tok > 1 && tok.[0] = '#' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some i when i >= 1 -> Oid.of_int i
    | _ -> parse_fail "bad oid %s" tok
  else parse_fail "expected #<oid>, got %s" tok

let slot_of_token tok =
  match String.index_opt tok '=' with
  | Some i when i > 0 ->
      ( Attr_name.of_string (String.sub tok 0 i),
        Dump.value_of_string 0 (String.sub tok (i + 1) (String.length tok - i - 1)) )
  | Some _ | None -> parse_fail "expected attr=value, got %s" tok

let branch_of_token tok =
  if Txn_log.valid_branch_name tok then tok
  else parse_fail "bad branch name %s" tok

(* @raise Dump.Parse_error on anything that is not a request. *)
let parse_request line : request =
  match Dump.tokens 0 line with
  | [ "hello" ] -> Hello
  | [ "ping" ] -> Ping
  | [ "begin" ] -> Begin None
  | [ "begin"; br ] -> Begin (Some (branch_of_token br))
  | [ "commit" ] -> Commit
  | [ "abort" ] -> Abort None
  | [ "abort"; quoted ] -> (
      match Dump.value_of_string 0 quoted with
      | String reason -> Abort (Some reason)
      | _ -> parse_fail "abort takes a quoted reason")
  | "new" :: ty :: slots ->
      New (Type_name.of_string ty, List.map slot_of_token slots)
  | [ "set"; oid; slot ] ->
      let attr, value = slot_of_token slot in
      Set (oid_of_token oid, attr, value)
  | [ "del"; oid ] -> Del (oid_of_token oid, Database.Restrict)
  | [ "del"; oid; "restrict" ] -> Del (oid_of_token oid, Database.Restrict)
  | [ "del"; oid; "nullify" ] -> Del (oid_of_token oid, Database.Nullify)
  | [ "schema"; quoted ] -> (
      match Dump.value_of_string 0 quoted with
      | String source -> Schema source
      | _ -> parse_fail "schema takes a quoted source")
  | [ "get"; oid; attr ] -> Get (oid_of_token oid, Attr_name.of_string attr)
  | [ "typeof"; oid ] -> Typeof (oid_of_token oid)
  | [ "extent"; ty ] -> Extent (Type_name.of_string ty)
  | [ "count" ] -> Count
  | [ "version" ] -> Version
  | [ "branches" ] -> Branches
  | [ "branch"; br ] -> Branch (branch_of_token br)
  | [ "fork"; br ] -> Fork (branch_of_token br, None)
  | [ "fork"; br; from_ ] -> Fork (branch_of_token br, Some (branch_of_token from_))
  | [ "seq" ] -> Seq
  | [ "lag" ] -> Lag
  | [ "eval"; quoted ] -> (
      match Dump.value_of_string 0 quoted with
      | String source -> Eval source
      | _ -> parse_fail "eval takes a quoted statement source")
  | [ "quit" ] | [ "bye" ] -> Quit
  | verb :: _ -> parse_fail "unknown command %s" verb
  | [] -> parse_fail "empty command"

(* ---- sessions ------------------------------------------------------ *)

(* A read-only server (a replica) answers [seq]/[lag] from these
   callbacks and refuses every mutating verb with a structured [err] —
   the session survives, so probing clients cost nothing. *)
type replica_info = {
  ri_seq : unit -> int;  (** applied txn.log seq *)
  ri_lag : unit -> int;  (** txn.log bytes behind the primary *)
}

type mode = Read_write | Read_only of replica_info

type session = {
  store : Mvcc.t;
  smode : mode;
  mutable sbranch : string;
  mutable txn : Mvcc.txn option;
  mutable lang : Tdp_lang.Session.t option;
      (* the statement-language session behind the [eval] verb, built
         lazily on first use and kept for the connection's lifetime
         (its catalog and [let] bindings are session state) *)
  mutable pinned : Mvcc.snapshot option;
      (* the head an [eval] outside a transaction reads, fixed at the
         start of the request *)
  reply : Buffer.t;
      (* where [eval] replies are built, kept across requests so a
         stream of large extents reuses one allocation *)
}

let session ?(mode = Read_write) ~store () =
  { store;
    smode = mode;
    sbranch = Mvcc.main_branch;
    txn = None;
    lang = None;
    pinned = None;
    reply = Buffer.create 4096
  }

(* The overlay inside a transaction (only this session writes it), the
   pinned or current branch head outside. *)
let read_snapshot s =
  match s.txn with
  | Some t when Mvcc.state t = Mvcc.Open -> Mvcc.view t
  | _ -> (
      match s.pinned with
      | Some snap -> snap
      | None -> Mvcc.head s.store ~branch:s.sbranch)

(* Run [f] with the session's reads fixed to one snapshot: outside a
   transaction, the head as of now. *)
let with_pinned s f =
  s.pinned <- Some (read_snapshot s);
  Fun.protect ~finally:(fun () -> s.pinned <- None) f

let open_txn s =
  match s.txn with
  | Some t when Mvcc.state t = Mvcc.Open -> t
  | _ -> raise (Database.Store_error "no open transaction (begin first)")

let abort_open s reason =
  match s.txn with
  | Some t when Mvcc.state t = Mvcc.Open -> Mvcc.abort ~reason t
  | _ -> ()

(* ---- the eval verb ------------------------------------------------- *)

(* [eval] runs statements of the interactive data language
   (Tdp_lang.Stmt) against this session's view of the store: reads see
   the transaction overlay when one is open and otherwise the branch
   head pinned at the start of the request, so every statement of one
   [eval] line reads the same committed version; writes stage through the
   open transaction and fail with a structured TDP055 diagnostic when
   none is open.  A method call runs on the read snapshot itself: each
   write it makes validates into a call-local successor snapshot, so
   the method reads its own writes, and only once the call returns are
   the writes staged into the open transaction.  A failing call, or a
   mutating one outside a transaction, therefore changes nothing. *)

let eval_call s gf args =
  let snap = ref (read_snapshot s) in
  let writes = ref [] in
  let result =
    Tdp_store.Interp.call
      (Tdp_store.Interp.of_store
         { schema = (fun () -> Mvcc.schema !snap);
           type_of = (fun oid -> Mvcc.type_of !snap oid);
           get_attr = (fun oid attr -> Mvcc.get_attr !snap oid attr);
           set_attr =
             (fun oid attr value ->
               snap := Mvcc.apply_op s.store !snap (Database.Op_set { oid; attr; value });
               writes := (oid, attr, value) :: !writes)
         })
      gf args
  in
  (match List.rev !writes with
  | [] -> ()
  | writes ->
      let t = open_txn s in
      List.iter (fun (oid, attr, value) -> Mvcc.set_attr t oid attr value) writes);
  result

let lang_ops s : Tdp_lang.Session.store_ops =
  { s_schema = (fun () -> Mvcc.schema (read_snapshot s));
    s_extent = (fun ty -> Mvcc.extent (read_snapshot s) ty);
    s_type_of = (fun oid -> Mvcc.type_of (read_snapshot s) oid);
    s_get = (fun oid attr -> Mvcc.get_attr (read_snapshot s) oid attr);
    s_count = (fun () -> Mvcc.count (read_snapshot s));
    s_new = (fun ty init -> Mvcc.new_object (open_txn s) ty ~init);
    s_set = (fun oid attr v -> Mvcc.set_attr (open_txn s) oid attr v);
    s_del = (fun oid policy -> Mvcc.delete (open_txn s) ~policy oid);
    s_call = (fun gf args -> eval_call s gf args);
    s_instances = Some (fun expr -> Mvcc.instances (read_snapshot s) expr)
  }

let lang_session s =
  match s.lang with
  | Some l -> l
  | None ->
      let l = Tdp_lang.Session.create (lang_ops s) in
      s.lang <- Some l;
      l

let refuse_verb (req : request) =
  match req with
  | Begin _ -> Some "begin"
  | Commit -> Some "commit"
  | Abort _ -> Some "abort"
  | New _ -> Some "new"
  | Set _ -> Some "set"
  | Del _ -> Some "del"
  | Schema _ -> Some "schema"
  | Fork _ -> Some "fork"
  (* [eval] is read-only-safe on a replica: its mutating statements all
     need an open transaction, and [begin] is refused above *)
  | Hello | Ping | Get _ | Typeof _ | Extent _ | Count | Version | Branches
  | Branch _ | Seq | Lag | Eval _ | Quit ->
      None

(* A reply buffer grown past this is given back after the reply, so an
   idle session does not keep its largest extent's worth of bytes. *)
let reply_keep = 1 lsl 20

(* The [eval] reply in the session's buffer: the prefix, each outcome
   rendered already escaped (the text [Fmt.str "ok %S"] would quote is
   never built), the closing quote, and one copy out. *)
let eval_reply s outcomes =
  let b = s.reply in
  Buffer.clear b;
  Buffer.add_string b
    (if List.exists Tdp_lang.Session.failed outcomes then "err \"" else "ok \"");
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_string b "\\n";
      Tdp_lang.Session.render_to Escaped b o)
    outcomes;
  Buffer.add_char b '"';
  let reply = Buffer.contents b in
  if Buffer.length b > reply_keep then Buffer.reset b;
  reply

(* One request -> one response line (no trailing newline).  [Quit] is
   handled by the caller; every path here keeps the session alive. *)
let respond s (req : request) =
  (match (s.smode, refuse_verb req) with
  | Read_only _, Some verb ->
      raise
        (Database.Store_error
           (Fmt.str "read-only replica: %s refused (connect to the primary to write)"
              verb))
  | _ -> ());
  match req with
  | Hello -> Fmt.str "ok odb %d branch %s" proto_version s.sbranch
  | Ping -> "ok pong"
  | Quit -> "ok bye"
  | Begin branch -> (
      match s.txn with
      | Some t when Mvcc.state t = Mvcc.Open ->
          Fmt.str "err %S" (Fmt.str "transaction %d already open" (Mvcc.txid t))
      | _ ->
          (match branch with Some b -> s.sbranch <- b | None -> ());
          let t = Mvcc.begin_ ~branch:s.sbranch s.store in
          s.txn <- Some t;
          Fmt.str "ok txn %d base %d" (Mvcc.txid t) (Mvcc.version (Mvcc.view t)))
  | Commit -> (
      let t = open_txn s in
      s.txn <- None;
      match Mvcc.commit t with
      | Ok v -> Fmt.str "ok committed %d" v
      | Error (Mvcc.Conflict reason) -> Fmt.str "conflict %S" reason
      | Error (Mvcc.Invalid reason) -> Fmt.str "err %S" reason)
  | Abort reason ->
      let t = open_txn s in
      s.txn <- None;
      Mvcc.abort ?reason t;
      "ok aborted"
  | New (ty, init) ->
      let t = open_txn s in
      let oid = Mvcc.new_object t ty ~init in
      Fmt.str "ok #%d" (Oid.to_int oid)
  | Set (oid, attr, value) ->
      Mvcc.set_attr (open_txn s) oid attr value;
      "ok"
  | Del (oid, policy) ->
      Mvcc.delete (open_txn s) ~policy oid;
      "ok"
  | Schema source ->
      Mvcc.set_schema (open_txn s) ~source;
      "ok"
  | Get (oid, attr) ->
      Fmt.str "ok %s" (Dump.value_to_string (Mvcc.get_attr (read_snapshot s) oid attr))
  | Typeof oid ->
      Fmt.str "ok %s" (Type_name.to_string (Mvcc.type_of (read_snapshot s) oid))
  | Extent ty ->
      let oids = Mvcc.extent (read_snapshot s) ty in
      let n = List.length oids in
      let b = Buffer.create (16 + (9 * n)) in
      Buffer.add_string b "ok ";
      Value.add_int b n;
      List.iter
        (fun o ->
          Buffer.add_string b " #";
          Value.add_int b (Oid.to_int o))
        oids;
      Buffer.contents b
  | Count -> Fmt.str "ok %d" (Mvcc.count (read_snapshot s))
  | Version -> Fmt.str "ok %d" (Mvcc.version (read_snapshot s))
  | Branches ->
      Fmt.str "ok%s"
        (String.concat ""
           (List.map
              (fun (name, v) -> Fmt.str " %s:%d" name v)
              (Mvcc.branches s.store)))
  | Branch br ->
      (match s.txn with
      | Some t when Mvcc.state t = Mvcc.Open ->
          raise (Database.Store_error "cannot switch branch inside a transaction")
      | _ -> ());
      ignore (Mvcc.head s.store ~branch:br);
      s.sbranch <- br;
      Fmt.str "ok branch %s" br
  | Fork (branch, from_) ->
      let from_ = Option.value ~default:s.sbranch from_ in
      let v = Mvcc.fork s.store ~from_ ~branch in
      Fmt.str "ok forked %s at %d" branch v
  | Seq ->
      Fmt.str "ok txn %d"
        (match s.smode with Read_only ri -> ri.ri_seq () | Read_write -> Mvcc.log_seq s.store)
  | Lag -> Fmt.str "ok txn %d" (match s.smode with Read_only ri -> ri.ri_lag () | Read_write -> 0)
  | Eval source ->
      (* same outcomes and rendering as [odb repl]; statement-level
         failures are part of the payload (the session survives), and
         the whole response is [err] iff any statement failed *)
      eval_reply s
        (with_pinned s (fun () ->
             Tdp_lang.Session.eval_string (lang_session s) source))

(* Total: every failure of a single request becomes an [err] line. *)
let handle_line s line =
  match respond s (parse_request line) with
  | resp -> resp
  | exception Database.Store_error m -> Fmt.str "err %S" m
  | exception Dump.Parse_error { message; _ } -> Fmt.str "err %S" message
  | exception Error.E e -> Fmt.str "err %S" (Error.message e)

(* ---- the listener -------------------------------------------------- *)

type t = {
  listen_fd : Unix.file_descr;
  sockaddr : Unix.sockaddr;
  stopping : bool Atomic.t;
  reg_lock : Mutex.t;
  mutable active : (Thread.t * Unix.file_descr) list;
  mutable accepters : unit Domain.t list;
}

let locked srv f = Mutex.protect srv.reg_lock f

let shutdown_quietly fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let register srv th fd =
  locked srv (fun () ->
      (* accepted while [stop] runs: end it like the sessions it swept *)
      if Atomic.get srv.stopping then shutdown_quietly fd;
      srv.active <- (th, fd) :: srv.active;
      Obs.Metrics.incr m_sessions;
      Obs.Metrics.set_gauge m_active (float_of_int (List.length srv.active)))

let unregister srv fd =
  locked srv (fun () ->
      srv.active <- List.filter (fun (_, fd') -> fd' != fd) srv.active;
      Obs.Metrics.set_gauge m_active (float_of_int (List.length srv.active)))

let count_request srv ~error =
  locked srv (fun () ->
      Obs.Metrics.incr m_requests;
      if error then Obs.Metrics.incr m_errors)

let is_err resp =
  String.length resp >= 3 && String.sub resp 0 3 = "err"

(* A pluggable per-connection protocol: how the listener below is
   shared between store sessions and the {!Tdp_replica} OID-range
   router (any line protocol with one response line per request). *)
type handler = {
  h_line : string -> string;  (* one request -> one response, total *)
  h_quit : string -> bool;  (* did this request end the session? *)
  h_close : unit -> unit;  (* teardown, run exactly once per session *)
}

(* One connection, line by line, until quit / EOF / a dead socket.
   [h_close] runs on every exit path — for store sessions it aborts an
   open transaction left behind, so write intents never linger.

   Write-side failures get their own handler: a client that
   disconnects between request and response makes the response write
   raise [EPIPE]/[ECONNRESET] (as [Sys_error] through the channel) —
   that ends this session only, with the transaction aborted and the
   registry decremented on the way out.  [start] ignores [SIGPIPE]
   process-wide; without that a TCP client vanishing mid-response
   would kill the whole server, not just raise here. *)
let serve_session srv (h : handler) fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line -> (
        let line = String.trim line in
        if line = "" then loop ()
        else
          let resp = h.h_line line in
          count_request srv ~error:(is_err resp);
          match
            output_string oc resp;
            output_char oc '\n';
            flush oc
          with
          | exception (Sys_error _ | Unix.Unix_error _) ->
              count_request srv ~error:true
          | () -> if not (h.h_quit line) then loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      h.h_close ();
      unregister srv fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try loop ()
      with
      | Sys_error _ | Unix.Unix_error _ -> ()
      | _ ->
          (* nothing below is expected to raise anything else; if it
             does, record it and end the session instead of killing
             the thread with an unhandled exception *)
          count_request srv ~error:true)

let store_handler ?mode ~store () =
  let s = session ?mode ~store () in
  { h_line = (fun line -> handle_line s line);
    h_quit =
      (fun line ->
        match parse_request line with
        | Quit -> true
        | _ | (exception _) -> false);
    h_close = (fun () -> abort_open s "session closed")
  }

(* Accept loop: every accepter domain blocks in [accept] on the shared
   listening socket; the kernel hands each connection to one of them.
   Stopping is a dummy connection per accepter (the portable way to
   wake a blocked accept) with [stopping] already set. *)
let accept_loop srv make_handler =
  let rec loop () =
    match Unix.accept ~cloexec:true srv.listen_fd with
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED | EINTR), _, _)
      ->
        if Atomic.get srv.stopping then () else loop ()
    | fd, _ ->
        if Atomic.get srv.stopping then (
          (try Unix.close fd with Unix.Unix_error _ -> ());
          ())
        else begin
          let th =
            Thread.create
              (fun () -> serve_session srv (make_handler ()) fd)
              ()
          in
          register srv th fd;
          loop ()
        end
  in
  loop ()

let default_domains () = max 2 (min 4 (Domain.recommended_domain_count () - 1))

let start_handler ?(domains = default_domains ()) make_handler sockaddr =
  (* a client closing its socket mid-response must raise in that
     session's write, not deliver a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let domain_kind =
    match sockaddr with
    | Unix.ADDR_UNIX path ->
        if Sys.file_exists path then Unix.unlink path;
        Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket ~cloexec:true domain_kind Unix.SOCK_STREAM 0 in
  (match sockaddr with
  | Unix.ADDR_INET _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX _ -> ());
  (try Unix.bind listen_fd sockaddr
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listen_fd 64;
  (* a TCP listener bound to port 0: recover the actual port *)
  let sockaddr = Unix.getsockname listen_fd in
  let srv =
    { listen_fd;
      sockaddr;
      stopping = Atomic.make false;
      reg_lock = Mutex.create ();
      active = [];
      accepters = []
    }
  in
  let domains = max 1 domains in
  srv.accepters <-
    List.init domains (fun _ ->
        Domain.spawn (fun () -> accept_loop srv make_handler));
  srv

let start ?domains ?mode ~store sockaddr =
  start_handler ?domains (fun () -> store_handler ?mode ~store ()) sockaddr

let sockaddr srv = srv.sockaddr

let stop srv =
  if not (Atomic.exchange srv.stopping true) then begin
    (* Sessions first: each runs on a systhread of its accepter domain,
       and joining a domain waits for its threads, so one idle client
       would otherwise hold the joins below until it disconnects. *)
    locked srv (fun () -> List.iter (fun (_, fd) -> shutdown_quietly fd) srv.active);
    (* one wake-up connection per accepter, then close the listener *)
    List.iter
      (fun _ ->
        match
          let fd =
            Unix.socket ~cloexec:true
              (match srv.sockaddr with
              | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
              | Unix.ADDR_INET _ -> Unix.PF_INET)
              Unix.SOCK_STREAM 0
          in
          (try Unix.connect fd srv.sockaddr
           with e ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             raise e);
          Unix.close fd
        with
        | () -> ()
        | exception Unix.Unix_error _ -> ())
      srv.accepters;
    List.iter Domain.join srv.accepters;
    srv.accepters <- [];
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    List.iter (fun (th, _) -> Thread.join th) (locked srv (fun () -> srv.active));
    match srv.sockaddr with
    | Unix.ADDR_UNIX path ->
        if Sys.file_exists path then (
          try Unix.unlink path with Unix.Unix_error _ -> ())
    | Unix.ADDR_INET _ -> ()
  end

(* ---- client -------------------------------------------------------- *)

type client = { cfd : Unix.file_descr; cic : in_channel; coc : out_channel }

let connect sockaddr =
  let fd =
    Unix.socket ~cloexec:true
      (match sockaddr with
      | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
      | Unix.ADDR_INET _ -> Unix.PF_INET)
      Unix.SOCK_STREAM 0
  in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { cfd = fd; cic = Unix.in_channel_of_descr fd; coc = Unix.out_channel_of_descr fd }

let request c line =
  output_string c.coc line;
  output_char c.coc '\n';
  flush c.coc;
  input_line c.cic

let close_client c = try Unix.close c.cfd with Unix.Unix_error _ -> ()
