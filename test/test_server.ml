module Value = Tdp_store.Value
module Mvcc = Tdp_txn.Mvcc
module Server = Tdp_txn.Server
open Helpers

let schema = Tdp_paper.Fig1.schema
let load_schema src = (Tdp_lang.Elaborate.load_exn src).Tdp_lang.Elaborate.schema

let with_temp_dir f =
  let dir = Filename.temp_file "tdp_srv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* An in-memory store pre-seeded with employee #1, served on a fresh
   Unix socket; [f] gets the running server's address. *)
let with_server ?(store = Mvcc.create ~load_schema schema) f =
  (match Mvcc.count (Mvcc.head store ~branch:Mvcc.main_branch) with
  | 0 ->
      let t = Mvcc.begin_ store in
      ignore
        (Mvcc.new_object t (ty "Employee")
           ~init:[ (at "ssn", Value.Int 1); (at "pay_rate", Value.Float 1.0) ]);
      ignore (Mvcc.commit t)
  | _ -> ());
  let path = Filename.temp_file "tdp_sock" ".sock" in
  Sys.remove path;
  let srv = Server.start ~domains:3 ~store (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f (Server.sockaddr srv))

let expect c req prefix =
  let resp = Server.request c req in
  if not (String.length resp >= String.length prefix
          && String.sub resp 0 (String.length prefix) = prefix) then
    Alcotest.failf "%s -> %s (wanted %s…)" req resp prefix;
  resp

(* ---- protocol unit (no sockets) ------------------------------------- *)

let test_protocol_unit () =
  let store = Mvcc.create ~load_schema schema in
  let s = Server.session ~store () in
  let run line = Server.handle_line s line in
  Alcotest.(check string) "hello" "ok odb 1 branch main" (run "hello");
  Alcotest.(check string) "ping" "ok pong" (run "ping");
  Alcotest.(check string) "no txn" "err \"no open transaction (begin first)\""
    (run "set #1 ssn=2");
  Alcotest.(check string) "begin" "ok txn 1 base 0" (run "begin");
  Alcotest.(check string) "begin twice"
    "err \"transaction 1 already open\"" (run "begin");
  Alcotest.(check string) "new" "ok #1" (run "new Employee ssn=1 name=\"a b\"");
  Alcotest.(check string) "staged read" "ok \"a b\"" (run "get #1 name");
  Alcotest.(check string) "bad attr survives the session"
    "err \"object #1 of type Employee has no attribute nope\"" (run "set #1 nope=1");
  Alcotest.(check string) "commit" "ok committed 1" (run "commit");
  Alcotest.(check string) "typeof" "ok Employee" (run "typeof #1");
  Alcotest.(check string) "extent is deep" "ok 1 #1" (run "extent Person");
  Alcotest.(check string) "count" "ok 1" (run "count");
  Alcotest.(check string) "version" "ok 1" (run "version");
  Alcotest.(check string) "branches" "ok main:1" (run "branches");
  Alcotest.(check string) "fork" "ok forked dev at 1" (run "fork dev");
  Alcotest.(check string) "switch" "ok branch dev" (run "branch dev");
  Alcotest.(check string) "unknown verb" "err \"unknown command nonsense\""
    (run "nonsense");
  Alcotest.(check string) "unknown branch"
    "err \"unknown branch nowhere\"" (run "branch nowhere");
  Alcotest.(check string) "quit" "ok bye" (run "quit")

(* ---- socket round-trip ---------------------------------------------- *)

let test_socket_roundtrip () =
  with_server (fun addr ->
      let c = Server.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.close_client c)
        (fun () ->
          ignore (expect c "hello" "ok odb 1");
          ignore (expect c "begin" "ok txn");
          ignore (expect c "set #1 ssn=42" "ok");
          ignore (expect c "get #1 ssn" "ok 42");
          ignore (expect c "commit" "ok committed 2");
          ignore (expect c "get #1 ssn" "ok 42");
          ignore (expect c "quit" "ok bye")))

(* ---- N concurrent writers on one key -------------------------------- *)

(* A countdown barrier: every writer begins its transaction before any
   of them commits, so all N race from the same base version. *)
let barrier n =
  let lock = Mutex.create () and cond = Condition.create () in
  let left = ref n in
  fun () ->
    Mutex.lock lock;
    decr left;
    if !left = 0 then Condition.broadcast cond
    else while !left > 0 do Condition.wait cond lock done;
    Mutex.unlock lock

let test_concurrent_writers_one_key () =
  with_server (fun addr ->
      let n = 12 in
      let ready = barrier n in
      let results = Array.make n "" in
      let writer i () =
        let c = Server.connect addr in
        Fun.protect
          ~finally:(fun () -> Server.close_client c)
          (fun () ->
            ignore (expect c "begin" "ok txn");
            ignore (expect c (Fmt.str "set #1 ssn=%d" (100 + i)) "ok");
            ready ();
            results.(i) <- Server.request c "commit")
      in
      let threads = List.init n (fun i -> Thread.create (writer i) ()) in
      List.iter Thread.join threads;
      let count prefix =
        Array.fold_left
          (fun acc r ->
            if String.length r >= String.length prefix
               && String.sub r 0 (String.length prefix) = prefix
            then acc + 1
            else acc)
          0 results
      in
      Alcotest.(check int) "exactly one commit" 1 (count "ok committed");
      Alcotest.(check int) "everyone else conflicts" (n - 1) (count "conflict");
      (* the surviving value is the winner's, at exactly version 2 *)
      let c = Server.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.close_client c)
        (fun () ->
          ignore (expect c "version" "ok 2");
          let v = Server.request c "get #1 ssn" in
          let winner =
            match int_of_string_opt (String.sub v 3 (String.length v - 3)) with
            | Some w -> w
            | None -> Alcotest.failf "unparsable winner %s" v
          in
          Alcotest.(check bool) "winner wrote one of the raced values" true
            (winner >= 100 && winner < 100 + n)))

(* ---- readers never observe partial commits -------------------------- *)

let test_readers_see_no_partial_commits () =
  with_server (fun addr ->
      (* the invariant every committed version maintains: pay_rate is
         exactly float(ssn).  A torn read would catch them mid-update. *)
      let rounds = 40 and nreaders = 6 in
      let stop = Atomic.make false in
      let failures = Atomic.make 0 in
      let writer () =
        let c = Server.connect addr in
        Fun.protect
          ~finally:(fun () -> Server.close_client c)
          (fun () ->
            for k = 2 to rounds do
              ignore (expect c "begin" "ok txn");
              ignore (expect c (Fmt.str "set #1 ssn=%d" k) "ok");
              ignore (expect c (Fmt.str "set #1 pay_rate=%d.0" k) "ok");
              ignore (expect c "commit" "ok committed")
            done;
            Atomic.set stop true)
      in
      let reader () =
        let c = Server.connect addr in
        Fun.protect
          ~finally:(fun () -> Server.close_client c)
          (fun () ->
            while not (Atomic.get stop) do
              (* inside a transaction both reads hit one snapshot *)
              ignore (expect c "begin" "ok txn");
              let ssn = Server.request c "get #1 ssn" in
              let rate = Server.request c "get #1 pay_rate" in
              ignore (expect c "abort" "ok aborted");
              let payload r = String.sub r 3 (String.length r - 3) in
              match
                (int_of_string_opt (payload ssn), float_of_string_opt (payload rate))
              with
              | Some s, Some r when float_of_int s = r -> ()
              | _ -> Atomic.incr failures
            done)
      in
      let readers = List.init nreaders (fun _ -> Thread.create reader ()) in
      let w = Thread.create writer () in
      Thread.join w;
      List.iter Thread.join readers;
      Alcotest.(check int) "no torn reads" 0 (Atomic.get failures))

(* ---- one served statement reads one version ------------------------- *)

(* The value after [key = ] in a rendered extent row, up to [;] or [}]. *)
let row_field row key =
  let pat = key ^ " = " in
  let n = String.length row and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub row i m = pat then
      let j = ref (i + m) in
      while !j < n && row.[!j] <> ';' && row.[!j] <> '}' do incr j done;
      Some (String.sub row (i + m) (!j - i - m))
    else find (i + 1)
  in
  find 0

let test_eval_reads_one_version () =
  let rows = 30 in
  let store = Mvcc.create ~load_schema schema in
  let t = Mvcc.begin_ store in
  for _ = 1 to rows do
    ignore
      (Mvcc.new_object t (ty "Employee")
         ~init:[ (at "ssn", Value.Int 1); (at "pay_rate", Value.Float 1.0) ])
  done;
  ignore (Mvcc.commit t);
  (* Every committed version keeps one cross-row, cross-attribute
     invariant: all rows carry the same k, as ssn = k and
     pay_rate = float k.  One [eval] outside a transaction that mixed
     rows from two versions would break it.  Each client is a server
     session on its own domain, so readers and the writer truly run in
     parallel (socket sessions may share an accepter domain and then
     only interleave at blocking points). *)
  let rounds = 400 and nreaders = 2 in
  let started = Atomic.make 0 and stop = Atomic.make false in
  let run s req prefix =
    let resp = Server.handle_line s req in
    if not (String.starts_with ~prefix resp) then
      Alcotest.failf "%s -> %s (wanted %s…)" req resp prefix;
    resp
  in
  let writer () =
    let s = Server.session ~store () in
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () ->
        while Atomic.get started < nreaders do Domain.cpu_relax () done;
        for k = 2 to rounds do
          (* one [eval] stages the whole version, so commits come
             quickly enough to land inside the readers' statements *)
          ignore (run s "begin" "ok txn");
          ignore
            (run s
               (Fmt.str "eval %S"
                  (String.concat " "
                     (List.init rows (fun i ->
                          Fmt.str "set #%d { ssn = %d; pay_rate = %d.0 };" (i + 1) k k))))
               "ok ");
          ignore (run s "commit" "ok committed")
        done)
  in
  (* (evals run, evals that mixed versions) *)
  let reader () =
    let s = Server.session ~store () in
    let evals = ref 0 and skewed = ref 0 in
    Atomic.incr started;
    while not (Atomic.get stop) do
      let resp = run s "eval \":extent Employee\"" "ok " in
      let ks =
        Scanf.sscanf resp "ok %S%!" Fun.id
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '#')
        |> List.map (fun row ->
               match (row_field row "ssn", row_field row "pay_rate") with
               | Some ssn, Some rate -> (
                   match (int_of_string_opt ssn, float_of_string_opt rate) with
                   | Some k, Some r when float_of_int k = r -> Some k
                   | _ -> None)
               | _ -> None)
      in
      incr evals;
      if List.length ks <> rows || List.exists (fun k -> k = None || k <> List.hd ks) ks
      then incr skewed
    done;
    (!evals, !skewed)
  in
  let readers = List.init nreaders (fun _ -> Domain.spawn reader) in
  writer ();
  let results = List.map Domain.join readers in
  Alcotest.(check bool) "readers ran" true (List.for_all (fun (e, _) -> e > 0) results);
  Alcotest.(check int) "no eval mixes versions" 0
    (List.fold_left (fun n (_, k) -> n + k) 0 results)

(* ---- a served durable store survives restart ------------------------ *)

let test_served_store_durability () =
  with_temp_dir (fun dir ->
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      with_server ~store:o.Mvcc.store (fun addr ->
          let c = Server.connect addr in
          Fun.protect
            ~finally:(fun () -> Server.close_client c)
            (fun () ->
              ignore (expect c "begin" "ok txn");
              ignore (expect c "set #1 ssn=77" "ok");
              ignore (expect c "commit" "ok committed")));
      Mvcc.close o.Mvcc.store;
      let o2 = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check string) "committed state survives the restart" "77"
        (Tdp_store.Dump.value_to_string
           (Mvcc.get_attr
              (Mvcc.head o2.Mvcc.store ~branch:Mvcc.main_branch)
              (Tdp_store.Oid.of_int 1) (at "ssn")));
      Mvcc.close o2.Mvcc.store)

(* ---- sessions drop cleanly ------------------------------------------ *)

let test_session_disconnect_aborts () =
  with_server (fun addr ->
      let c = Server.connect addr in
      ignore (expect c "begin" "ok txn");
      ignore (expect c "set #1 ssn=500" "ok");
      (* vanish without committing *)
      Server.close_client c;
      let c2 = Server.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.close_client c2)
        (fun () ->
          (* the staged write never landed; a new txn commits freely *)
          ignore (expect c2 "get #1 ssn" "ok 1");
          ignore (expect c2 "begin" "ok txn");
          ignore (expect c2 "set #1 ssn=2" "ok");
          ignore (expect c2 "commit" "ok committed")))

(* ---- disconnect between request and response ------------------------ *)

(* A client that fires a request and hangs up without reading the
   response leaves the server writing into a dead socket (EPIPE).
   That must stay the dying session's private problem: its open txn
   aborts, the worker survives, and fresh sessions get full service. *)
let test_disconnect_mid_response () =
  with_server (fun addr ->
      for _ = 1 to 20 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        let line = "begin\n" in
        ignore (Unix.write_substring fd line 0 (String.length line));
        (* gone before the "ok txn" response can land *)
        Unix.close fd
      done;
      let c = Server.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.close_client c)
        (fun () ->
          (* none of the 20 orphaned txns holds the store *)
          ignore (expect c "begin" "ok txn");
          ignore (expect c "set #1 ssn=9" "ok");
          ignore (expect c "commit" "ok committed");
          ignore (expect c "get #1 ssn" "ok 9")))

(* ---- served method calls -------------------------------------------- *)

(* [raise] writes, then reads its own write; [botch] writes, then makes
   a write that fails validation (a string into an int slot). *)
let calls_source =
  {|type Person { ssn : int; name : string; }
type Employee : Person(1) { pay_rate : float; }
reader get_ssn(self : Person) -> ssn;
reader get_name(self : Person) -> name;
reader get_pay_rate(self : Employee) -> pay_rate;
writer set_pay_rate(self : Employee) -> pay_rate;
writer set_ssn(self : Person) -> ssn;
method raise(e : Employee) : float {
  set_pay_rate(e, get_pay_rate(e) + 1.0);
  return get_pay_rate(e);
}
method botch(e : Employee) : float {
  set_pay_rate(e, 5.0);
  set_ssn(e, get_name(e));
  return get_pay_rate(e);
}
|}

(* [call … on] through the [eval] verb: request, expected response. *)
let test_served_calls () =
  let store = Mvcc.create ~load_schema (load_schema calls_source) in
  let s = Server.session ~store () in
  let no_txn =
    "err \"1:1: error[TDP055]: no open transaction (begin first)\""
  and botched =
    "err \"1:1: error[TDP055]: value \\\"ann\\\" does not conform to int\""
  in
  List.iter
    (fun (req, want) -> Alcotest.(check string) req want (Server.handle_line s req))
    [ ("begin", "ok txn 1 base 0");
      ("new Employee ssn=1 name=\"ann\" pay_rate=10.0", "ok #1");
      ("commit", "ok committed 1");
      (* a writer outside a transaction fails and changes nothing *)
      ("eval \"call raise on Employee;\"", no_txn);
      ("get #1 pay_rate", "ok 10.0");
      (* inside one, the method reads its own write, and the write is
         visible to later reads and later calls *)
      ("begin", "ok txn 2 base 1");
      ("eval \"call raise on Employee;\"", "ok \"raise(#1) = 11\"");
      ("get #1 pay_rate", "ok 11.0");
      ("eval \"call get_pay_rate on Employee;\"", "ok \"get_pay_rate(#1) = 11\"");
      (* a call sees the transaction's other uncommitted writes *)
      ("set #1 ssn=5", "ok");
      ("eval \"call get_ssn on Employee;\"", "ok \"get_ssn(#1) = 5\"");
      (* a write failing validation leaves the view unchanged *)
      ("eval \"call botch on Employee;\"", botched);
      ("get #1 pay_rate", "ok 11.0");
      ("commit", "ok committed 2");
      ("get #1 pay_rate", "ok 11.0");
      ("get #1 ssn", "ok 5");
      (* ... and stages nothing: the commit is read-only *)
      ("begin", "ok txn 3 base 2");
      ("eval \"call botch on Employee;\"", botched);
      ("commit", "ok committed 2");
      ("version", "ok 2")
    ]

(* ---- stop with a client still connected ---------------------------- *)

(* Session threads live on the accepter domains, so [stop] must end
   them before it joins the domains: one idle client must not hold a
   shutdown.  A watchdog bounds the wait; closing the client afterwards
   releases a [stop] that hung, so a regression fails instead of
   hanging the suite. *)
let test_stop_with_idle_client () =
  let store = Mvcc.create ~load_schema schema in
  let path = Filename.temp_file "tdp_sock" ".sock" in
  Sys.remove path;
  let srv = Server.start ~domains:2 ~store (Unix.ADDR_UNIX path) in
  let c = Server.connect (Server.sockaddr srv) in
  ignore (expect c "ping" "ok pong");
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
        Server.stop srv;
        Atomic.set stopped true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let in_time = Atomic.get stopped in
  Server.close_client c;
  Thread.join stopper;
  Alcotest.(check bool) "stop returned within 2 s" true in_time

(* A quoted reply built in one buffer with [Value.add_escaped], the
   escaping the served [eval] reply uses for its text; it must be byte
   for byte what [String.concat] over [String.escaped] gives. *)
let quote_reply ~failed text =
  let b = Buffer.create (String.length text + (String.length text / 8) + 8) in
  Buffer.add_string b (if failed then "err \"" else "ok \"");
  Value.add_escaped b text;
  Buffer.add_char b '"';
  Buffer.contents b

let reference_reply ~failed text =
  String.concat "" [ (if failed then "err \"" else "ok \""); String.escaped text; "\"" ]

let test_quote_reply_bytes () =
  let all = String.init 256 Char.chr in
  List.iter
    (fun text ->
      List.iter
        (fun failed ->
          Alcotest.(check string) (String.escaped text)
            (reference_reply ~failed text) (quote_reply ~failed text))
        [ false; true ])
    ("" :: all :: (all ^ all) :: List.init 256 (fun c -> String.make 1 (Char.chr c)))

let prop_quote_reply =
  QCheck.Test.make ~name:"quote_reply = ok/err + String.escaped" ~count:1000
    QCheck.(pair bool (string_gen_of_size Gen.(0 -- 300) Gen.char))
    (fun (failed, text) ->
      String.equal (quote_reply ~failed text) (reference_reply ~failed text))

(* A slot token with no attribute name is a request error, not an
   exception that ends the connection: the session, and the
   transaction it has open, carry on. *)
let test_malformed_slot () =
  let store = Mvcc.create ~load_schema schema in
  let s = Server.session ~store () in
  let run line = Server.handle_line s line in
  Alcotest.(check string) "begin" "ok txn 1 base 0" (run "begin");
  Alcotest.(check string) "new" "ok #1" (run "new Employee ssn=1");
  Alcotest.(check string) "set with no name" "err \"expected attr=value, got =5\""
    (run "set #1 =5");
  Alcotest.(check string) "new with no name" "err \"expected attr=value, got =3\""
    (run "new Employee =3");
  Alcotest.(check string) "version" "ok 0" (run "version");
  Alcotest.(check string) "commit" "ok committed 1" (run "commit");
  Alcotest.(check string) "count" "ok 1" (run "count")

(* ... and over a socket, where an escaping exception used to close the
   connection with no reply. *)
let test_malformed_slot_socket () =
  with_server (fun addr ->
      let c = Server.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.close_client c)
        (fun () ->
          ignore (expect c "begin" "ok txn");
          ignore (expect c "set #1 =5" "err \"expected attr=value, got =5\"");
          ignore (expect c "new Employee =3" "err \"expected attr=value, got =3\"");
          ignore (expect c "version" "ok 1");
          ignore (expect c "set #1 ssn=9" "ok");
          ignore (expect c "commit" "ok committed 2");
          ignore (expect c "get #1 ssn" "ok 9")))

(* The [extent] verb's reply, byte for byte as its per-OID format. *)
let test_extent_verb_bytes () =
  let store = Mvcc.create ~load_schema schema in
  let s = Server.session ~store () in
  let run line = Server.handle_line s line in
  let want oids =
    Fmt.str "ok %d%s" (List.length oids)
      (String.concat "" (List.map (fun o -> Fmt.str " #%d" o) oids))
  in
  Alcotest.(check string) "no OIDs" (want []) (run "extent Person");
  ignore (run "begin");
  ignore (run "new Person ssn=1");
  Alcotest.(check string) "one OID" (want [ 1 ]) (run "extent Person");
  for i = 2 to 1200 do
    ignore (run (Fmt.str "new %s ssn=%d" (if i mod 3 = 0 then "Person" else "Employee") i))
  done;
  Alcotest.(check string) "many OIDs" (want (List.init 1200 succ)) (run "extent Person");
  Alcotest.(check string) "deep extent"
    (want (List.filter (fun i -> i > 1 && i mod 3 <> 0) (List.init 1200 succ)))
    (run "extent Employee")

let suite =
  [ Alcotest.test_case "protocol unit" `Quick test_protocol_unit;
    Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip;
    Alcotest.test_case "12 writers, one key: 1 commit, 11 conflicts" `Quick
      test_concurrent_writers_one_key;
    Alcotest.test_case "readers never observe partial commits" `Quick
      test_readers_see_no_partial_commits;
    Alcotest.test_case "one eval outside a txn reads one version" `Quick
      test_eval_reads_one_version;
    Alcotest.test_case "served durable store survives restart" `Quick
      test_served_store_durability;
    Alcotest.test_case "disconnect aborts the open txn" `Quick
      test_session_disconnect_aborts;
    Alcotest.test_case "disconnect between request and response" `Quick
      test_disconnect_mid_response;
    Alcotest.test_case "served method calls" `Quick test_served_calls;
    Alcotest.test_case "stop with an idle client connected" `Quick
      test_stop_with_idle_client;
    Alcotest.test_case "malformed slot keeps the session" `Quick test_malformed_slot;
    Alcotest.test_case "malformed slot keeps the connection" `Quick
      test_malformed_slot_socket;
    Alcotest.test_case "extent verb reply bytes" `Quick test_extent_verb_bytes;
    Alcotest.test_case "quote_reply over every byte" `Quick test_quote_reply_bytes;
    QCheck_alcotest.to_alcotest prop_quote_reply
  ]

let () = Alcotest.run "server" [ ("server", suite) ]
