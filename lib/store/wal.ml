open Tdp_core

(* Log framing over the Dump value grammar.  See wal.mli for the record
   format and the recovery contract.  The design constraints:

   - append must be cheap and sequential (one write, one fsync per
     batch of lines);
   - decoding must be total: any byte prefix of a valid log, and any
     single-byte corruption of one, decodes to a clean prefix of the
     committed records — the fault-injection suites check literally
     every offset;
   - a snapshot's seq header makes checkpointing idempotent: a crash
     between snapshot rename and log truncation only means some
     already-snapshotted records get skipped, not re-applied. *)

exception Wal_error of string

(* Observability: append latency splits into encode+write and fsync —
   the fsync share is what a durable commit actually costs.  Recording
   is gated inside Tdp_obs. *)
module Obs = Tdp_obs
let m_append = Obs.Metrics.counter "wal.append"
let m_append_ns = Obs.Metrics.histogram "wal.append_ns"
let m_fsync_ns = Obs.Metrics.histogram "wal.fsync_ns"

let fail fmt = Fmt.kstr (fun s -> raise (Wal_error s)) fmt

(* ---- CRC-32 (IEEE 802.3, reflected) -------------------------------- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Fold [s.[off .. off+len-1]] into a running (pre-inversion) CRC, so a
   record's checksum is computed over its pieces in place. *)
let crc_update c s off len =
  let c = ref c in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get crc_table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c

let crc32 s = crc_update 0xFFFFFFFF s 0 (String.length s) lxor 0xFFFFFFFF

(* ---- payload grammar ----------------------------------------------- *)

let policy_to_string : Database.delete_policy -> string = function
  | Restrict -> "restrict"
  | Nullify -> "nullify"

let payload_to_string (op : Database.op) =
  match op with
  | Op_new { oid; ty; init } ->
      let slots =
        List.map
          (fun (a, v) ->
            Fmt.str " %s=%s" (Attr_name.to_string a) (Dump.value_to_string v))
          init
      in
      Fmt.str "new #%d %s%s" (Oid.to_int oid) (Type_name.to_string ty)
        (String.concat "" slots)
  | Op_set { oid; attr; value } ->
      Fmt.str "set #%d %s=%s" (Oid.to_int oid) (Attr_name.to_string attr)
        (Dump.value_to_string value)
  | Op_delete { oid; policy } ->
      Fmt.str "del #%d %s" (Oid.to_int oid) (policy_to_string policy)
  | Op_set_schema { source } -> Fmt.str "schema %S" source

let parse_fail line fmt =
  Fmt.kstr (fun message -> raise (Dump.Parse_error { line; message })) fmt

let oid_of_token line tok =
  if String.length tok > 1 && tok.[0] = '#' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some i when i >= 1 -> Oid.of_int i
    | Some _ -> parse_fail line "non-positive oid %s" tok
    | None -> parse_fail line "bad oid %s" tok
  else parse_fail line "expected #<oid>, got %s" tok

let slot_of_token line tok =
  match String.index_opt tok '=' with
  | Some i ->
      ( Attr_name.of_string (String.sub tok 0 i),
        Dump.value_of_string line (String.sub tok (i + 1) (String.length tok - i - 1))
      )
  | None -> parse_fail line "expected attr=value, got %s" tok

let payload_of_string ~line s : Database.op =
  match Dump.tokens line s with
  | "new" :: oid :: ty :: slots ->
      Op_new
        { oid = oid_of_token line oid;
          ty = Type_name.of_string ty;
          init = List.map (slot_of_token line) slots
        }
  | [ "set"; oid; slot ] ->
      let attr, value = slot_of_token line slot in
      Op_set { oid = oid_of_token line oid; attr; value }
  | [ "del"; oid; policy ] ->
      let policy =
        match policy with
        | "restrict" -> Database.Restrict
        | "nullify" -> Database.Nullify
        | p -> parse_fail line "unknown delete policy %s" p
      in
      Op_delete { oid = oid_of_token line oid; policy }
  | [ "schema"; quoted ] -> (
      match Dump.value_of_string line quoted with
      | String source -> Op_set_schema { source }
      | _ -> parse_fail line "schema record expects a quoted source")
  | verb :: _ -> parse_fail line "unknown wal record %s" verb
  | [] -> parse_fail line "empty wal record"

(* ---- record framing ------------------------------------------------ *)

(* The framing is generic over the record magic and payload grammar:
   the transaction log (Tdp_txn, magic 't') is the one log written, and
   the legacy fold below reads the retired plain-op records (magic 'w')
   with the same CRC'd, seq-numbered, torn-tail-tolerant rules. *)

let encode_line ~magic ~seq payload =
  Fmt.str "%c %d %08x %s\n" magic seq (crc32 (Fmt.str "%d %s" seq payload)) payload

type corruption = { at_seq : int; offset : int; reason : string }

type 'a framed = { fseq : int; fvalue : 'a; fends_at : int }

type 'a framed_decoded = {
  fentries : 'a framed list;
  fnext_seq : int;
  fvalid_bytes : int;
  fcorruption : corruption option;
}

(* The number spelled by [line.[lo .. hi-1]] in [base] (10 or 16),
   digits only — the writer prints [%d] and [%08x]; [None] for an empty,
   overlong or malformed field.  Read in place: every record's header
   passes through here. *)
let number ~base line lo hi =
  let rec go i acc =
    if i = hi then Some acc
    else
      let d =
        match line.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c when base = 16 -> Char.code c - 87
        | _ -> base
      in
      if d >= base then None else go (i + 1) ((acc * base) + d)
  in
  if hi <= lo || hi - lo > 15 then None else go lo 0

(* One line, newline stripped.  [Error reason] never raises so that
   decode stays total on arbitrary bytes. *)
let parse_record ~magic ~parse line =
  let n = String.length line in
  if n < 2 || line.[0] <> magic || line.[1] <> ' ' then Error "bad record magic"
  else
    match String.index_from_opt line 2 ' ' with
    | None -> Error "missing checksum field"
    | Some sp1 -> (
        match String.index_from_opt line (sp1 + 1) ' ' with
        | None -> Error "missing payload"
        | Some sp2 -> (
            match (number ~base:10 line 2 sp1, number ~base:16 line (sp1 + 1) sp2) with
            | Some seq, Some crc when seq >= 1 ->
                (* the checksum covers "<seq> <payload>" *)
                let plen = n - sp2 - 1 in
                let c = crc_update 0xFFFFFFFF line 2 (sp1 - 2) in
                let c = crc_update (crc_update c " " 0 1) line (sp2 + 1) plen in
                if crc <> c lxor 0xFFFFFFFF then Error "checksum mismatch"
                else Result.map (fun v -> (seq, v)) (parse (String.sub line (sp2 + 1) plen))
            | _ -> Error "bad record header"))

(* ---- incremental decode -------------------------------------------- *)

(* A pull-based record reader.  It frames records one at a time out of
   a bounded buffer refilled from [read], so memory is O(longest
   record) rather than O(log) — a replica can tail a multi-GB log.
   [decode_framed], file recovery, and the replica tailer all sit on
   this one cursor, which is what keeps their torn-tail semantics
   byte-for-byte identical. *)

type 'a cursor = {
  cmagic : char;
  cparse : string -> ('a, string) result;
  cread : bytes -> int -> int -> int;
  mutable cbuf : Bytes.t;  (* window of not-yet-framed bytes *)
  mutable clo : int;  (* start of live data in cbuf *)
  mutable chi : int;  (* end of live data in cbuf *)
  mutable cscan : int;  (* newline scan resumes at clo + cscan *)
  mutable cbase : int;  (* stream offset of cbuf.[clo]: the valid prefix end *)
  mutable cexpected : int option;  (* next seq; None before the first record *)
  mutable cstopped : corruption option;  (* sticky once set *)
}

type 'a step = Record of 'a framed | End_of_input | Corrupt of corruption

let cursor_buf_size = 64 * 1024

let cursor ~magic ~parse ?(base = 0) ?next_seq read =
  { cmagic = magic;
    cparse = parse;
    cread = read;
    cbuf = Bytes.create cursor_buf_size;
    clo = 0;
    chi = 0;
    cscan = 0;
    cbase = base;
    cexpected = next_seq;
    cstopped = None
  }

let cursor_pos c = c.cbase
let cursor_pending c = c.chi > c.clo

(* Make room to refill: slide live bytes to the front, doubling the
   buffer only when a single record outgrows it. *)
let cursor_make_room c =
  if c.clo > 0 then begin
    Bytes.blit c.cbuf c.clo c.cbuf 0 (c.chi - c.clo);
    c.chi <- c.chi - c.clo;
    c.clo <- 0
  end;
  if c.chi = Bytes.length c.cbuf then begin
    let bigger = Bytes.create (2 * Bytes.length c.cbuf) in
    Bytes.blit c.cbuf 0 bigger 0 c.chi;
    c.cbuf <- bigger
  end

let rec cursor_next c =
  match c.cstopped with
  | Some corr -> Corrupt corr
  | None -> (
      match Bytes.index_from_opt c.cbuf (c.clo + c.cscan) '\n' with
      | Some nl when nl < c.chi ->
          let line = Bytes.sub_string c.cbuf c.clo (nl - c.clo) in
          let stop at_seq reason =
            let corr = { at_seq; offset = c.cbase; reason } in
            c.cstopped <- Some corr;
            Corrupt corr
          in
          let expected_or d = Option.value c.cexpected ~default:d in
          (match parse_record ~magic:c.cmagic ~parse:c.cparse line with
          | Error reason -> stop (expected_or 0) reason
          | Ok (seq, v) ->
              (* the first valid record sets the base (a truncated log
                 restarts above the snapshot's seq); after that the
                 numbering must be strictly consecutive *)
              if seq <> expected_or seq then
                stop (expected_or seq) (Fmt.str "sequence break: got %d" seq)
              else begin
                c.cbase <- c.cbase + (nl + 1 - c.clo);
                c.clo <- nl + 1;
                c.cscan <- 0;
                c.cexpected <- Some (seq + 1);
                Record { fseq = seq; fvalue = v; fends_at = c.cbase }
              end)
      | Some _ | None ->
          (* no complete line buffered: remember how far we scanned,
             refill, retry; 0 bytes read means end of current input *)
          c.cscan <- c.chi - c.clo;
          cursor_make_room c;
          let n = c.cread c.cbuf c.chi (Bytes.length c.cbuf - c.chi) in
          if n = 0 then End_of_input
          else begin
            c.chi <- c.chi + n;
            cursor_next c
          end)

let cursor_of_string ~magic ~parse src =
  let pos = ref 0 in
  let read buf off len =
    let n = min len (String.length src - !pos) in
    Bytes.blit_string src !pos buf off n;
    pos := !pos + n;
    n
  in
  cursor ~magic ~parse read

(* The torn-tail corruption record decode reports when input ends mid
   record; [End_of_input] with pending bytes means exactly that. *)
let torn_corruption c =
  { at_seq = Option.value c.cexpected ~default:0;
    offset = c.cbase;
    reason = "torn record (no trailing newline)"
  }

let decode_framed ~magic ~parse src =
  let c = cursor_of_string ~magic ~parse src in
  let rec go acc =
    match cursor_next c with
    | Record e -> go (e :: acc)
    | End_of_input ->
        let corr = if cursor_pending c then Some (torn_corruption c) else None in
        (List.rev acc, cursor_pos c, corr)
    | Corrupt corr -> (List.rev acc, cursor_pos c, Some corr)
  in
  let fentries, fvalid_bytes, fcorruption = go [] in
  let fnext_seq =
    match c.cexpected with Some s -> s | None -> 1
  in
  { fentries; fnext_seq; fvalid_bytes; fcorruption }

(* ---- file tailing --------------------------------------------------- *)

(* A cursor over a growing log file.  [tail_poll] returns records as
   they become durable, [Wait] when it has caught up with the current
   end of file (a partial trailing record simply stays buffered until
   the writer finishes it), and [Truncated] when the file shrank below
   the consumed offset — the primary checkpointed — at which point the
   caller reopens from offset 0 (the fresh log resumes one past the
   checkpoint seq, so the cursor's consecutive-seq check still
   bridges).  Corruption is sticky, exactly as in {!decode_framed}. *)

type 'a tail = {
  tfd : Unix.file_descr;
  tcur : 'a cursor;
  tread : int ref;  (* bytes consumed from the fd *)
}

type 'a tail_step = Shipped of 'a framed | Wait | Truncated | Halted of corruption

let tail_open ~magic ~parse ?(offset = 0) ?next_seq path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  ignore (Unix.lseek fd offset Unix.SEEK_SET);
  let tread = ref offset in
  let read buf pos len =
    match Unix.read fd buf pos len with
    | n ->
        tread := !tread + n;
        n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  in
  { tfd = fd; tcur = cursor ~magic ~parse ~base:offset ?next_seq read; tread }

let tail_poll t =
  match cursor_next t.tcur with
  | Record e -> Shipped e
  | Corrupt c -> Halted c
  | End_of_input -> (
      match (Unix.fstat t.tfd).st_size < !(t.tread) with
      | true -> Truncated
      | false -> Wait
      | exception Unix.Unix_error _ -> Wait)

let tail_offset t = cursor_pos t.tcur
let tail_close t = try Unix.close t.tfd with Unix.Unix_error _ -> ()

(* ---- appending ----------------------------------------------------- *)

(* [committed] is the byte length of the durable record prefix: every
   append that returned normally ends exactly there.  A failed append
   (disk full, closed fd, failed fsync) may leave torn bytes beyond it,
   so the writer rolls the file back to [committed] (best-effort) and
   poisons itself: the sequence counter is only ever bumped on success,
   so a poisoned writer can never produce the gapped or shadowed seqs
   that recovery then refuses.  The writer owns a bare descriptor, not a
   channel: a channel would keep a failed batch in its buffer and write
   it out again at close, after the rollback.

   The descriptor also holds the log's one-writer lock.  [lockf] locks
   belong to the process and drop when {e any} of its descriptors on
   the file closes, so a writer is never swapped for a fresh one on the
   same path: {!reset} truncates and renumbers it in place instead. *)
type writer = {
  fd : Unix.file_descr;
  magic : char;
  mutable next : int;
  sync : bool;
  mutable committed : int;
  mutable poisoned : bool;
}

let writer_open ?(sync = true) ~magic ~path () =
  let fd =
    try Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    with Unix.Unix_error (e, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  (match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
      Unix.close fd;
      raise
        (Database.Store_error
           (Fmt.str "store %s is in use by another process (%s is locked)"
              (Filename.dirname path) path)));
  (* the open may have created the file: fsync the directory so the
     name itself survives a crash, not just later record fsyncs *)
  Dump.fsync_dir (Filename.dirname path);
  let committed = try (Unix.fstat fd).st_size with Unix.Unix_error _ -> 0 in
  { fd; magic; next = 1; sync; committed; poisoned = false }

(* Read through the locked descriptor: opening and closing another one
   on the same file would drop the lock.  Appends ignore the offset
   ([O_APPEND]), so moving it costs the writer nothing. *)
let contents w =
  let len = (Unix.fstat w.fd).st_size in
  let buf = Bytes.create len in
  ignore (Unix.lseek w.fd 0 Unix.SEEK_SET);
  let rec go off =
    if off < len then
      match Unix.read w.fd buf off (len - off) with 0 -> off | n -> go (off + n)
    else off
  in
  Bytes.sub_string buf 0 (go 0)

(* Cut the file back to its first [valid_bytes] bytes (a torn tail, or
   everything after a checkpoint) and continue numbering at
   [next_seq].  The file is in a known state afterwards, so a poisoned
   writer is usable again. *)
let reset w ~valid_bytes ~next_seq =
  if (Unix.fstat w.fd).st_size > valid_bytes then begin
    Unix.ftruncate w.fd valid_bytes;
    Unix.fsync w.fd
  end;
  w.committed <- valid_bytes;
  w.next <- next_seq;
  w.poisoned <- false

let writer_create ?sync ~magic ~path ~next_seq () =
  let w = writer_open ?sync ~magic ~path () in
  reset w ~valid_bytes:0 ~next_seq;
  w

(* The batch is framed in memory and reaches the file through one
   [Unix.write] (a single syscall up to its 64 KiB chunk size) and, in
   sync mode, one fsync: a transaction bracket pays for one durable
   write, not one per record. *)
let append_batch w payloads =
  if w.poisoned then
    fail "log writer is poisoned by an earlier failed append; reopen the store";
  Obs.Metrics.time m_append_ns (fun () ->
      let first = w.next in
      let batch =
        String.concat ""
          (List.mapi (fun i p -> encode_line ~magic:w.magic ~seq:(first + i) p) payloads)
      in
      let len = String.length batch in
      match
        if Unix.write_substring w.fd batch 0 len <> len then fail "short write to the log";
        if w.sync then Obs.Metrics.time m_fsync_ns (fun () -> Unix.fsync w.fd)
      with
      | () ->
          let n = List.length payloads in
          w.next <- first + n;
          w.committed <- w.committed + len;
          Obs.Metrics.add m_append n;
          first
      | exception exn ->
          (* roll the file back to the last batch boundary; whether or
             not that works, the writer is done *)
          (try Unix.ftruncate w.fd w.committed with _ -> ());
          w.poisoned <- true;
          raise exn)

let append_payload w payload = append_batch w [ payload ]
let writer_seq w = w.next
let writer_poisoned w = w.poisoned
let writer_fd w = w.fd
let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()

(* ---- the legacy fold ------------------------------------------------ *)

let apply ?load_schema db (op : Database.op) =
  match op with
  | Op_new { oid; ty; init } -> ignore (Database.restore_object db ~oid ~ty ~init)
  | Op_set { oid; attr; value } -> Database.set_attr db oid attr value
  | Op_delete { oid; policy } -> Database.delete db ~policy oid
  | Op_set_schema { source } -> (
      match load_schema with
      | Some f -> Database.set_schema ~source db (f source)
      | None -> fail "schema record in the log but no schema loader given")

type legacy = { db : Database.t; wal_seq : int; corruption : corruption option }

let parse_op payload =
  match payload_of_string ~line:0 payload with
  | op -> Ok op
  | exception Dump.Parse_error { message; _ } -> Error message

(* Expected failures carry their own message; anything else is
   reported by name, never re-raised. *)
let replay_failure = function
  | Database.Store_error m -> m
  | Dump.Parse_error { message; _ } -> message
  | Wal_error m -> m
  | Error.E err -> Error.message err
  | exn -> Fmt.str "unexpected exception during replay: %s" (Printexc.to_string exn)

(* Skip records the snapshot already contains, refuse a gap between
   snapshot and log, and treat a torn, corrupt or failing record as the
   end of the usable prefix — the fold reports, it does not raise. *)
let fold_legacy ?load_schema ~schema ?snapshot ?(wal = "") () =
  let db = Database.create schema in
  let snapshot_seq =
    match snapshot with
    | None -> 0
    | Some text ->
        ignore (Dump.load_into db text);
        Dump.wal_seq text
  in
  let cur = cursor_of_string ~magic:'w' ~parse:parse_op wal in
  let rec run last valid =
    let stop at_seq reason =
      { db; wal_seq = last; corruption = Some { at_seq; offset = valid; reason } }
    in
    match cursor_next cur with
    | End_of_input ->
        let corruption = if cursor_pending cur then Some (torn_corruption cur) else None in
        { db; wal_seq = last; corruption }
    | Corrupt corruption -> { db; wal_seq = last; corruption = Some corruption }
    | Record e when e.fseq <= snapshot_seq -> run last e.fends_at
    | Record e when e.fseq <> last + 1 ->
        stop (last + 1)
          (Fmt.str "sequence gap: recovered to %d, log resumes at %d" last e.fseq)
    | Record e -> (
        match apply ?load_schema db e.fvalue with
        | () -> run e.fseq e.fends_at
        | exception exn -> stop e.fseq (replay_failure exn))
  in
  run snapshot_seq 0
