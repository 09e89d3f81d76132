open Tdp_core

(* Write-ahead log over the Dump value grammar.  See wal.mli for the
   record format and the recovery contract.  The design constraints:

   - append must be cheap and sequential (one write, one fsync per
     batch of lines);
   - decoding must be total: any byte prefix of a valid log, and any
     single-byte corruption of one, decodes to a clean prefix of the
     committed operations — the fault-injection suite checks literally
     every offset;
   - the snapshot's wal-seq header makes checkpointing idempotent: a
     crash between snapshot rename and log truncation only means some
     already-snapshotted records get skipped, not re-applied. *)

exception Wal_error of string

(* Observability: append latency splits into encode+write and fsync —
   the fsync share is what journaling mode actually costs — and
   recovery reports how many ops it replayed and how long the replay
   took.  Recording is gated inside Tdp_obs. *)
module Obs = Tdp_obs
let m_append = Obs.Metrics.counter "wal.append"
let m_append_ns = Obs.Metrics.histogram "wal.append_ns"
let m_fsync_ns = Obs.Metrics.histogram "wal.fsync_ns"
let m_replay_ops = Obs.Metrics.counter "wal.replay.ops"
let m_replay_ns = Obs.Metrics.histogram "wal.replay_ns"

let fail fmt = Fmt.kstr (fun s -> raise (Wal_error s)) fmt

(* ---- CRC-32 (IEEE 802.3, reflected) -------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

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

(* The framing is generic over the record magic and payload grammar so
   other prefix-commit logs (the Tdp_txn transaction log) can layer on
   the same CRC'd, seq-numbered, torn-tail-tolerant line format. *)

let encode_line ~magic ~seq payload =
  Fmt.str "%c %d %08x %s\n" magic seq (crc32 (Fmt.str "%d %s" seq payload)) payload

let encode ~seq op = encode_line ~magic:'w' ~seq (payload_to_string op)

type corruption = { at_seq : int; offset : int; reason : string }
type entry = { seq : int; op : Database.op; ends_at : int }

type decoded = {
  entries : entry list;
  next_seq : int;
  valid_bytes : int;
  corruption : corruption option;
}

type 'a framed = { fseq : int; fvalue : 'a; fends_at : int }

type 'a framed_decoded = {
  fentries : 'a framed list;
  fnext_seq : int;
  fvalid_bytes : int;
  fcorruption : corruption option;
}

(* One line, newline stripped.  [Error reason] never raises so that
   decode stays total on arbitrary bytes. *)
let parse_record ~magic ~parse line =
  let open struct
    exception Bad of string
  end in
  try
    if String.length line < 2 || line.[0] <> magic || line.[1] <> ' ' then
      raise (Bad "bad record magic");
    let sp1 =
      match String.index_from_opt line 2 ' ' with
      | Some i -> i
      | None -> raise (Bad "missing checksum field")
    in
    let sp2 =
      match String.index_from_opt line (sp1 + 1) ' ' with
      | Some i -> i
      | None -> raise (Bad "missing payload")
    in
    let seq_s = String.sub line 2 (sp1 - 2) in
    let crc_s = String.sub line (sp1 + 1) (sp2 - sp1 - 1) in
    let payload = String.sub line (sp2 + 1) (String.length line - sp2 - 1) in
    match (int_of_string_opt seq_s, int_of_string_opt ("0x" ^ crc_s)) with
    | Some seq, Some crc when seq >= 1 ->
        if crc <> crc32 (seq_s ^ " " ^ payload) then Error "checksum mismatch"
        else Result.map (fun v -> (seq, v)) (parse payload)
    | _ -> Error "bad record header"
  with Bad reason -> Error reason

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
let cursor_expected c = c.cexpected
let cursor_next_seq c = Option.value c.cexpected ~default:1
let cursor_corruption c = c.cstopped

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

let parse_op payload =
  match payload_of_string ~line:0 payload with
  | op -> Ok op
  | exception Dump.Parse_error { message; _ } -> Error message

let decode src =
  let d = decode_framed ~magic:'w' ~parse:parse_op src in
  { entries =
      List.map (fun e -> { seq = e.fseq; op = e.fvalue; ends_at = e.fends_at }) d.fentries;
    next_seq = d.fnext_seq;
    valid_bytes = d.fvalid_bytes;
    corruption = d.fcorruption
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Truncate in place rather than read-rewrite: repair never needs the
   log contents, only the valid-prefix length. *)
let repair ~path valid_bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if (Unix.fstat fd).st_size > valid_bytes then begin
        Unix.ftruncate fd valid_bytes;
        Unix.fsync fd
      end)

(* ---- file tailing --------------------------------------------------- *)

(* A cursor over a growing log file.  [tail_poll] returns records as
   they become durable, [Wait] when it has caught up with the current
   end of file (a partial trailing record simply stays buffered until
   the writer finishes it), and [Truncated] when the file shrank below
   the consumed offset — the primary checkpointed — at which point the
   caller reopens from offset 0 (the fresh log resumes one past the
   checkpoint seq, so the cursor's consecutive-seq check still
   bridges).  Corruption is sticky, exactly as in {!decode}. *)

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
let tail_pending t = cursor_pending t.tcur
let tail_next_seq t = cursor_next_seq t.tcur
let tail_expected t = cursor_expected t.tcur
let tail_close t = try Unix.close t.tfd with Unix.Unix_error _ -> ()

(* ---- appending ----------------------------------------------------- *)

(* [committed] is the byte length of the durable record prefix: every
   append that returned normally ends exactly there.  A failed append
   (disk full, closed fd, failed fsync) may leave torn bytes beyond it,
   so the writer rolls the file back to [committed] (best-effort) and
   poisons itself: the sequence counter is only ever bumped on success,
   so a poisoned writer can never produce the gapped or shadowed seqs
   that [recover] then refuses.  Re-open after {!repair} to resume.
   The writer owns a bare descriptor, not a channel: a channel would
   keep a failed batch in its buffer and write it out again at close,
   after the rollback. *)
type writer = {
  fd : Unix.file_descr;
  magic : char;
  mutable next : int;
  sync : bool;
  mutable committed : int;
  mutable poisoned : bool;
}

let writer_make flags ?(sync = true) ?(magic = 'w') ~path ~next_seq () =
  let fd =
    try Unix.openfile path (Unix.O_WRONLY :: Unix.O_CREAT :: flags) 0o644
    with Unix.Unix_error (e, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  (* the open may have created the file: fsync the directory so the
     name itself survives a crash, not just later record fsyncs *)
  Dump.fsync_dir (Filename.dirname path);
  let committed = try (Unix.fstat fd).st_size with Unix.Unix_error _ -> 0 in
  { fd; magic; next = next_seq; sync; committed; poisoned = false }

let writer_create ?sync ?magic ~path ~next_seq () =
  writer_make [ Unix.O_TRUNC ] ?sync ?magic ~path ~next_seq ()

let writer_open ?sync ?magic ~path ~next_seq () =
  writer_make [ Unix.O_APPEND ] ?sync ?magic ~path ~next_seq ()

(* The batch is framed in memory and reaches the file through one
   [Unix.write] (a single syscall up to its 64 KiB chunk size) and, in
   sync mode, one fsync: a transaction bracket pays for one durable
   write, not one per record. *)
let append_batch w payloads =
  if w.poisoned then
    fail "wal writer is poisoned by an earlier failed append; repair and reopen";
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
let append w op = append_payload w (payload_to_string op)
let writer_seq w = w.next
let writer_poisoned w = w.poisoned
let writer_fd w = w.fd

let attach w db = Database.set_journal db (Some (fun op -> ignore (append w op)))
let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()

(* ---- replay and recovery ------------------------------------------- *)

let apply ?load_schema db (op : Database.op) =
  match op with
  | Op_new { oid; ty; init } -> ignore (Database.restore_object db ~oid ~ty ~init)
  | Op_set { oid; attr; value } -> Database.set_attr db oid attr value
  | Op_delete { oid; policy } -> Database.delete db ~policy oid
  | Op_set_schema { source } -> (
      match load_schema with
      | Some f -> Database.set_schema ~source db (f source)
      | None -> fail "schema record in the log but no schema loader given")

type recovery = {
  db : Database.t;
  snapshot_seq : int;
  replayed : int;
  last_seq : int;
  wal_valid_bytes : int;
  corruption : corruption option;
}

(* Any exception from replaying an op ends the usable prefix with a
   structured corruption record — including exceptions outside the
   expected store/parse family, which previously escaped as-is and
   could kill a replica apply loop with a bare [Assert_failure]. *)
let replay_failure_reason = function
  | Database.Store_error m -> m
  | Dump.Parse_error { message; _ } -> message
  | Wal_error m -> m
  | Error.E err -> Error.message err
  | exn -> Fmt.str "unexpected exception during replay: %s" (Printexc.to_string exn)

(* The replay loop, driven record-at-a-time off a cursor so that file
   recovery never materializes the log: skip records the snapshot
   already contains, refuse gaps between snapshot and log, and treat
   an op that fails to apply as the end of the usable prefix —
   recovery reports, it does not raise. *)
let recover_cursor ?load_schema ~schema ?snapshot cur =
  let db = Database.create schema in
  let snapshot_seq =
    match snapshot with
    | None -> 0
    | Some text ->
        ignore (Dump.load_into db text);
        Dump.wal_seq text
  in
  let rec run ~replayed ~last_seq ~valid =
    match cursor_next cur with
    | End_of_input ->
        let corruption =
          if cursor_pending cur then Some (torn_corruption cur) else None
        in
        (replayed, last_seq, valid, corruption)
    | Corrupt corruption -> (replayed, last_seq, valid, Some corruption)
    | Record e when e.fseq <= snapshot_seq ->
        run ~replayed ~last_seq ~valid:e.fends_at
    | Record e ->
        if e.fseq <> last_seq + 1 then
          ( replayed,
            last_seq,
            valid,
            Some
              { at_seq = last_seq + 1;
                offset = valid;
                reason =
                  Fmt.str "sequence gap: recovered to %d, log resumes at %d"
                    last_seq e.fseq
              } )
        else (
          match apply ?load_schema db e.fvalue with
          | () -> run ~replayed:(replayed + 1) ~last_seq:e.fseq ~valid:e.fends_at
          | exception exn ->
              ( replayed,
                last_seq,
                valid,
                Some
                  { at_seq = e.fseq;
                    offset = valid;
                    reason = replay_failure_reason exn
                  } ))
  in
  let replayed, last_seq, wal_valid_bytes, corruption =
    run ~replayed:0 ~last_seq:snapshot_seq ~valid:0
  in
  { db; snapshot_seq; replayed; last_seq; wal_valid_bytes; corruption }

let recover_text_uninstrumented ?load_schema ~schema ?snapshot ?wal () =
  let cur =
    cursor_of_string ~magic:'w' ~parse:parse_op (Option.value wal ~default:"")
  in
  recover_cursor ?load_schema ~schema ?snapshot cur

let recover_text ?load_schema ~schema ?snapshot ?wal () =
  Obs.Metrics.time m_replay_ns (fun () ->
      Obs.Trace.with_span "wal.recover" (fun () ->
          let r =
            recover_text_uninstrumented ?load_schema ~schema ?snapshot ?wal ()
          in
          Obs.Metrics.add m_replay_ops r.replayed;
          r))

(* File recovery streams the WAL through a bounded cursor buffer (the
   snapshot is still loaded whole: it is a dump, not a log). *)
let recover ?load_schema ~schema ~snapshot_path ~wal_path () =
  Obs.Metrics.time m_replay_ns (fun () ->
      Obs.Trace.with_span "wal.recover" (fun () ->
          let snapshot =
            if Sys.file_exists snapshot_path then Some (read_file snapshot_path)
            else None
          in
          let with_wal_cursor k =
            if not (Sys.file_exists wal_path) then
              k (cursor_of_string ~magic:'w' ~parse:parse_op "")
            else begin
              let ic = open_in_bin wal_path in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () ->
                  k (cursor ~magic:'w' ~parse:parse_op (input ic)))
            end
          in
          let r =
            with_wal_cursor (fun cur ->
                recover_cursor ?load_schema ~schema ?snapshot cur)
          in
          Obs.Metrics.add m_replay_ops r.replayed;
          r))
