module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Wal = Tdp_store.Wal

(* The transaction log is the store's one durable log, layered on the
   Wal framing (magic 't') with a payload grammar that wraps the Wal op
   grammar in transaction brackets:

     begin <txid> <branch>
     op <txid> <wal-op-payload>
     commit <txid>
     abort <txid> "<reason>"
     fork <branch> <from-branch>

   Only ops bracketed by a begin..commit of the same txid take effect
   on replay; a crash mid-commit leaves a begin (and some ops) without
   a commit record, and recovery discards them — the durable unit is
   the transaction, not the record. *)

type record =
  | Begin of { txid : int; branch : string }
  | Op of { txid : int; op : Database.op }
  | Commit of { txid : int }
  | Abort of { txid : int; reason : string }
  | Fork of { branch : string; from_ : string }

let magic = 't'

(* Branch names travel unquoted in the grammar, so keep them to one
   token: nonempty, no whitespace, no quotes. *)
let valid_branch_name s =
  String.length s > 0
  && String.for_all
       (fun c -> match c with ' ' | '\t' | '\n' | '\r' | '"' -> false | _ -> true)
       s

let payload_to_string = function
  | Begin { txid; branch } -> Fmt.str "begin %d %s" txid branch
  | Op { txid; op } -> Fmt.str "op %d %s" txid (Wal.payload_to_string op)
  | Commit { txid } -> Fmt.str "commit %d" txid
  | Abort { txid; reason } -> Fmt.str "abort %d %S" txid reason
  | Fork { branch; from_ } -> Fmt.str "fork %s %s" branch from_

let parse_fail line fmt =
  Fmt.kstr (fun message -> raise (Dump.Parse_error { line; message })) fmt

let txid_of_token line tok =
  match int_of_string_opt tok with
  | Some i when i >= 1 -> i
  | Some _ -> parse_fail line "non-positive txid %s" tok
  | None -> parse_fail line "bad txid %s" tok

(* Op records dominate a log, so their "op <txid> " header is split off
   by hand and only the op payload is tokenized. *)
let payload_of_string ~line s : record =
  if String.length s > 3 && s.[0] = 'o' && s.[1] = 'p' && s.[2] = ' ' then
    match String.index_from_opt s 3 ' ' with
    | Some sp ->
        let op = String.sub s (sp + 1) (String.length s - sp - 1) in
        Op
          { txid = txid_of_token line (String.sub s 3 (sp - 3));
            op = Wal.payload_of_string ~line op
          }
    | None -> parse_fail line "op record without an op"
  else
  match Dump.tokens line s with
  | [ "begin"; txid; branch ] ->
      if not (valid_branch_name branch) then parse_fail line "bad branch name %s" branch;
      Begin { txid = txid_of_token line txid; branch }
  | [ "commit"; txid ] -> Commit { txid = txid_of_token line txid }
  | [ "abort"; txid; quoted ] -> (
      match Dump.value_of_string line quoted with
      | String reason -> Abort { txid = txid_of_token line txid; reason }
      | _ -> parse_fail line "abort record expects a quoted reason")
  | [ "fork"; branch; from_ ] ->
      if not (valid_branch_name branch) then parse_fail line "bad branch name %s" branch;
      if not (valid_branch_name from_) then parse_fail line "bad branch name %s" from_;
      Fork { branch; from_ }
  | verb :: _ -> parse_fail line "unknown txn record %s" verb
  | [] -> parse_fail line "empty txn record"

let encode ~seq r = Wal.encode_line ~magic ~seq (payload_to_string r)

let parse payload =
  match payload_of_string ~line:0 payload with
  | r -> Ok r
  | exception Dump.Parse_error { message; _ } -> Error message

let decode src = Wal.decode_framed ~magic ~parse src

let writer_create ?sync ~path ~next_seq () =
  Wal.writer_create ?sync ~magic ~path ~next_seq ()

let writer_open ?sync ~path () = Wal.writer_open ?sync ~magic ~path ()

let append w r = Wal.append_payload w (payload_to_string r)
let append_batch w rs = Wal.append_batch w (List.map payload_to_string rs)
