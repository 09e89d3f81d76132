open Tdp_core

(* A line-oriented dump format for object stores:

     obj #<oid> <Type> <attr>=<value> <attr>=<value> …

   Values: integers [42], floats [42.5] (always with a point or
   exponent; [nan]/[inf]/[-inf] for non-finite), quoted strings
   (backslash escapes), booleans [true]/[false], dates [year:1990],
   references [#3], and [null].  Lines starting with [--] are
   comments.  Loading is two-pass so forward references work. *)

exception Parse_error of { line : int; message : string }

(* Observability: snapshot save/load dominate checkpoint cost; both are
   timed and traced (gated inside Tdp_obs). *)
module Obs = Tdp_obs
let m_save_ns = Obs.Metrics.histogram "dump.save_ns"
let m_load_ns = Obs.Metrics.histogram "dump.load_ns"

let fail line fmt = Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

(* Shortest decimal that reads back to exactly [f]: [%.12g] is compact
   and almost always exact; when it is lossy (e.g. 0.1 +. 0.2) fall
   back to the 17 significant digits that round-trip every double. *)
let float_to_string f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else
    let s = Fmt.str "%.12g" f in
    let s = if float_of_string s = f then s else Fmt.str "%.17g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let value_to_string (v : Value.t) =
  match v with
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | String s -> Fmt.str "%S" s
  | Bool b -> string_of_bool b
  | Date y -> Fmt.str "year:%d" y
  | Ref o -> Fmt.str "#%d" (Oid.to_int o)
  | Null -> "null"

let value_of_string line s : Value.t =
  let len = String.length s in
  if len = 0 then fail line "empty value"
  else if s = "null" then Null
  else if s = "true" then Bool true
  else if s = "false" then Bool false
  else if s = "nan" then Float Float.nan
  else if s = "inf" || s = "+inf" then Float Float.infinity
  else if s = "-inf" then Float Float.neg_infinity
  else if s.[0] = '"' then
    if len >= 2 && s.[len - 1] = '"' then String (Scanf.sscanf s "%S" Fun.id)
    else fail line "unterminated string %s" s
  else if s.[0] = '#' then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some i when i >= 1 -> Ref (Oid.of_int i)
    | Some _ -> fail line "non-positive oid in reference %s" s
    | None -> fail line "bad reference %s" s
  else if len > 5 && String.sub s 0 5 = "year:" then
    match int_of_string_opt (String.sub s 5 (len - 5)) with
    | Some y -> Date y
    | None -> fail line "bad date %s" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail line "unreadable value %s" s)

let to_string db =
  let buf = Buffer.create 1024 in
  (* [fold_rows] yields bindings in attribute-name order, matching the
     slot-map iteration this format was defined by, without
     materializing a map per object *)
  Database.fold_rows db ~init:() (fun () oid ty bindings ->
      Buffer.add_string buf
        (Fmt.str "obj #%d %s" (Oid.to_int oid) (Type_name.to_string ty));
      List.iter
        (fun (a, v) ->
          Buffer.add_string buf
            (Fmt.str " %s=%s" (Attr_name.to_string a) (value_to_string v)))
        bindings;
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* Split a dump line into whitespace-separated tokens, keeping quoted
   strings (and their escapes) intact.  Each token is one substring of
   the line: every snapshot and log line passes through here. *)
let tokens line_no line =
  let n = String.length line in
  (* [tok_end i] is the first unquoted blank at or after [i] *)
  let rec tok_end i =
    if i >= n then n
    else
      match line.[i] with
      | ' ' | '\t' -> i
      | '"' -> str_end (i + 1)
      | _ -> tok_end (i + 1)
  and str_end i =
    if i >= n then fail line_no "unterminated string"
    else
      match line.[i] with
      | '\\' -> str_end (i + 2)
      | '"' -> tok_end (i + 1)
      | _ -> str_end (i + 1)
  in
  let rec go acc i =
    if i >= n then List.rev acc
    else
      match line.[i] with
      | ' ' | '\t' -> go acc (i + 1)
      | _ ->
          let j = tok_end i in
          go (String.sub line i (j - i) :: acc) j
  in
  go [] 0

type parsed_obj = {
  p_oid : int;
  p_ty : Type_name.t;
  p_slots : (Attr_name.t * Value.t) list;
  p_line : int;
}

let parse_line line_no line =
  match tokens line_no line with
  | [] -> None
  | t :: _ when String.length t >= 2 && String.sub t 0 2 = "--" -> None
  | "obj" :: oid :: ty :: slots ->
      let p_oid =
        if String.length oid > 1 && oid.[0] = '#' then
          match int_of_string_opt (String.sub oid 1 (String.length oid - 1)) with
          | Some i when i >= 1 -> i
          | Some _ ->
              (* OIDs are allocated from 1; accepting #0 or a negative
                 OID here would let a restored object sit outside the
                 allocator's range and silently coexist with fresh
                 allocations. *)
              fail line_no "non-positive oid %s" oid
          | None -> fail line_no "bad oid %s" oid
        else fail line_no "expected #<oid>, got %s" oid
      in
      let p_slots =
        List.map
          (fun tok ->
            match String.index_opt tok '=' with
            | Some i ->
                ( Attr_name.of_string (String.sub tok 0 i),
                  value_of_string line_no
                    (String.sub tok (i + 1) (String.length tok - i - 1)) )
            | None -> fail line_no "expected attr=value, got %s" tok)
          slots
      in
      Some { p_oid; p_ty = Type_name.of_string ty; p_slots; p_line = line_no }
  | t :: _ -> fail line_no "expected 'obj', got %s" t

let parse src =
  String.split_on_char '\n' src
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (i, l) -> if l = "" then None else parse_line i l)

(* Two passes: objects are created with their non-reference slots, then
   references are patched once every target exists. *)
let load_into_uninstrumented db src =
  let objs = parse src in
  (* pre-size the OID table: growing a 64-bucket table through a
     million inserts rehashes every element ~14 times *)
  Database.reserve db (List.length objs);
  let oids =
    List.map
      (fun p ->
        let plain =
          List.filter
            (fun (_, v) -> match (v : Value.t) with Ref _ -> false | _ -> true)
            p.p_slots
        in
        let oid =
          try Database.restore_object db ~oid:(Oid.of_int p.p_oid) ~ty:p.p_ty ~init:plain
          with Database.Store_error m -> fail p.p_line "%s" m
        in
        oid)
      objs
  in
  List.iter
    (fun p ->
      List.iter
        (fun (a, v) ->
          match (v : Value.t) with
          | Ref _ -> (
              try Database.set_attr db (Oid.of_int p.p_oid) a v
              with Database.Store_error m -> fail p.p_line "%s" m)
          | _ -> ())
        p.p_slots)
    objs;
  oids

let load_into db src =
  Obs.Metrics.time m_load_ns (fun () ->
      Obs.Trace.with_span "dump.load" (fun () ->
          load_into_uninstrumented db src))

(* ---- snapshot files ------------------------------------------------ *)

(* Fsync a directory so a just-completed [Sys.rename] inside it is
   itself durable: POSIX only guarantees the rename survives a crash
   once the parent directory's metadata hits disk.  Best-effort — some
   filesystems refuse fsync on a directory fd (EINVAL), which means the
   platform already orders the metadata for us. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* A crash between writing [path ^ ".tmp"] and renaming it over [path]
   strands the temporary sibling forever; nothing must ever read it as
   a snapshot.  [clean_tmp] removes it (store init/recover call this). *)
let clean_tmp ~path =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then begin
    Sys.remove tmp;
    true
  end
  else false

let wal_seq_header = "-- wal-seq: "
let txn_seq_header = "-- txn-seq: "

(* Scan the leading comment lines for a numeric header.  Headers only
   ever appear at the top, before the first object line. *)
let header_value header src =
  let hl = String.length header in
  let rec go pos =
    if pos >= String.length src then 0
    else
      let nl =
        match String.index_from_opt src pos '\n' with
        | Some i -> i
        | None -> String.length src
      in
      let line = String.sub src pos (nl - pos) in
      if String.length line >= 2 && String.sub line 0 2 = "--" then
        if String.length line > hl && String.sub line 0 hl = header then
          match int_of_string_opt (String.sub line hl (String.length line - hl)) with
          | Some n -> n
          | None -> 0
        else go (nl + 1)
      else 0
  in
  go 0

let wal_seq src = header_value wal_seq_header src
let txn_seq src = header_value txn_seq_header src

(* Atomic snapshot: write to a temporary sibling, fsync, rename over
   the target, then fsync the parent directory — without the last step
   a crash after checkpoint-then-truncate can lose the rename itself
   and with it the snapshot.  The [txn_seq] header records the last
   transaction-log sequence number folded into the snapshot ([wal_seq]
   the same for a legacy wal.log); recovery skips records at or below them, which makes the
   checkpoint-then-truncate sequence crash-safe at every point. *)
let save ?(wal_seq = 0) ?(txn_seq = 0) ~path db =
  Obs.Metrics.time m_save_ns (fun () ->
      Obs.Trace.with_span "dump.save" (fun () ->
          let tmp = path ^ ".tmp" in
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              if wal_seq > 0 then
                output_string oc (Fmt.str "%s%d\n" wal_seq_header wal_seq);
              if txn_seq > 0 then
                output_string oc (Fmt.str "%s%d\n" txn_seq_header txn_seq);
              output_string oc (to_string db);
              flush oc;
              Unix.fsync (Unix.descr_of_out_channel oc));
          Sys.rename tmp path;
          fsync_dir (Filename.dirname path)))
