(* odb — command-line front end for the type-derivation library.

     odb [--metrics[=pretty|json]] [--trace FILE] COMMAND ...

     odb check schema.odb [--json]
     odb lint schema.odb [--json] [--code TDPxxx]
     odb infer schema.odb [--json]
     odb repl TARGET [--script FILE] [--json]
     odb apply schema.odb [--collapse] [--print | --dot] [--json]
     odb methods schema.odb --source T --attrs a,b,c [--trace] [--json]
     odb dispatch schema.odb --gf f --args T1,T2 [--all] [--json]
     odb query schema.odb data.odd --view V [--json]
     odb store ACTION dir [--schema FILE] [--script FILE] [--json]
     odb serve dir [--socket PATH | --tcp HOST:PORT] [--domains N] [--no-sync]
     odb connect dir|socket [--tcp HOST:PORT] [--json]
     odb dot schema.odb [--json]
     odb stats [FILE]

   Schema files use the surface syntax of Tdp_lang (see README.md).

   Conventions (docs/cli.md):
   - exit 0 = success, 1 = the command ran and found something to
     report (lint errors, corruption, an unresolvable call), 2 = usage
     or operational error;
   - every subcommand accepts [--json] and then prints exactly one
     envelope line {"command","status","exit","data"} on stdout;
   - the global observability flags come before the subcommand:
     [--metrics] enables the Tdp_obs registry (pretty table on stderr
     at exit; [--metrics=json] prints the metrics envelope on stdout
     instead), [--trace FILE] streams spans to FILE as JSON lines. *)

open Tdp_core
module Elaborate = Tdp_lang.Elaborate
module Printer = Tdp_lang.Printer
module Session = Tdp_lang.Session
module Repl = Tdp_lang.Repl
module Optimize = Tdp_algebra.Optimize
module Static_check = Tdp_dispatch.Static_check
module Dispatch = Tdp_dispatch.Dispatch
module Diagnostic = Tdp_analysis.Diagnostic
module Lint = Tdp_analysis.Lint
module Infer = Tdp_infer.Infer
module Obs = Tdp_obs
module J = Tdp_obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- envelope and exit-code convention ------------------------------ *)

(* Set by each subcommand on entry so that [die] can honor --json. *)
let json_mode = ref false
let command_name = ref "odb"

let setup name json =
  command_name := name;
  json_mode := json

let exit_of = function `Ok -> 0 | `Findings -> 1 | `Error -> 2

let status_name = function
  | `Ok -> "ok"
  | `Findings -> "findings"
  | `Error -> "error"

let envelope status data =
  J.Obj
    [ ("command", J.String !command_name);
      ("status", J.String (status_name status));
      ("exit", J.Int (exit_of status));
      ("data", data)
    ]

(* Every subcommand returns through here: in --json mode the envelope
   is the command's entire stdout. *)
let finish ?(data = J.Obj []) status =
  if !json_mode then print_endline (J.to_string (envelope status data));
  exit_of status

let error_message ?file e =
  match (file, Error.position e) with
  | Some f, Some (l, c) -> Fmt.str "%s:%d:%d: %s" f l c (Error.message e)
  | Some f, None -> Fmt.str "%s: %s" f (Error.message e)
  | None, _ -> Fmt.str "%a" Error.pp e

let die_msg msg =
  if !json_mode then
    print_endline
      (J.to_string (envelope `Error (J.Obj [ ("error", J.String msg) ])))
  else Fmt.epr "error: %s@." msg;
  exit 2

let die ?file e = die_msg (error_message ?file e)
let or_die ?file = function Ok v -> v | Error e -> die ?file e
let load path = or_die ~file:path (Elaborate.load (read_file path))

let summary schema =
  let h = Schema.hierarchy schema in
  let surrogates =
    Hierarchy.fold (fun d n -> if Type_def.is_surrogate d then n + 1 else n) h 0
  in
  Fmt.pr "types: %d (%d surrogates)  generic functions: %d  methods: %d@."
    (Hierarchy.cardinal h) surrogates
    (List.length (Schema.gfs schema))
    (List.length (Schema.all_methods schema))

let summary_fields schema =
  let h = Schema.hierarchy schema in
  let surrogates =
    Hierarchy.fold (fun d n -> if Type_def.is_surrogate d then n + 1 else n) h 0
  in
  [ ("types", J.Int (Hierarchy.cardinal h));
    ("surrogates", J.Int surrogates);
    ("generic_functions", J.Int (List.length (Schema.gfs schema)));
    ("methods", J.Int (List.length (Schema.all_methods schema)))
  ]

let key_str k = Fmt.str "%a" Method_def.Key.pp k
let key_list s = J.List (List.map (fun k -> J.String (key_str k)) (Method_def.Key.Set.elements s))

(* --- check --------------------------------------------------------- *)

(* Checking, inference and dispatch resolution all evaluate through
   {!Session} one-shot helpers: the outcome structure, its text form
   and its JSON payload live in lib/lang, shared verbatim with the repl
   and the server's [eval] verb.  This command only maps outcomes to
   the envelope/exit conventions. *)

let check_cmd file json =
  setup "check" json;
  let o = Session.check_source ~file (read_file file) in
  let status = if Session.failed o then `Findings else `Ok in
  if json then finish status ~data:(Session.to_json o)
  else begin
    (match status with
    | `Ok -> Fmt.pr "%s@." (Session.render o)
    | _ -> Fmt.epr "%s@." (Session.render o));
    exit_of status
  end

(* --- lint ---------------------------------------------------------- *)

let lint_cmd file json code =
  setup "lint" json;
  (match code with
  | Some c when not (List.exists (fun (c', _, _) -> c' = c) Lint.codes) ->
      die_msg (Fmt.str "unknown diagnostic code %s (see docs/diagnostics.md)" c)
  | _ -> ());
  let diags =
    match Elaborate.load_unchecked (read_file file) with
    | Error e -> [ Lint.of_error ~file e ]
    | Ok r ->
        Lint.lint_program ~file ~positions:r.view_positions r.schema
          ~views:r.views
  in
  let diags =
    match code with
    | None -> diags
    | Some c -> List.filter (fun (d : Diagnostic.t) -> d.code = c) diags
  in
  let errors, warnings, infos = Diagnostic.count diags in
  let status = if List.exists Diagnostic.is_error diags then `Findings else `Ok in
  if json then
    let diag_json d =
      (* Diagnostic.to_json emits one object per diagnostic; embed it
         structurally rather than as an opaque string *)
      match J.parse (Diagnostic.to_json d) with
      | Ok j -> j
      | Error _ -> J.String (Diagnostic.to_json d)
    in
    finish status
      ~data:
        (J.Obj
           [ ("file", J.String file);
             ("diagnostics", J.List (List.map diag_json diags));
             ("errors", J.Int errors);
             ("warnings", J.Int warnings);
             ("infos", J.Int infos)
           ])
  else begin
    List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) diags;
    if diags = [] then Fmt.pr "no issues found.@."
    else Fmt.pr "%d error(s), %d warning(s), %d info@." errors warnings infos;
    exit_of status
  end

(* --- infer --------------------------------------------------------- *)

let infer_cmd file json =
  setup "infer" json;
  match Session.infer_source ~file (read_file file) with
  (* an unparseable schema is a usage error here, as everywhere the
     schema is an input rather than the thing under test *)
  | Session.Diag _ as o -> die_msg (Session.render o)
  | o ->
      let status = if Session.failed o then `Findings else `Ok in
      if json then finish status ~data:(Session.to_json o)
      else begin
        Fmt.pr "%s@." (Session.render o);
        exit_of status
      end

(* --- apply --------------------------------------------------------- *)

let apply_cmd file collapse print_schema dot show_diff json =
  setup "apply" json;
  let r = load file in
  let schema, derived = or_die (Elaborate.apply_views r) in
  let diff_str =
    if show_diff then
      Some (Fmt.str "@[<v>%a@]" Diff.pp (Diff.schema_changes r.schema schema))
    else None
  in
  let schema, collapsed =
    if collapse then begin
      let protect = Type_name.Set.of_list (List.map snd derived) in
      let collapsed, removed = or_die (Optimize.collapse ~protect schema) in
      (collapsed, Some (List.length removed))
    end
    else (schema, None)
  in
  let view_attrs ty_ =
    Hierarchy.all_attribute_names (Schema.hierarchy schema) ty_
  in
  if json then
    finish `Ok
      ~data:
        (J.Obj
           (("file", J.String file)
           :: ("views",
               J.List
                 (List.map
                    (fun (name, ty_) ->
                      J.Obj
                        [ ("name", J.String name);
                          ("type", J.String (Type_name.to_string ty_));
                          ("attrs",
                           J.List
                             (List.map
                                (fun a -> J.String (Attr_name.to_string a))
                                (view_attrs ty_)))
                        ])
                    derived))
           :: summary_fields schema
           @ (match collapsed with
             | Some n -> [ ("collapsed", J.Int n) ]
             | None -> [])
           @ (match diff_str with
             | Some d -> [ ("diff", J.String d) ]
             | None -> [])
           @ (if print_schema then [ ("schema", J.String (Printer.print schema)) ] else [])
           @
           if dot then
             [ ("dot", J.String (Dot.of_hierarchy ~name:file (Schema.hierarchy schema))) ]
           else []))
  else begin
    (match diff_str with Some d -> Fmt.pr "%s@." d | None -> ());
    List.iter
      (fun (name, ty_) ->
        Fmt.pr "view %-16s -> %s {%s}@." name (Type_name.to_string ty_)
          (String.concat ", " (List.map Attr_name.to_string (view_attrs ty_))))
      derived;
    (match collapsed with
    | Some n -> Fmt.pr "collapsed %d empty surrogates@." n
    | None -> ());
    summary schema;
    if print_schema then Fmt.pr "@.%s" (Printer.print schema);
    if dot then Fmt.pr "@.%s" (Dot.of_hierarchy ~name:file (Schema.hierarchy schema));
    0
  end

(* --- methods ------------------------------------------------------- *)

let methods_cmd file source attrs trace explain json =
  setup "methods" json;
  let r = load file in
  let projection = List.map Attr_name.of_string attrs in
  let source = Type_name.of_string source in
  let analysis = or_die (Applicability.analyze r.schema ~source ~projection) in
  if json then
    finish `Ok
      ~data:
        (J.Obj
           ([ ("file", J.String file);
              ("source", J.String (Type_name.to_string source));
              ("projection", J.List (List.map (fun a -> J.String (Attr_name.to_string a)) projection));
              ("applicable", key_list analysis.applicable);
              ("not_applicable", key_list analysis.not_applicable);
              ("candidates", key_list analysis.candidates);
              ("passes", J.Int analysis.passes)
            ]
           @ (if trace then
                [ ("trace",
                   J.List
                     (List.map
                        (fun e -> J.String (Fmt.str "%a" Applicability.pp_event e))
                        analysis.trace))
                ]
              else [])
           @
           if explain then
             [ ("explanations",
                J.Obj
                  (List.map
                     (fun k ->
                       ( key_str k,
                         J.String
                           (Applicability.explain r.schema analysis ~source
                              ~projection k) ))
                     (Method_def.Key.Set.elements analysis.candidates)))
             ]
           else []))
  else begin
    if trace then
      List.iter (fun e -> Fmt.pr "  %a@." Applicability.pp_event e) analysis.trace;
    Fmt.pr "%a@." Applicability.pp_result analysis;
    if explain then
      Method_def.Key.Set.iter
        (fun k ->
          Fmt.pr "  %s@." (Applicability.explain r.schema analysis ~source ~projection k))
        analysis.candidates;
    0
  end

(* --- dispatch ------------------------------------------------------ *)

let dispatch_cmd file apply_views gf args all json =
  setup "dispatch" json;
  let r = load file in
  let schema =
    if apply_views then fst (or_die (Elaborate.apply_views r)) else r.schema
  in
  let arg_types = List.map Type_name.of_string args in
  match Session.resolve_call ~file schema ~gf ~arg_types ~chain:all with
  (* an unknown argument type is a usage error (TDP051), like check's
     and infer's unparseable schema *)
  | Session.Diag _ as o -> die_msg (Session.render o)
  | o ->
      let status = if Session.failed o then `Findings else `Ok in
      if json then finish status ~data:(Session.to_json o)
      else begin
        (match status with
        | `Ok -> Fmt.pr "%s@." (Session.render o)
        | _ -> Fmt.epr "%s@." (Session.render o));
        exit_of status
      end

(* --- query --------------------------------------------------------- *)

let query_cmd schema_file data_file view_name materialize json =
  setup "query" json;
  let r = load schema_file in
  let schema, _derived = or_die (Elaborate.apply_views r) in
  let expr =
    match List.assoc_opt view_name r.views with
    | Some e -> e
    | None -> die_msg (Fmt.str "no view named %S in %s" view_name schema_file)
  in
  let db = Tdp_store.Database.create schema in
  (try ignore (Tdp_store.Dump.load_into db (read_file data_file)) with
  | Tdp_store.Dump.Parse_error { line; message } ->
      die_msg (Fmt.str "%s:%d: %s" data_file line message)
  | Tdp_store.Database.Store_error m -> die_msg m);
  let h = Schema.hierarchy schema in
  let view_type = Type_name.of_string view_name in
  let attrs = Hierarchy.all_attribute_names h view_type in
  let oids =
    if materialize then Tdp_algebra.View.materialize db ~view_type expr
    else Tdp_algebra.View.instances db expr
  in
  if json then
    finish `Ok
      ~data:
        (J.Obj
           [ ("view", J.String view_name);
             ("count", J.Int (List.length oids));
             ("instances",
              J.List
                (List.map
                   (fun oid ->
                     J.Obj
                       [ ("oid", J.String (Fmt.str "%a" Tdp_store.Oid.pp oid));
                         ("type",
                          J.String
                            (Type_name.to_string (Tdp_store.Database.type_of db oid)));
                         ("attrs",
                          J.Obj
                            (List.map
                               (fun a ->
                                 ( Attr_name.to_string a,
                                   J.String
                                     (Tdp_store.Dump.value_to_string
                                        (Tdp_store.Database.get_attr db oid a)) ))
                               attrs))
                       ])
                   oids))
           ])
  else begin
    List.iter
      (fun oid ->
        Fmt.pr "%s %s" (Fmt.str "%a" Tdp_store.Oid.pp oid)
          (Type_name.to_string (Tdp_store.Database.type_of db oid));
        List.iter
          (fun a ->
            Fmt.pr " %s=%s" (Attr_name.to_string a)
              (Tdp_store.Dump.value_to_string (Tdp_store.Database.get_attr db oid a)))
          attrs;
        Fmt.pr "@.")
      oids;
    Fmt.pr "%d instance(s) of view %s@." (List.length oids) view_name;
    0
  end

(* --- store --------------------------------------------------------- *)

(* A durable store directory:

     DIR/schema.odb     surface-syntax schema (copied at init)
     DIR/snapshot.dump  latest atomic snapshot (Dump.save)
     DIR/txn.log        transaction log of commits since the snapshot

   The same files `odb serve` runs on: append and checkpoint open the
   directory for writing (Mvcc.open_dir, which holds the txn.log lock,
   so they fail while a server holds it), the other actions only read
   (Mvcc.recover_text).  Mutation scripts use the op grammar of the
   log's op records, one op per line; each op is committed as a
   one-op transaction:

     new #1 Employee ssn=1 name="alice"
     set #1 pay_rate=60.0
     del #1 nullify
     schema "type ..."                       -- swap in an evolved schema *)

module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Wal = Tdp_store.Wal
module Mvcc = Tdp_txn.Mvcc

type store_action = Init | Append | Recover | Checkpoint | Verify | DumpDb | Stats

let store_schema_loader src = (Elaborate.load_exn src).Elaborate.schema

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let pp_corruption log ppf (c : Wal.corruption) =
  Fmt.pf ppf "%s corrupt at byte %d (expected seq %d): %s" log c.offset c.at_seq
    c.reason

(* a legacy wal.log fold and txn.log replay each keep the prefix before
   their damage *)
let corruptions (o : Mvcc.opened) =
  List.filter_map
    (fun (log, c) -> Option.map (fun c -> (log, c)) c)
    [ (Mvcc.wal_file, o.legacy_corruption); (Mvcc.txn_file, o.txn_corruption) ]

let corruption_json = function
  | None -> J.Null
  | Some (c : Wal.corruption) ->
      J.Obj
        [ ("at_seq", J.Int c.at_seq);
          ("offset", J.Int c.offset);
          ("reason", J.String c.reason)
        ]

let parse_script file =
  read_file file
  |> String.split_on_char '\n'
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (i, l) ->
         if l = "" || (String.length l >= 2 && String.sub l 0 2 = "--") then None
         else Some (Wal.payload_of_string ~line:i l))

(* warnings go to stderr in both modes; the envelope carries the
   structured corruption record *)
let warn_corruption (o : Mvcc.opened) =
  List.iter
    (fun (log, c) ->
      Fmt.epr "warning: %a; recovered the prefix before it@." (pp_corruption log) c)
    (corruptions o);
  if o.tmp_removed then
    Fmt.epr "warning: removed orphaned snapshot .tmp (crashed checkpoint)@."

let store_cmd action dir schema_file script_file json =
  setup "store" json;
  let in_dir = Filename.concat dir in
  let schema_path = in_dir "schema.odb" in
  let contents name =
    if Sys.file_exists (in_dir name) then Some (read_file (in_dir name)) else None
  in
  let load_schema () =
    (or_die ~file:schema_path (Elaborate.load (read_file schema_path))).schema
  in
  let open_dir () =
    let o = Mvcc.open_dir ~load_schema:store_schema_loader ~schema:(load_schema ()) dir in
    warn_corruption o;
    o
  in
  let head (o : Mvcc.opened) = Mvcc.head o.store ~branch:Mvcc.main_branch in
  let snapshot_seq () =
    Option.fold ~none:0 ~some:Dump.txn_seq (contents Mvcc.snapshot_file)
  in
  let recovery_fields (o : Mvcc.opened) =
    [ ("objects", J.Int (Mvcc.count (head o)));
      ("snapshot_seq", J.Int (snapshot_seq ()));
      ("replayed", J.Int o.txn_applied);
      ("last_seq", J.Int (o.txn_next_seq - 1));
      ("tmp_removed", J.Bool o.tmp_removed);
      ("corruption", corruption_json o.txn_corruption)
    ]
  in
  try
    match action with
    | Init ->
        let sf =
          match schema_file with
          | Some f -> f
          | None -> die_msg "odb store init requires --schema FILE"
        in
        let src = read_file sf in
        let r = or_die ~file:sf (Elaborate.load src) in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        (* a fresh, empty store: drop any previous contents, holding
           the directory's lock while doing so *)
        let w = Tdp_txn.Txn_log.writer_create ~path:(in_dir Mvcc.txn_file) ~next_seq:1 () in
        Fun.protect
          ~finally:(fun () -> Wal.close w)
          (fun () ->
            write_file schema_path src;
            Dump.save ~path:(in_dir Mvcc.snapshot_file) (Database.create r.schema);
            let legacy = in_dir Mvcc.wal_file in
            if Sys.file_exists legacy then Sys.remove legacy);
        let types = Hierarchy.cardinal (Schema.hierarchy r.schema) in
        if json then
          finish `Ok
            ~data:(J.Obj [ ("dir", J.String dir); ("types", J.Int types) ])
        else begin
          Fmt.pr "initialized %s (%d types, empty extent)@." dir types;
          0
        end
    | Append ->
        let sf =
          match script_file with
          | Some f -> f
          | None -> die_msg "odb store append requires --script FILE"
        in
        let ops = parse_script sf in
        let o = open_dir () in
        Fun.protect
          ~finally:(fun () -> Mvcc.close o.store)
          (fun () ->
            List.iter
              (fun op ->
                let t = Mvcc.begin_ o.store in
                Mvcc.stage t op;
                match Mvcc.commit t with
                | Ok _ -> ()
                | Error e -> raise (Database.Store_error (Mvcc.commit_error_message e)))
              ops;
            let objects = Mvcc.count (head o) and last_seq = Mvcc.log_seq o.store in
            if json then
              finish `Ok
                ~data:
                  (J.Obj
                     [ ("applied", J.Int (List.length ops));
                       ("objects", J.Int objects);
                       ("last_seq", J.Int last_seq)
                     ])
            else begin
              Fmt.pr "applied %d operation(s); %d object(s), txn.log at seq %d@."
                (List.length ops) objects last_seq;
              0
            end)
    | Checkpoint ->
        let o = open_dir () in
        Fun.protect
          ~finally:(fun () -> Mvcc.close o.store)
          (fun () ->
            Mvcc.checkpoint o.store;
            if json then finish `Ok ~data:(J.Obj (recovery_fields o))
            else begin
              Fmt.pr "checkpointed %d object(s) at seq %d@." (Mvcc.count (head o))
                (snapshot_seq ());
              0
            end)
    | (Recover | Verify | DumpDb | Stats) as action -> (
        let o =
          Mvcc.recover_text ~load_schema:store_schema_loader ~schema:(load_schema ())
            ?snapshot:(contents Mvcc.snapshot_file) ?wal:(contents Mvcc.wal_file)
            ?txn:(contents Mvcc.txn_file) ()
        in
        if action <> Verify then warn_corruption o;
        let snap = head o in
        match action with
        | Verify ->
            let status = if corruptions o = [] then `Ok else `Findings in
            if json then
              finish status
                ~data:
                  (J.Obj
                     [ ("objects", J.Int (Mvcc.count snap));
                       ("snapshot_seq", J.Int (snapshot_seq ()));
                       ("txn_applied", J.Int o.txn_applied);
                       ("txn_discarded", J.Int o.txn_discarded);
                       ("valid_bytes", J.Int o.txn_valid_bytes);
                       ("next_seq", J.Int o.txn_next_seq);
                       ("corruption", corruption_json o.txn_corruption);
                       ("legacy_corruption", corruption_json o.legacy_corruption)
                     ])
            else begin
              Fmt.pr "snapshot: txn-seq %d; %d object(s) recovered@." (snapshot_seq ())
                (Mvcc.count snap);
              Fmt.pr
                "txn.log: %d committed txn(s), %d dangling, %d byte(s) valid, next seq %d@."
                o.txn_applied o.txn_discarded o.txn_valid_bytes o.txn_next_seq;
              (match corruptions o with
              | [] -> Fmt.pr "ok.@."
              | cs -> List.iter (fun (log, c) -> Fmt.pr "%a@." (pp_corruption log) c) cs);
              exit_of status
            end
        | Recover ->
            if json then finish `Ok ~data:(J.Obj (recovery_fields o))
            else begin
              Fmt.pr "recovered %d object(s): snapshot seq %d + %d txn(s), last seq %d@."
                (Mvcc.count snap) (snapshot_seq ()) o.txn_applied (o.txn_next_seq - 1);
              0
            end
        | DumpDb ->
            let text = Mvcc.dump snap in
            if json then
              finish `Ok ~data:(J.Obj (recovery_fields o @ [ ("dump", J.String text) ]))
            else begin
              print_string text;
              0
            end
        | Stats ->
            (* storage-layout statistics of the recovered store: one
               line per columnar block *)
            let db = Mvcc.to_database snap in
            let stats = Database.stats db in
            if json then
              finish `Ok
                ~data:
                  (J.Obj
                     [ ("objects", J.Int (Database.count db));
                       ("blocks", J.Int (List.length stats));
                       ( "block_stats",
                         J.List
                           (List.map
                              (fun (s : Database.block_stat) ->
                                J.Obj
                                  [ ("type", J.String (Type_name.to_string s.st_ty));
                                    ("live", J.Int s.st_live);
                                    ("rows", J.Int s.st_rows);
                                    ("capacity", J.Int s.st_capacity);
                                    ("free", J.Int s.st_free);
                                    ("columns", J.Int s.st_columns)
                                  ])
                              stats) )
                     ])
            else begin
              Fmt.pr "%d object(s) in %d block(s)@." (Database.count db)
                (List.length stats);
              List.iter
                (fun (s : Database.block_stat) ->
                  Fmt.pr "%s: %d live, %d rows, capacity %d, %d free, %d column(s)@."
                    (Type_name.to_string s.st_ty) s.st_live s.st_rows
                    s.st_capacity s.st_free s.st_columns)
                stats;
              0
            end
        | Init | Append | Checkpoint -> assert false)
  with
  | Database.Store_error m -> die_msg m
  | Dump.Parse_error { line; message } -> die_msg (Fmt.str "line %d: %s" line message)
  | Wal.Wal_error m -> die_msg m

(* --- repl ----------------------------------------------------------- *)

(* `odb repl TARGET` — the interactive statement language over either a
   schema file (a fresh in-memory store, the file's views predefined)
   or a store directory.  Directory recovery goes through
   [Mvcc.recover_text] — the repl sees what `odb serve` would
   serve.  Mutations stay in memory — durable writes go through
   `odb connect` and the server's `eval` verb.  With --script the
   input is replayed with prompts and lines echoed, so the transcript
   is deterministic — the golden corpus under test/golden/repl/. *)

let repl_session target =
  if Sys.file_exists target && Sys.is_directory target then begin
    let schema_path = Filename.concat target "schema.odb" in
    if not (Sys.file_exists schema_path) then
      die_msg (Fmt.str "%s not found (run odb store init first)" schema_path);
    let schema =
      (or_die ~file:schema_path (Elaborate.load (read_file schema_path))).Elaborate.schema
    in
    let contents name =
      let f = Filename.concat target name in
      if Sys.file_exists f then Some (read_file f) else None
    in
    let module M = Tdp_txn.Mvcc in
    let o =
      M.recover_text ~load_schema:store_schema_loader ~schema
        ?snapshot:(contents M.snapshot_file) ?wal:(contents M.wal_file)
        ?txn:(contents M.txn_file) ()
    in
    let db = M.to_database (M.head o.M.store ~branch:M.main_branch) in
    Session.of_database ~file:target db
  end
  else begin
    let r = or_die ~file:target (Elaborate.load (read_file target)) in
    let s = Session.of_database ~file:target (Database.create r.Elaborate.schema) in
    (try Session.install_views s r.Elaborate.views
     with Error.E e -> die ~file:target e);
    s
  end

let repl_cmd target script json =
  setup "repl" json;
  let session = try repl_session target with Database.Store_error m -> die_msg m in
  match script with
  | None ->
      if json then
        die_msg "--json requires --script FILE (an interactive repl has no envelope)";
      Repl.run ~interactive:true session stdin stdout;
      0
  | Some f ->
      if json then begin
        let outcomes = Session.eval_string session (read_file f) in
        let status =
          if List.exists Session.failed outcomes then `Findings else `Ok
        in
        finish status
          ~data:
            (J.Obj
               [ ("target", J.String target);
                 ("script", J.String f);
                 ("outcomes", J.List (List.map Session.to_json outcomes))
               ])
      end
      else begin
        let ic = open_in f in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Repl.run ~echo:true session ic stdout);
        0
      end

(* --- serve / connect ------------------------------------------------ *)

module Server = Tdp_txn.Server

let default_socket dir = Filename.concat dir "odb.sock"

let parse_host_port spec =
  match String.rindex_opt spec ':' with
  | None -> die_msg (Fmt.str "expected HOST:PORT, got %s" spec)
  | Some i -> (
      let host = String.sub spec 0 i
      and port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | None -> die_msg (Fmt.str "bad port %s" port)
      | Some port -> (
          let host = if host = "" then "127.0.0.1" else host in
          match Unix.getaddrinfo host (string_of_int port)
                  [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
          with
          | { Unix.ai_addr; _ } :: _ -> ai_addr
          | [] -> die_msg (Fmt.str "cannot resolve %s" host)))

let sockaddr_string = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (addr, port) ->
      Fmt.str "%s:%d" (Unix.string_of_inet_addr addr) port

(* Run until SIGINT/SIGTERM, calling [tick] every [interval] seconds.
   The handlers go in before [ready] prints the readiness line (stdout
   is the readiness signal for scripts that spawn us), so a signal sent
   as soon as that line appears is caught, never fatal. *)
let until_signal ~interval ~tick ready =
  let stop = Atomic.make false in
  let on_signal _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  ready ();
  flush stdout;
  while not (Atomic.get stop) do
    tick ();
    Unix.sleepf interval
  done

(* `odb serve DIR` — recover the transactional store in DIR and serve
   it until SIGINT/SIGTERM.  Commits are write-ahead logged to
   DIR/txn.log; crash recovery replays committed brackets only. *)
let serve_cmd dir socket tcp domains no_sync json =
  setup "serve" json;
  let schema_path = Filename.concat dir "schema.odb" in
  if not (Sys.file_exists schema_path) then
    die_msg (Fmt.str "%s not found (run odb store init first)" schema_path);
  let schema =
    (or_die ~file:schema_path (Elaborate.load (read_file schema_path))).schema
  in
  let addr =
    match (socket, tcp) with
    | Some _, Some _ -> die_msg "--socket and --tcp are mutually exclusive"
    | None, Some spec -> parse_host_port spec
    | Some path, None -> Unix.ADDR_UNIX path
    | None, None -> Unix.ADDR_UNIX (default_socket dir)
  in
  try
    let o =
      Mvcc.open_dir ~load_schema:store_schema_loader ~sync:(not no_sync)
        ~schema dir
    in
    warn_corruption o;
    let store = o.Mvcc.store in
    let srv =
      Server.start ?domains ~store addr
    in
    let bound = sockaddr_string (Server.sockaddr srv) in
    let head = Mvcc.head store ~branch:Mvcc.main_branch in
    until_signal ~interval:0.1 ~tick:ignore (fun () ->
        if json then
          print_endline
            (J.to_string
               (envelope `Ok
                  (J.Obj
                     [ ("dir", J.String dir);
                       ("listening", J.String bound);
                       ("objects", J.Int (Mvcc.count head));
                       ("version", J.Int (Mvcc.version head));
                       ("txn_applied", J.Int o.Mvcc.txn_applied);
                       ("txn_discarded", J.Int o.Mvcc.txn_discarded)
                     ])))
        else
          Fmt.pr "serving %s on %s (%d object(s), version %d, %d txn(s) replayed)@."
            dir bound (Mvcc.count head) (Mvcc.version head) o.Mvcc.txn_applied);
    Server.stop srv;
    Mvcc.close store;
    if not json then Fmt.pr "shut down.@.";
    0
  with
  | Database.Store_error m -> die_msg m
  | Wal.Wal_error m -> die_msg m
  | Unix.Unix_error (e, fn, arg) ->
      die_msg (Fmt.str "%s %s: %s" fn arg (Unix.error_message e))

(* `odb connect TARGET` — a scripting client: one request line per
   stdin line, one response line per stdout line.  TARGET is a store
   directory (implying DIR/odb.sock), a socket path, or HOST:PORT with
   --tcp. *)
let connect_cmd target tcp json =
  setup "connect" json;
  let addr =
    match (target, tcp) with
    | Some _, Some _ -> die_msg "TARGET and --tcp are mutually exclusive"
    | None, Some spec -> parse_host_port spec
    | Some t, None ->
        if Sys.file_exists t && Sys.is_directory t then
          Unix.ADDR_UNIX (default_socket t)
        else Unix.ADDR_UNIX t
    | None, None -> die_msg "odb connect requires a TARGET (directory or socket) or --tcp HOST:PORT"
  in
  match Server.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
      die_msg
        (Fmt.str "cannot connect to %s: %s" (sockaddr_string addr)
           (Unix.error_message e))
  | client ->
      let exchanges = ref [] in
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line when String.trim line = "" -> loop ()
        | Some line -> (
            match Server.request client (String.trim line) with
            | exception End_of_file ->
                if not json then Fmt.epr "error: server closed the connection@."
            | resp ->
                if json then exchanges := (String.trim line, resp) :: !exchanges
                else print_endline resp;
                loop ())
      in
      Fun.protect ~finally:(fun () -> Server.close_client client) loop;
      if json then
        finish `Ok
          ~data:
            (J.Obj
               [ ("target", J.String (sockaddr_string addr));
                 ("exchanges",
                  J.List
                    (List.rev_map
                       (fun (req, resp) ->
                         J.Obj
                           [ ("request", J.String req);
                             ("response", J.String resp)
                           ])
                       !exchanges))
               ])
      else 0

(* --- replicate / promote / route ------------------------------------ *)

module Replica = Tdp_replica.Replica
module Router = Tdp_replica.Router

(* `odb replicate PRIMARY_DIR` — bootstrap a read replica from the
   primary's snapshot, tail txn.log, and serve the applied
   state read-only.  With --save DIR the applied state is persisted as
   a store directory at startup and on clean shutdown — the input to
   `odb promote`. *)
let replicate_cmd primary_dir socket tcp save domains interval json =
  setup "replicate" json;
  let schema_path = Filename.concat primary_dir "schema.odb" in
  if not (Sys.file_exists schema_path) then
    die_msg
      (Fmt.str "%s not found (is %s a store directory?)" schema_path primary_dir);
  let schema =
    (or_die ~file:schema_path (Elaborate.load (read_file schema_path))).schema
  in
  let addr =
    match (socket, tcp) with
    | Some _, Some _ -> die_msg "--socket and --tcp are mutually exclusive"
    | None, Some spec -> parse_host_port spec
    | Some path, None -> Unix.ADDR_UNIX path
    | None, None -> Unix.ADDR_UNIX (Filename.concat primary_dir "replica.sock")
  in
  try
    let r =
      Replica.open_ ~load_schema:store_schema_loader ~schema primary_dir
    in
    let shipped = Replica.poll r in
    (match save with Some dir -> Replica.save r ~dir | None -> ());
    let info =
      { Server.ri_seq = (fun () -> Replica.applied_seq r);
        ri_lag = (fun () -> Replica.lag r)
      }
    in
    (* sessions pick up the replica's *current* store at connect time,
       so a resync (primary checkpointed past us) is visible to new
       connections; live sessions keep their snapshot-consistent view *)
    let srv =
      Server.start_handler ?domains
        (fun () ->
          Server.store_handler ~mode:(Server.Read_only info)
            ~store:(Replica.store r) ())
        addr
    in
    let bound = sockaddr_string (Server.sockaddr srv) in
    let txn_seq = Replica.applied_seq r in
    let warned = ref false in
    let tick () =
      ignore (Replica.poll r);
      match Replica.status r with
      | Replica.Halted reason when not !warned ->
          warned := true;
          Fmt.epr
            "warning: replication halted: %s (still serving the last applied \
             state)@."
            reason
      | _ -> ()
    in
    until_signal ~interval ~tick (fun () ->
        if json then
          print_endline
            (J.to_string
               (envelope `Ok
                  (J.Obj
                     [ ("primary", J.String primary_dir);
                       ("listening", J.String bound);
                       ("txn_seq", J.Int txn_seq);
                       ("shipped", J.Int shipped)
                     ])))
        else
          Fmt.pr
            "replicating %s on %s (read-only; txn %d; %d record(s) shipped at \
             start)@."
            primary_dir bound txn_seq shipped);
    Server.stop srv;
    (match save with Some dir -> Replica.save r ~dir | None -> ());
    Replica.close r;
    if not json then Fmt.pr "shut down.@.";
    0
  with
  | Database.Store_error m -> die_msg m
  | Wal.Wal_error m -> die_msg m
  | Unix.Unix_error (e, fn, arg) ->
      die_msg (Fmt.str "%s %s: %s" fn arg (Unix.error_message e))

(* `odb promote REPLICA_DIR --primary PRIMARY_DIR` — the failover
   judgement: exit 0 iff the saved replica state is exactly the
   primary's durable state (or a lag-forced prefix).  A diverged
   replica is always refused. *)
let promote_cmd replica_dir primary_dir allow_lag json =
  setup "promote" json;
  match Replica.promote ~allow_lag ~replica_dir ~primary_dir () with
  | exception Database.Store_error m -> die_msg m
  | exception Wal.Wal_error m -> die_msg m
  | Error e ->
      (* a refusal is the command doing its job — a domain report
         (exit 1), not a usage error *)
      let msg = Replica.promote_error_message e in
      let kind =
        match e with
        | Replica.Diverged _ -> "diverged"
        | Replica.Lagging _ -> "lagging"
        | Replica.Unpromotable _ -> "unpromotable"
      in
      if json then
        finish `Findings
          ~data:(J.Obj [ ("refused", J.String kind); ("reason", J.String msg) ])
      else begin
        Fmt.epr "refused: %s@." msg;
        1
      end
  | Ok p ->
      if json then
        finish `Ok
          ~data:
            (J.Obj
               [ ("replica_dir", J.String replica_dir);
                 ("primary_dir", J.String primary_dir);
                 ("replica_txn", J.Int p.Replica.replica_txn);
                 ("primary_ckpt_txn", J.Int p.primary_ckpt_txn);
                 ("primary_last_txn", J.Int p.primary_last_txn)
               ])
      else begin
        Fmt.pr
          "promotable: %s is at txn %d (primary durable tip: txn %d)@.serve it \
           as the new primary: odb serve %s@."
          replica_dir p.Replica.replica_txn p.primary_last_txn replica_dir;
        0
      end

(* `odb route LO-HI=TARGET...` — serve the OID-range router: point
   reads routed by OID, extent/count fanned out and merged. *)
let route_cmd specs socket tcp domains json =
  setup "route" json;
  let addr =
    match (socket, tcp) with
    | Some _, Some _ -> die_msg "--socket and --tcp are mutually exclusive"
    | None, Some spec -> parse_host_port spec
    | Some path, None -> Unix.ADDR_UNIX path
    | None, None ->
        die_msg "odb route requires --socket PATH or --tcp HOST:PORT to listen on"
  in
  let backends =
    List.map
      (fun spec ->
        match Router.backend_of_spec spec with
        | Ok b -> b
        | Error m -> die_msg m)
      specs
  in
  match Router.make backends with
  | Error m -> die_msg m
  | Ok router -> (
      try
        let srv = Router.start ?domains router addr in
        let bound = sockaddr_string (Server.sockaddr srv) in
        until_signal ~interval:0.1 ~tick:ignore (fun () ->
            if json then
              print_endline
                (J.to_string
                   (envelope `Ok
                      (J.Obj
                         [ ("listening", J.String bound);
                           ("backends",
                            J.List
                              (List.map
                                 (fun (b : Router.backend) -> J.String b.b_name)
                                 (Router.backends router)))
                         ])))
            else Fmt.pr "routing %d backend(s) on %s@." (List.length backends) bound);
        Server.stop srv;
        if not json then Fmt.pr "shut down.@.";
        0
      with Unix.Unix_error (e, fn, arg) ->
        die_msg (Fmt.str "%s %s: %s" fn arg (Unix.error_message e)))

(* --- dot ----------------------------------------------------------- *)

let dot_cmd file apply_views json =
  setup "dot" json;
  let r = load file in
  let schema =
    if apply_views then fst (or_die (Elaborate.apply_views r)) else r.schema
  in
  let dot = Dot.of_hierarchy ~name:file (Schema.hierarchy schema) in
  if json then finish `Ok ~data:(J.Obj [ ("dot", J.String dot) ])
  else begin
    Fmt.pr "%s" dot;
    0
  end

(* --- stats --------------------------------------------------------- *)

(* Pretty-print a metrics envelope (as produced by [--metrics=json] or
   by [bench --json] under "metrics").  Reads stdin when FILE is
   omitted, so `odb --metrics=json ... | odb stats` composes. *)
let stats_cmd file json =
  setup "stats" json;
  let src =
    match file with Some f -> read_file f | None -> In_channel.input_all stdin
  in
  match J.parse src with
  | Error msg -> die_msg (Fmt.str "invalid metrics JSON: %s" msg)
  | Ok j ->
      let snap = Obs.Metrics.of_json j in
      if json then finish `Ok ~data:(Obs.Metrics.to_json snap)
      else begin
        Fmt.pr "%a@." Obs.Metrics.pp snap;
        0
      end

(* --- global observability flags ------------------------------------- *)

let obs_metrics = ref `Off
let obs_trace = ref None

(* Strip the leading global flags (everything up to the subcommand
   name); flags after the subcommand belong to the subcommand — in
   particular `odb methods --trace` (the IsApplicable event trace) is
   unrelated to the global `odb --trace FILE`. *)
let split_global_flags argv =
  let rec go acc = function
    | [] -> List.rev acc
    | "--metrics" :: rest ->
        obs_metrics := `Pretty;
        go acc rest
    | arg :: rest when String.starts_with ~prefix:"--metrics=" arg -> (
        match String.sub arg 10 (String.length arg - 10) with
        | "pretty" ->
            obs_metrics := `Pretty;
            go acc rest
        | "json" ->
            obs_metrics := `Json;
            go acc rest
        | other ->
            Fmt.epr "odb: unknown metrics mode %S (expected pretty or json)@." other;
            exit 2)
    | "--trace" :: rest -> (
        match rest with
        | path :: rest ->
            obs_trace := Some path;
            go acc rest
        | [] ->
            Fmt.epr "odb: --trace requires a FILE argument@.";
            exit 2)
    | arg :: rest when String.starts_with ~prefix:"--trace=" arg ->
        obs_trace := Some (String.sub arg 8 (String.length arg - 8));
        go acc rest
    | rest -> List.rev_append acc rest
  in
  match Array.to_list argv with
  | [] -> argv
  | prog :: args -> Array.of_list (prog :: go [] args)

let obs_setup () =
  (match !obs_metrics with `Off -> () | `Pretty | `Json -> Obs.Metrics.enable ());
  match !obs_trace with
  | None -> ()
  | Some path -> Obs.Trace.set_sink (Obs.Sink.file path)

(* Runs via at_exit so the report survives mid-command [exit] calls
   (die, usage errors). *)
let obs_teardown () =
  (match !obs_metrics with
  | `Off -> ()
  | `Pretty -> Fmt.epr "%a@." Obs.Metrics.pp (Obs.Metrics.snapshot ())
  | `Json ->
      print_endline (J.to_string (Obs.Metrics.to_json (Obs.Metrics.snapshot ()))));
  Obs.Trace.close ()

(* --- cmdliner wiring ------------------------------------------------ *)

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Schema file.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print one JSON envelope line {\"command\",\"status\",\"exit\",\"data\"} \
           instead of human-readable output.")

let check_t =
  let doc = "Parse, validate and type-check a schema file." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const check_cmd $ file_arg $ json_flag)

let lint_t =
  let doc =
    "Run the static-analysis passes (body type checks, flow lints, schema \
     lints, projection pre-checks) and report structured diagnostics.  Exits \
     1 when any error-severity diagnostic fires."
  in
  let code =
    Arg.(
      value
      & opt (some string) None
      & info [ "code" ] ~docv:"TDPxxx" ~doc:"Only report diagnostics with this code.")
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const lint_cmd $ file_arg $ json_flag $ code)

let infer_t =
  let doc =
    "Infer the principal schema of every declared view pipeline: the weakest \
     requirements on its source types under which derivation succeeds, \
     independent of the concrete schema.  Each principal is then checked for \
     instantiation against the file's schema.  Exits 1 when any view is \
     ill-typed or not instantiated."
  in
  Cmd.v (Cmd.info "infer" ~doc) Term.(const infer_cmd $ file_arg $ json_flag)

let repl_t =
  let doc =
    "Run the interactive statement language (docs/language.md) over TARGET: \
     a schema file (fresh in-memory store, the file's views predefined) or \
     a store directory (the recovered snapshot+WAL state; mutations stay in \
     memory).  Reads statements from stdin with line editing and multi-line \
     continuation; with --script, replays FILE with prompts and input \
     echoed so the transcript is deterministic."
  in
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET" ~doc:"Schema file or store directory.")
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE" ~doc:"Replay statements from FILE instead of stdin.")
  in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const repl_cmd $ target $ script $ json_flag)

let apply_t =
  let doc = "Derive every declared view, refactoring the hierarchy." in
  let collapse =
    Arg.(value & flag & info [ "collapse" ] ~doc:"Collapse empty surrogates afterwards.")
  in
  let print_schema =
    Arg.(value & flag & info [ "print" ] ~doc:"Print the refactored schema.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Print the hierarchy as Graphviz DOT.") in
  let show_diff =
    Arg.(value & flag & info [ "diff" ] ~doc:"Print the structural changes made.")
  in
  Cmd.v (Cmd.info "apply" ~doc)
    Term.(const apply_cmd $ file_arg $ collapse $ print_schema $ dot $ show_diff $ json_flag)

let methods_t =
  let doc = "Classify method applicability for a projection (Section 4)." in
  let source =
    Arg.(
      required
      & opt (some string) None
      & info [ "source" ] ~docv:"TYPE" ~doc:"Source type of the projection.")
  in
  let attrs =
    Arg.(
      required
      & opt (some (list string)) None
      & info [ "attrs" ] ~docv:"ATTRS" ~doc:"Comma-separated projection list.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the IsApplicable event trace.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Explain every method's verdict.")
  in
  Cmd.v (Cmd.info "methods" ~doc)
    Term.(const methods_cmd $ file_arg $ source $ attrs $ trace $ explain $ json_flag)

let dispatch_t =
  let doc =
    "Resolve a generic-function call: print the most specific applicable \
     method (and, with --all, the full call-next-method chain).  Prints a \
     diagnostic and exits 1 when no method applies or the call is ambiguous."
  in
  let apply_views =
    Arg.(value & flag & info [ "apply-views" ] ~doc:"Derive views first.")
  in
  let gf =
    Arg.(
      required
      & opt (some string) None
      & info [ "gf" ] ~docv:"NAME" ~doc:"The generic function to dispatch.")
  in
  let args =
    Arg.(
      required
      & opt (some (list string)) None
      & info [ "args" ] ~docv:"TYPES" ~doc:"Comma-separated argument types.")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Print every applicable method, most specific first.")
  in
  Cmd.v (Cmd.info "dispatch" ~doc)
    Term.(const dispatch_cmd $ file_arg $ apply_views $ gf $ args $ all $ json_flag)

let query_t =
  let doc = "Evaluate a declared view over a data file (see Dump format)." in
  let data_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DATA" ~doc:"Data dump file.")
  in
  let view_name =
    Arg.(
      required
      & opt (some string) None
      & info [ "view" ] ~docv:"NAME" ~doc:"The declared view to evaluate.")
  in
  let materialize =
    Arg.(
      value & flag
      & info [ "materialize" ] ~doc:"Copy instances into the view type (fresh OIDs).")
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const query_cmd $ file_arg $ data_arg $ view_name $ materialize $ json_flag)

let store_t =
  let doc =
    "Operate a durable object store directory (snapshot + transaction log, \
     the files $(b,odb serve) runs on). $(b,init) creates DIR from --schema; \
     $(b,append) commits a --script of mutations, one transaction per op; \
     $(b,recover) replays snapshot+log and reports; $(b,checkpoint) folds \
     the log into a fresh atomic snapshot; $(b,verify) checks log \
     integrity (exit 1 on corruption); $(b,dump) prints the recovered \
     state; $(b,stats) prints columnar block-layout statistics.  \
     $(b,init), $(b,append) and $(b,checkpoint) fail while another process \
     (such as $(b,odb serve)) holds DIR."
  in
  let action =
    let actions =
      [ ("init", Init); ("append", Append); ("recover", Recover);
        ("checkpoint", Checkpoint); ("verify", Verify); ("dump", DumpDb);
        ("stats", Stats) ]
    in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION"
          ~doc:"One of init, append, recover, checkpoint, verify, dump, stats.")
  in
  let dir =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Store directory.")
  in
  let schema =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema" ] ~docv:"FILE" ~doc:"Schema file (init only).")
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Mutation script, one op per line (append only).")
  in
  Cmd.v (Cmd.info "store" ~doc)
    Term.(const store_cmd $ action $ dir $ schema $ script $ json_flag)

let serve_t =
  let doc =
    "Serve a transactional store directory to concurrent clients over a \
     line protocol (Unix socket by default, DIR/odb.sock).  Sessions get \
     snapshot isolation: each transaction works against an immutable \
     snapshot of its branch and commits with first-writer-wins conflict \
     detection; commits are write-ahead logged to DIR/txn.log.  Runs until \
     SIGINT/SIGTERM."
  in
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Store directory (odb store init).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path (default DIR/odb.sock).")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen on TCP instead of a Unix socket (port 0 picks one).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N" ~doc:"Accepter domains (default: derived from the core count).")
  in
  let no_sync =
    Arg.(
      value & flag
      & info [ "no-sync" ] ~doc:"Skip the per-commit fsync of the transaction log (faster, less durable).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve_cmd $ dir $ socket $ tcp $ domains $ no_sync $ json_flag)

let connect_t =
  let doc =
    "Connect to an odb server: each stdin line is sent as one request, each \
     response printed on stdout — the scripting and testing client.  TARGET \
     is a store directory (implying DIR/odb.sock) or a socket path."
  in
  let target =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc:"Store directory or Unix socket path.")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead.")
  in
  Cmd.v (Cmd.info "connect" ~doc) Term.(const connect_cmd $ target $ tcp $ json_flag)

let replicate_t =
  let doc =
    "Serve a read replica of a primary store directory: bootstrap from \
     DIR/snapshot.dump, tail DIR/txn.log record-at-a-time, \
     and serve the applied state read-only (mutating verbs are refused; \
     $(b,seq) and $(b,lag) report the shipping position).  With --save the \
     applied state is persisted as a store directory at startup and on \
     clean shutdown — the input to $(b,odb promote).  Runs until \
     SIGINT/SIGTERM."
  in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PRIMARY_DIR" ~doc:"The primary's store directory.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix socket path (default PRIMARY_DIR/replica.sock).")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on TCP instead of a Unix socket (port 0 picks one).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"Persist the applied state as a store directory (startup and \
                clean shutdown).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Accepter domains (default: derived from the core count).")
  in
  let interval =
    Arg.(
      value
      & opt float 0.1
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Polling interval between shipping rounds (default 0.1).")
  in
  Cmd.v
    (Cmd.info "replicate" ~doc)
    Term.(
      const replicate_cmd $ dir $ socket $ tcp $ save $ domains $ interval
      $ json_flag)

let promote_t =
  let doc =
    "Judge a saved replica state (odb replicate --save) for failover: exit \
     0 iff it is exactly the primary's durable state, so it can be served \
     as the new primary as-is.  A replica that diverged from primary \
     history — records folded into a checkpoint it never shipped, or \
     records beyond the primary's durable tip — is always refused; one \
     that merely lags is refused unless --allow-lag."
  in
  let replica_dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REPLICA_DIR" ~doc:"Saved replica state (odb replicate --save).")
  in
  let primary_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "primary" ] ~docv:"PRIMARY_DIR"
          ~doc:"The (stopped) primary's store directory.")
  in
  let allow_lag =
    Arg.(
      value & flag
      & info [ "allow-lag" ]
          ~doc:"Promote a replica strictly behind the durable tip, \
                discarding the unshipped committed records.")
  in
  Cmd.v
    (Cmd.info "promote" ~doc)
    Term.(const promote_cmd $ replica_dir $ primary_dir $ allow_lag $ json_flag)

let route_t =
  let doc =
    "Serve an OID-range router over shard backends.  Each BACKEND is \
     LO-HI=TARGET (or open-ended LO-=TARGET): an inclusive OID range and \
     the backend's address (HOST:PORT, or a Unix-socket path).  Point \
     reads (get, typeof) are routed to the owning backend; extent fans \
     out to every backend and merges the sorted OID runs; count sums.  \
     Mutating verbs are refused.  Runs until SIGINT/SIGTERM."
  in
  let specs =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"BACKEND" ~doc:"Backend spec, LO-HI=TARGET.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path to listen on.")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on TCP instead (port 0 picks one).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Accepter domains (default: derived from the core count).")
  in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(const route_cmd $ specs $ socket $ tcp $ domains $ json_flag)

let dot_t =
  let doc = "Print the type hierarchy as Graphviz DOT." in
  let apply_views =
    Arg.(value & flag & info [ "apply-views" ] ~doc:"Derive views first.")
  in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const dot_cmd $ file_arg $ apply_views $ json_flag)

let stats_t =
  let doc =
    "Pretty-print a metrics dump (the envelope emitted by --metrics=json or \
     embedded in bench --json reports).  Reads stdin when FILE is omitted."
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Metrics JSON file.")
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const stats_cmd $ file $ json_flag)

let main =
  let doc = "type derivation using the projection operation (Agrawal & DeMichiel, 1994)" in
  Cmd.group
    (Cmd.info "odb" ~version:"1.0.0" ~doc)
    [ check_t; lint_t; infer_t; repl_t; apply_t; methods_t; dispatch_t;
      query_t; store_t; serve_t; connect_t; replicate_t; promote_t; route_t;
      dot_t; stats_t ]

(* CLI boundary: domain failures that escape a subcommand — any
   structured [Error.E] a command did not turn into a result — are
   diagnostics for the user, not crashes, so disable cmdliner's
   catch-all (which dumps a backtrace) and render them here.  Cmdliner's
   own reserved codes (124 usage, 123/125 internal) are folded into the
   documented exit-code convention as 2. *)
let () =
  let argv = split_global_flags Sys.argv in
  obs_setup ();
  at_exit obs_teardown;
  match Cmd.eval' ~argv ~catch:false main with
  | code -> exit (if code > 2 then 2 else code)
  | exception Error.E e ->
      Fmt.epr "error: %a@." Error.pp e;
      exit 2
