open Tdp_core
module View = Tdp_algebra.View
module Pred = Tdp_algebra.Pred
module Catalog = Tdp_algebra.Catalog
module Infer = Tdp_infer.Infer
module Diagnostic = Tdp_analysis.Diagnostic
module Lint = Tdp_analysis.Lint
module Static_check = Tdp_dispatch.Static_check
module Dispatch = Tdp_dispatch.Dispatch
module Database = Tdp_store.Database
module Interp = Tdp_store.Interp
module Oid = Tdp_store.Oid
module Value = Tdp_store.Value
module J = Tdp_obs.Json

(* ------------------------------------------------------------------ *)
(* Store abstraction                                                   *)
(* ------------------------------------------------------------------ *)

type store_ops = {
  s_schema : unit -> Schema.t;
  s_extent : Type_name.t -> Oid.t list;
  s_type_of : Oid.t -> Type_name.t;
  s_get : Oid.t -> Attr_name.t -> Value.t;
  s_count : unit -> int;
  s_new : Type_name.t -> (Attr_name.t * Value.t) list -> Oid.t;
  s_set : Oid.t -> Attr_name.t -> Value.t -> unit;
  s_del : Oid.t -> Database.delete_policy -> unit;
  s_call : string -> Value.t list -> Value.t;
  s_instances : (View.expr -> Oid.t list) option;
}

type t = {
  ops : store_ops;
  file : string option;
  mutable generation : int;  (** store-schema generation the state is bound to *)
  mutable catalog : Catalog.t;
  mutable lets : (string * View.expr) list;  (** newest first *)
}

let database_ops ?now db =
  let interp = Interp.create ?now db in
  { s_schema = (fun () -> Database.schema db);
    s_extent = Database.extent db;
    s_type_of = Database.type_of db;
    s_get = Database.get_attr db;
    s_count = (fun () -> Database.count db);
    s_new = (fun ty init -> Database.new_object db ty ~init);
    s_set = Database.set_attr db;
    s_del = (fun oid policy -> Database.delete db ~policy oid);
    s_call = (fun gf vs -> Interp.call interp gf vs);
    s_instances = Some (fun expr -> View.instances db expr);
  }

let create ?file ops =
  let schema = ops.s_schema () in
  { ops;
    file;
    generation = Schema.generation schema;
    catalog = Catalog.create schema;
    lets = [];
  }

let of_database ?now ?file db = create ?file (database_ops ?now db)

(* A schema swap under the session (e.g. the server's [schema] verb, or
   a replayed [Op_set_schema]) invalidates every binding: view
   expressions were resolved and typechecked against the old types. *)
let refresh t =
  let schema = t.ops.s_schema () in
  let gen = Schema.generation schema in
  if gen <> t.generation then begin
    t.generation <- gen;
    t.catalog <- Catalog.create schema;
    t.lets <- []
  end

let schema t = t.ops.s_schema ()

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type view_inference =
  | Admitted of Infer.principal
  | Not_instantiated of Infer.principal * Infer.error
  | Ill_typed_view of string * Infer.error

type resolution =
  | Selected of Method_def.Key.t * (Method_def.Key.t * Type_name.t list) list
  | Ambiguous of Method_def.Key.t list
  | No_method

type outcome =
  | Bound of { var : string; expr : View.expr }
  | Defined of { name : string; expr : View.expr; attrs : Attr_name.t list }
  | Dropped of string
  | Shown of View.expr
  | Typed of Infer.principal
  | Extent of {
      expr : View.expr;
      attrs : Attr_name.t list;
      rows : (Oid.t * Value.t list) list;
    }
  | Called of { gf : string; results : (Oid.t * Value.t) list }
  | Created of { oid : Oid.t; ty : Type_name.t }
  | Updated of { oid : Oid.t; attrs : Attr_name.t list }
  | Deleted of Oid.t
  | Views of {
      defined : (string * View.expr) list;
      bound : (string * View.expr) list;
    }
  | Schema_info of {
      types : int;
      surrogates : int;
      gfs : int;
      methods : int;
      type_names : Type_name.t list;
    }
  | Checked of {
      file : string option;
      schema : Schema.t;
      views : (string * View.expr) list;
      issues : string list;
    }
  | Inferred of { file : string option; views : (string * view_inference) list }
  | Resolved of {
      file : string option;
      call : string;
      resolution : resolution;
      chain : bool;
    }
  | Diag of Diagnostic.t
  | Bye

let failed = function
  | Diag d -> Diagnostic.is_error d
  | Checked { issues = _ :: _; _ } -> true
  | Inferred { views; _ } ->
      List.exists (fun (_, r) -> match r with Admitted _ -> false | _ -> true) views
  | Resolved { resolution = Ambiguous _ | No_method; _ } -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Diagnostics (TDP05x)                                                *)
(* ------------------------------------------------------------------ *)

exception Fail of Diagnostic.t

let severity_of code =
  match List.find_opt (fun (c, _, _) -> c = code) Lint.codes with
  | Some (_, s, _) -> s
  | None -> Diagnostic.Error

let diag ?file ?position code fmt =
  Fmt.kstr
    (fun message ->
      Diagnostic.make ?file ?position ~code ~severity:(severity_of code) message)
    fmt

let fail ?file ?position code fmt =
  Fmt.kstr
    (fun message ->
      raise
        (Fail
           (Diagnostic.make ?file ?position ~code ~severity:(severity_of code)
              message)))
    fmt

(* A statement that failed to parse: TDP050 with the parser's position. *)
let parse_error ?file e =
  Diagnostic.make ?file ?position:(Error.position e) ~code:"TDP050"
    ~severity:Diagnostic.Error (Error.message e)

(* ------------------------------------------------------------------ *)
(* Flat (non-wrapping) rendering of algebra values                     *)
(* ------------------------------------------------------------------ *)

let pp_lit ppf (l : Body.literal) =
  match l with
  | Int i -> Fmt.int ppf i
  | Float f ->
      let s = Fmt.str "%.12g" f in
      if String.contains s '.' || String.contains s 'e' then Fmt.string ppf s
      else Fmt.pf ppf "%s.0" s
  | String s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b
  | Null -> Fmt.string ppf "null"

let rec pred_str (p : Pred.t) =
  match p with
  | Cmp { attr; op; value } ->
      Fmt.str "%a %s %a" Attr_name.pp attr (Pred.op_to_string op) pp_lit value
  | And (a, b) -> Fmt.str "(%s and %s)" (pred_str a) (pred_str b)
  | Or (a, b) -> Fmt.str "(%s or %s)" (pred_str a) (pred_str b)
  | Not a -> Fmt.str "(not %s)" (pred_str a)
  | True -> "0 == 0"

let rec view_str (v : View.expr) =
  match v with
  | Base n -> Type_name.to_string n
  | Project (e, attrs) ->
      Fmt.str "project %s on [%s]" (view_str e)
        (String.concat ", " (List.map Attr_name.to_string attrs))
  | Select (e, p) -> Fmt.str "select %s where %s" (view_str e) (pred_str p)
  | Generalize (a, b) ->
      Fmt.str "generalize %s with %s" (view_str a) (view_str b)
  | Join (a, b) -> Fmt.str "join %s with %s" (view_str a) (view_str b)

let value_str = Value.to_string
let oid_str oid = "#" ^ string_of_int (Oid.to_int oid)

let add_oid b oid =
  Buffer.add_char b '#';
  Value.add_int b (Oid.to_int oid)
let key_str k = Fmt.str "%a" Method_def.Key.pp k

(* ------------------------------------------------------------------ *)
(* Name resolution and typechecking                                    *)
(* ------------------------------------------------------------------ *)

(* Resolve a surface view expression: base names mean, in order, a
   [let] binding, a cataloged view (its definition inlines — entries
   are stored fully resolved), or a schema type.  Unknown names are
   TDP051. *)
let resolve t ?position (sv : Ast.sview) : View.expr =
  let h = Schema.hierarchy (schema t) in
  let rec go (v : Ast.sview) : View.expr =
    match v with
    | VBase n -> (
        match List.assoc_opt n t.lets with
        | Some e -> e
        | None -> (
            match Catalog.find_opt t.catalog n with
            | Some (entry : Catalog.entry) -> entry.expr
            | None ->
                let tn = Type_name.of_string n in
                if Hierarchy.mem h tn then View.Base tn
                else
                  fail ?file:t.file ?position "TDP051"
                    "unknown relvar or type %s" n))
    | VProject (e, attrs) ->
        Project (go e, List.map Attr_name.of_string attrs)
    | VSelect (e, p) -> Select (go e, Elaborate.pred p)
    | VGeneralize (a, b) -> Generalize (go a, go b)
    | VJoin (a, b) -> Join (go a, go b)
  in
  go sv

(* Principal inference over the resolved (reference-free) expression,
   then instantiation against the live schema.  Failures are TDP053:
   the statement never reaches the store. *)
let typecheck t ?position ~name expr =
  let pipeline = View.to_pipeline ~is_ref:(fun _ -> false) expr in
  match Infer.infer ~name pipeline with
  | Error e ->
      fail ?file:t.file ?position "TDP053" "%s" (Infer.error_message e)
  | Ok p -> (
      match Infer.admits (schema t) p with
      | Ok () -> p
      | Error e ->
          fail ?file:t.file ?position "TDP053" "%s" (Infer.error_message e))

(* The attribute row a view displays, computed syntactically (the
   typecheck above already proved availability). *)
let rec row_attrs h (e : View.expr) : Attr_name.t list =
  match e with
  | Base n -> Hierarchy.all_attribute_names h n
  | Project (_, attrs) -> attrs
  | Select (e, _) -> row_attrs h e
  | Generalize (a, b) ->
      let rb = row_attrs h b in
      List.filter (fun a_ -> List.mem a_ rb) (row_attrs h a)
  | Join (a, b) ->
      let ra = row_attrs h a in
      ra @ List.filter (fun a_ -> not (List.mem a_ ra)) (row_attrs h b)

(* Identity instances.  Join views have none (TDP054, the structured
   form of [View.instances_with]'s raise); everything else either takes
   the backend's one-pass path ([View.instances] over a [Database],
   [Mvcc.instances] over a served snapshot) or [View]'s walker with a
   per-object leaf over [s_extent] and [s_get]. *)
let instances t ?position expr =
  if View.has_join expr then
    fail ?file:t.file ?position "TDP054"
      "join views have no identity extent; materialize the join instead"
  else
    match t.ops.s_instances with
    | Some f -> f expr
    | None ->
        View.instances_with expr ~leaf:(fun n -> function
          | None -> t.ops.s_extent n
          | Some p ->
              let test = Pred.holds p in
              List.filter (fun oid -> test (t.ops.s_get oid)) (t.ops.s_extent n))

let svalue_to_value (v : Ast.svalue) : Value.t =
  match v with
  | SVLit l -> Value.of_literal (Elaborate.literal l)
  | SVNull -> Value.Null
  | SVRef n -> Value.Ref (Oid.of_int n)
  | SVDate y -> Value.Date y

(* ------------------------------------------------------------------ *)
(* Statement evaluation                                                *)
(* ------------------------------------------------------------------ *)

let check_bindable t ?position name =
  if List.mem_assoc name t.lets || Catalog.find_opt t.catalog name <> None then
    fail ?file:t.file ?position "TDP052" "view or binding %s is already defined"
      name

let define t ?position ~name sv =
  check_bindable t ?position name;
  let expr = resolve t ?position sv in
  ignore (typecheck t ?position ~name expr);
  match Catalog.define t.catalog ~name expr with
  | Ok (catalog, _entry) ->
      t.catalog <- catalog;
      let attrs = row_attrs (Schema.hierarchy (schema t)) expr in
      Defined { name; expr; attrs }
  | Error e ->
      (* inference admitted the pipeline, so what remains is a naming
         conflict with the concrete schema (e.g. a type of that name) *)
      fail ?file:t.file ?position "TDP052" "cannot define %s: %s" name
        (Error.message e)

let eval_desc t ?position (d : Ast.stmt_desc) : outcome =
  match d with
  | SDecl (IView { name; expr }) -> define t ?position ~name expr
  | SDecl _ ->
      fail ?file:t.file ?position "TDP056"
        "declarations are not executable in an interactive session; load \
         them with the schema"
  | SLet { var; expr } ->
      let e = resolve t ?position expr in
      ignore (typecheck t ?position ~name:var e);
      t.lets <- (var, e) :: List.remove_assoc var t.lets;
      Bound { var; expr = e }
  | SDefine { name; expr } -> define t ?position ~name expr
  | SDrop name -> (
      match Catalog.find_opt t.catalog name with
      | None ->
          fail ?file:t.file ?position "TDP051" "unknown relvar or type %s" name
      | Some _ -> (
          match Catalog.drop t.catalog ~name with
          | Ok catalog ->
              t.catalog <- catalog;
              Dropped name
          | Error e ->
              fail ?file:t.file ?position "TDP055" "cannot drop %s: %s" name
                (Error.message e)))
  | SCallOn { gf; expr } ->
      let e = resolve t ?position expr in
      ignore (typecheck t ?position ~name:"it" e);
      let oids = instances t ?position e in
      let results =
        List.map (fun oid -> (oid, t.ops.s_call gf [ Value.Ref oid ])) oids
      in
      Called { gf; results }
  | SNew { ty; inits } ->
      let tn = Type_name.of_string ty in
      if not (Hierarchy.mem (Schema.hierarchy (schema t)) tn) then
        fail ?file:t.file ?position "TDP051" "unknown relvar or type %s" ty;
      let init =
        List.map
          (fun (a, v) -> (Attr_name.of_string a, svalue_to_value v))
          inits
      in
      let oid = t.ops.s_new tn init in
      Created { oid; ty = tn }
  | SSet { oid; updates } ->
      let oid = Oid.of_int oid in
      let attrs =
        List.map
          (fun (a, v) ->
            let a = Attr_name.of_string a in
            t.ops.s_set oid a (svalue_to_value v);
            a)
          updates
      in
      Updated { oid; attrs }
  | SDelete { oid; policy } ->
      let oid = Oid.of_int oid in
      let policy =
        match policy with
        | `Restrict -> Database.Restrict
        | `Nullify -> Database.Nullify
      in
      t.ops.s_del oid policy;
      Deleted oid
  | SShow v -> Shown (resolve t ?position v)
  | SType v ->
      let e = resolve t ?position v in
      let pipeline = View.to_pipeline ~is_ref:(fun _ -> false) e in
      (match Infer.infer ~name:"it" pipeline with
      | Error err ->
          fail ?file:t.file ?position "TDP053" "%s" (Infer.error_message err)
      | Ok p -> Typed p)
  | SExtent v ->
      let e = resolve t ?position v in
      ignore (typecheck t ?position ~name:"it" e);
      let oids = instances t ?position e in
      let attrs = row_attrs (Schema.hierarchy (schema t)) e in
      let rows =
        List.map (fun oid -> (oid, List.map (t.ops.s_get oid) attrs)) oids
      in
      Extent { expr = e; attrs; rows }
  | SViews ->
      Views
        { defined =
            List.map
              (fun (e : Catalog.entry) -> (e.name, e.expr))
              (Catalog.entries t.catalog);
          bound = List.rev t.lets;
        }
  | SSchema ->
      let s = schema t in
      let h = Schema.hierarchy s in
      let surrogates =
        Hierarchy.fold
          (fun d n -> if Type_def.is_surrogate d then n + 1 else n)
          h 0
      in
      Schema_info
        { types = Hierarchy.cardinal h;
          surrogates;
          gfs = List.length (Schema.gfs s);
          methods = List.length (Schema.all_methods s);
          type_names =
            List.sort Type_name.compare (Hierarchy.type_names h);
        }
  | SQuit -> Bye

let eval t (s : Stmt.t) : outcome =
  refresh t;
  let position = (s.spos.line, s.spos.col) in
  match eval_desc t ~position s.sdesc with
  | outcome -> outcome
  | exception Fail d -> Diag d
  | exception Error.E e ->
      Diag
        (diag ?file:t.file ~position "TDP055" "%s" (Error.message e))
  | exception Database.Store_error m ->
      Diag (diag ?file:t.file ~position "TDP055" "%s" m)
  | exception Interp.Runtime_error m ->
      Diag (diag ?file:t.file ~position "TDP055" "%s" m)

(* Evaluate a whole source string; stops after [:quit]. *)
let eval_string t src : outcome list =
  match Stmt.parse src with
  | Error e -> [ Diag (parse_error ?file:t.file e) ]
  | Ok stmts ->
      let rec go = function
        | [] -> []
        | s :: rest -> (
            match eval t s with Bye -> [ Bye ] | o -> o :: go rest)
      in
      go stmts

(* Pre-define the views a schema file declares, in order — how the repl
   starts over a [.odb] file whose views should be queryable by name.
   @raise Error.E on a failing derivation. *)
(* A schema file's view list arrives with earlier views referenced by
   name ([Base EmpView]); catalog entries are stored fully resolved, so
   inline those references.  One level suffices: entries already in the
   catalog are themselves resolved. *)
let rec expand t (e : View.expr) : View.expr =
  match e with
  | Base n -> (
      match Catalog.find_opt t.catalog (Type_name.to_string n) with
      | Some (entry : Catalog.entry) -> entry.expr
      | None -> e)
  | Project (e, attrs) -> Project (expand t e, attrs)
  | Select (e, p) -> Select (expand t e, p)
  | Generalize (a, b) -> Generalize (expand t a, expand t b)
  | Join (a, b) -> Join (expand t a, expand t b)

let install_views t views =
  List.iter
    (fun (name, expr) ->
      let catalog, _ = Catalog.define_exn t.catalog ~name (expand t expr) in
      t.catalog <- catalog)
    views

(* ------------------------------------------------------------------ *)
(* One-shot helpers for the CLI frontends                              *)
(* ------------------------------------------------------------------ *)

let check_source ?file src : outcome =
  match Elaborate.load src with
  | Error e -> Diag (parse_error ?file e)
  | Ok r ->
      let issues =
        (match Hierarchy.validate (Schema.hierarchy r.schema) with
        | Ok () -> []
        | Error e -> [ Error.message e ])
        @ List.map
            (fun i -> Fmt.str "%a" Static_check.pp_issue i)
            (Static_check.duplicate_signatures r.schema)
      in
      Checked { file; schema = r.schema; views = r.views; issues }

let infer_source ?file src : outcome =
  match Elaborate.load src with
  | Error e -> Diag (parse_error ?file e)
  | Ok r ->
      let program =
        let seen = Hashtbl.create 16 in
        List.map
          (fun (name, expr) ->
            let is_ref n = Hashtbl.mem seen (Type_name.to_string n) in
            let node = View.to_pipeline ~is_ref expr in
            Hashtbl.replace seen name ();
            (name, node))
          r.views
      in
      let views =
        List.map
          (fun (name, res) ->
            match res with
            | Error e -> (name, Ill_typed_view (name, e))
            | Ok p -> (
                match Infer.admits r.schema p with
                | Ok () -> (name, Admitted p)
                | Error e -> (name, Not_instantiated (p, e))))
          (Infer.infer_program program)
      in
      Inferred { file; views }

let resolve_call ?file schema ~gf ~arg_types ~chain : outcome =
  try
  let h = Schema.hierarchy schema in
  List.iter
    (fun ty ->
      if not (Hierarchy.mem h ty) then
        fail ?file "TDP051" "unknown relvar or type %a" Type_name.pp ty)
    arg_types;
  let d = Dispatch.create schema in
  let call =
    Fmt.str "%s(%s)" gf
      (String.concat "," (List.map Type_name.to_string arg_types))
  in
  let resolution =
    match Dispatch.most_specific d ~gf ~arg_types with
    | exception Dispatch.Ambiguous { methods; _ } ->
        Ambiguous methods
    | None -> No_method
    | Some m ->
        Selected
          ( Method_def.key m,
            if chain then
              List.map
                (fun m ->
                  ( Method_def.key m,
                    Signature.param_types (Method_def.signature m) ))
                (Dispatch.applicable d ~gf ~arg_types)
            else [] )
  in
  Resolved { file; call; resolution; chain }
  with Fail d -> Diag d

(* ------------------------------------------------------------------ *)
(* Rendering: one canonical text form per outcome                      *)
(* ------------------------------------------------------------------ *)

let summary_line schema =
  let h = Schema.hierarchy schema in
  let surrogates =
    Hierarchy.fold (fun d n -> if Type_def.is_surrogate d then n + 1 else n) h 0
  in
  Fmt.str "types: %d (%d surrogates)  generic functions: %d  methods: %d"
    (Hierarchy.cardinal h) surrogates
    (List.length (Schema.gfs schema))
    (List.length (Schema.all_methods schema))

type sink = Plain | Escaped

(* Text through the sink: as is, or as [String.escaped] makes it. *)
let add_text sink b s =
  match sink with
  | Plain -> Buffer.add_string b s
  | Escaped -> Value.add_escaped b s

let add_newline sink b =
  Buffer.add_string b (match sink with Plain -> "\n" | Escaped -> "\\n")

let add_value sink b v =
  match sink with
  | Plain -> Value.add_to_buffer b v
  | Escaped -> Value.add_escaped_to_buffer b v

(* Rows are written straight into [b]: a served scan renders hundreds
   of them per request, and its reply is their escaped text.  Every
   other outcome is one short text. *)
let render_to sink b (o : outcome) =
  match o with
  | Extent { attrs; rows; _ } ->
      Buffer.add_string b "extent: ";
      Value.add_int b (List.length rows);
      let rec add_slots sep attrs values =
        match (attrs, values) with
        | a :: attrs, v :: values ->
            Buffer.add_string b sep;
            add_text sink b (Attr_name.to_string a);
            Buffer.add_string b " = ";
            add_value sink b v;
            add_slots "; " attrs values
        | [], [] -> ()
        | _ -> invalid_arg "Session.render_to: a row and its attributes differ"
      in
      List.iter
        (fun (oid, values) ->
          add_newline sink b;
          add_oid b oid;
          Buffer.add_string b " {";
          add_slots "" attrs values;
          Buffer.add_char b '}')
        rows
  | Called { results = []; _ } -> add_text sink b "no instances"
  | Called { gf; results } ->
      List.iteri
        (fun i (oid, v) ->
          if i > 0 then add_newline sink b;
          add_text sink b gf;
          Buffer.add_char b '(';
          add_oid b oid;
          Buffer.add_string b ") = ";
          add_value sink b v)
        results
  | Bound { var; expr } ->
      add_text sink b (Fmt.str "let %s = %s" var (view_str expr))
  | Defined { name; expr; _ } ->
      add_text sink b (Fmt.str "view %s = %s" name (view_str expr))
  | Dropped name -> add_text sink b (Fmt.str "dropped view %s" name)
  | Shown expr -> add_text sink b (view_str expr)
  | Typed p -> add_text sink b (Fmt.str "%a" Infer.pp_principal p)
  | Created { oid; ty } ->
      add_text sink b (Fmt.str "created %s : %a" (oid_str oid) Type_name.pp ty)
  | Updated { oid; attrs } ->
      add_text sink b
        (Fmt.str "updated %s (%s)" (oid_str oid)
           (String.concat ", " (List.map Attr_name.to_string attrs)))
  | Deleted oid -> add_text sink b (Fmt.str "deleted %s" (oid_str oid))
  | Views { defined = []; bound = [] } -> add_text sink b "no views"
  | Views { defined; bound } ->
      add_text sink b
        (String.concat "\n"
           (List.map
              (fun (n, e) -> Fmt.str "view %s = %s" n (view_str e))
              defined
           @ List.map
               (fun (n, e) -> Fmt.str "let %s = %s" n (view_str e))
               bound))
  | Schema_info { types; surrogates; gfs; methods; type_names } ->
      add_text sink b
        (Fmt.str
           "types: %d (%d surrogates)  generic functions: %d  methods: %d\n%s"
           types surrogates gfs methods
           (String.concat ", " (List.map Type_name.to_string type_names)))
  | Checked { schema; views; issues = []; _ } ->
      add_text sink b
        (String.concat "\n"
           (summary_line schema
            :: List.map
                 (fun (name, expr) -> Fmt.str "view %s = %s" name (view_str expr))
                 views
           @ [ "ok." ]))
  | Checked { issues; file; _ } ->
      add_text sink b
        (String.concat "\n"
           (List.map
              (fun i ->
                Fmt.str "error: %s%s" i
                  (match file with None -> "" | Some f -> Fmt.str " (%s)" f))
              issues))
  | Inferred { views = []; _ } -> add_text sink b "no views declared."
  | Inferred { views; _ } ->
      add_text sink b
        (String.concat "\n"
           (List.map
              (fun (_name, res) ->
                match res with
                | Admitted p ->
                    Fmt.str "%a\n  instantiated by this schema"
                      Infer.pp_principal p
                | Not_instantiated (p, e) ->
                    Fmt.str "%a\n  not instantiated: %s" Infer.pp_principal p
                      (Infer.error_message e)
                | Ill_typed_view (n, e) ->
                    Fmt.str "view %s : ill-typed\n  %s" n
                      (Infer.error_message e))
              views))
  | Resolved { call; resolution = Selected (k, chain); _ } ->
      add_text sink b
        (String.concat "\n"
           (Fmt.str "%s -> %s" call (key_str k)
           :: List.mapi
                (fun i (k, params) ->
                  Fmt.str "  %d. %s(%s)" (i + 1) (key_str k)
                    (String.concat "," (List.map Type_name.to_string params)))
                chain))
  | Resolved { call; resolution = Ambiguous keys; _ } ->
      add_text sink b
        (Fmt.str "error: call to %s is ambiguous between %s" call
           (String.concat " and " (List.map key_str keys)))
  | Resolved { call; resolution = No_method; _ } ->
      add_text sink b (Fmt.str "error: no applicable method for %s" call)
  | Diag d -> add_text sink b (Fmt.str "%a" Diagnostic.pp d)
  | Bye -> add_text sink b "bye"

let render o =
  let b =
    Buffer.create
      (match o with Extent { rows; _ } -> 128 * (List.length rows + 1) | _ -> 256)
  in
  render_to Plain b o;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let set_json s =
  J.List
    (List.map (fun a -> J.String (Attr_name.to_string a)) (Attr_name.Set.elements s))

let principal_json (p : Infer.principal) =
  let mode, s =
    match p.result with
    | Infer.Exactly s -> ("exactly", s)
    | Infer.At_least s -> ("at_least", s)
  in
  [ ("result", J.Obj [ ("mode", J.String mode); ("attrs", set_json s) ]);
    ("sources",
     J.Obj
       (List.map (fun (t, req) -> (Type_name.to_string t, set_json req)) p.sources));
    ("kinds",
     J.Obj
       (List.map
          (fun (a, k) ->
            (Attr_name.to_string a, J.String (Tdp_infer.Kind.to_string k)))
          p.kinds));
    ("applies", J.List (List.map (fun g -> J.String g) p.gfs));
    ("residuals",
     J.List (List.map (fun a -> J.String (Attr_name.to_string a)) p.residuals))
  ]

let diag_json d =
  match J.parse (Diagnostic.to_json d) with
  | Ok j -> j
  | Error _ -> J.String (Diagnostic.to_json d)

let attrs_json attrs =
  J.List (List.map (fun a -> J.String (Attr_name.to_string a)) attrs)

let file_field = function
  | None -> []
  | Some f -> [ ("file", J.String f) ]

let to_json (o : outcome) : J.t =
  match o with
  | Bound { var; expr } ->
      J.Obj [ ("let", J.String var); ("expr", J.String (view_str expr)) ]
  | Defined { name; expr; attrs } ->
      J.Obj
        [ ("view", J.String name);
          ("expr", J.String (view_str expr));
          ("attrs", attrs_json attrs)
        ]
  | Dropped name -> J.Obj [ ("dropped", J.String name) ]
  | Shown expr -> J.Obj [ ("expr", J.String (view_str expr)) ]
  | Typed p -> J.Obj (("principal", J.String (Fmt.str "%a" Infer.pp_principal p)) :: principal_json p)
  | Extent { attrs; rows; _ } ->
      J.Obj
        [ ("count", J.Int (List.length rows));
          ("attrs", attrs_json attrs);
          ("rows",
           J.List
             (List.map
                (fun (oid, values) ->
                  J.Obj
                    (("oid", J.Int (Oid.to_int oid))
                    :: List.map2
                         (fun a v ->
                           (Attr_name.to_string a, J.String (value_str v)))
                         attrs values))
                rows))
        ]
  | Called { gf; results } ->
      J.Obj
        [ ("call", J.String gf);
          ("results",
           J.List
             (List.map
                (fun (oid, v) ->
                  J.Obj
                    [ ("oid", J.Int (Oid.to_int oid));
                      ("value", J.String (value_str v))
                    ])
                results))
        ]
  | Created { oid; ty } ->
      J.Obj
        [ ("created", J.Int (Oid.to_int oid));
          ("type", J.String (Type_name.to_string ty))
        ]
  | Updated { oid; attrs } ->
      J.Obj [ ("updated", J.Int (Oid.to_int oid)); ("attrs", attrs_json attrs) ]
  | Deleted oid -> J.Obj [ ("deleted", J.Int (Oid.to_int oid)) ]
  | Views { defined; bound } ->
      let entry (n, e) =
        J.Obj [ ("name", J.String n); ("expr", J.String (view_str e)) ]
      in
      J.Obj
        [ ("views", J.List (List.map entry defined));
          ("lets", J.List (List.map entry bound))
        ]
  | Schema_info { types; surrogates; gfs; methods; type_names } ->
      J.Obj
        [ ("types", J.Int types);
          ("surrogates", J.Int surrogates);
          ("generic_functions", J.Int gfs);
          ("methods", J.Int methods);
          ("type_names",
           J.List
             (List.map (fun n -> J.String (Type_name.to_string n)) type_names))
        ]
  | Checked { file; schema; views; issues } ->
      let h = Schema.hierarchy schema in
      let surrogates =
        Hierarchy.fold
          (fun d n -> if Type_def.is_surrogate d then n + 1 else n)
          h 0
      in
      J.Obj
        (file_field file
        @ [ ("types", J.Int (Hierarchy.cardinal h));
            ("surrogates", J.Int surrogates);
            ("generic_functions", J.Int (List.length (Schema.gfs schema)));
            ("methods", J.Int (List.length (Schema.all_methods schema)));
            ("views",
             J.List
               (List.map
                  (fun (name, expr) ->
                    J.Obj
                      [ ("name", J.String name);
                        ("expr", J.String (view_str expr))
                      ])
                  views));
            ("issues", J.List (List.map (fun i -> J.String i) issues))
          ])
  | Inferred { file; views } ->
      let view_json (name, res) =
        J.Obj
          (("name", J.String name)
          ::
          (match res with
          | Admitted p -> ("status", J.String "ok") :: principal_json p
          | Not_instantiated (p, e) ->
              ("status", J.String "not_instantiated")
              :: ("error", J.String (Infer.error_message e))
              :: principal_json p
          | Ill_typed_view (_, e) ->
              [ ("status", J.String "ill_typed");
                ("error", J.String (Infer.error_message e))
              ]))
      in
      J.Obj
        (file_field file @ [ ("views", J.List (List.map view_json views)) ])
  | Resolved { file; call; resolution; chain } ->
      J.Obj
        (file_field file
        @ [ ("call", J.String call) ]
        @ (match resolution with
          | Selected (k, chain_methods) ->
              ("selected", J.String (key_str k))
              ::
              (if chain then
                 [ ("chain",
                    J.List
                      (List.map
                         (fun (k, params) ->
                           J.Obj
                             [ ("method", J.String (key_str k));
                               ("params",
                                J.List
                                  (List.map
                                     (fun t ->
                                       J.String (Type_name.to_string t))
                                     params))
                             ])
                         chain_methods))
                 ]
               else [])
          | Ambiguous keys ->
              [ ("ambiguous",
                 J.List (List.map (fun k -> J.String (key_str k)) keys))
              ]
          | No_method -> [ ("selected", J.Null) ]))
  | Diag d -> J.Obj [ ("diagnostic", diag_json d) ]
  | Bye -> J.Obj [ ("bye", J.Bool true) ]
