open Tdp_core
open Ast
module View = Tdp_algebra.View
module Pred = Tdp_algebra.Pred

type result_ = {
  schema : Schema.t;
  views : (string * View.expr) list;  (** in declaration order *)
  view_positions : (string * (int * int)) list;
      (** view name -> (line, col) of its declaration *)
}

let prim_of_string = function
  | "int" -> Some Value_type.int
  | "float" -> Some Value_type.float
  | "string" -> Some Value_type.string
  | "bool" -> Some Value_type.bool
  | "date" -> Some Value_type.date
  | _ -> None

let value_type s =
  match prim_of_string s with
  | Some p -> p
  | None -> Value_type.named (Type_name.of_string s)

module SSet = Set.Make (String)

(* Generic-function names declared anywhere in the program; calls to
   anything else elaborate to builtin operations. *)
let declared_gfs items =
  List.fold_left
    (fun acc item ->
      match item.desc with
      | IAccessor { gf; _ } | IMethod { gf; _ } -> SSet.add gf acc
      | IType _ | IView _ -> acc)
    SSet.empty items

let at (pos : Ast.pos) f = Error.with_position ~line:pos.line ~col:pos.col f

let rec elab_expr gfs (e : sexpr) : Body.expr =
  match e with
  | EInt i -> Body.int i
  | EFloat f -> Body.Lit (Float f)
  | EString s -> Body.str s
  | EBool b -> Body.bool b
  | ENull -> Body.null
  | EVar x -> Body.var x
  | EApp (name, args) ->
      let args = List.map (elab_expr gfs) args in
      if SSet.mem name gfs then Body.call name args else Body.builtin name args
  | EBin (op, a, b) -> Body.builtin op [ elab_expr gfs a; elab_expr gfs b ]
  | ENot a -> Body.builtin "not" [ elab_expr gfs a ]

let rec elab_stmt gfs (s : sstmt) : Body.stmt =
  match s with
  | SLocal { var; ty; init } ->
      Body.local ?init:(Option.map (elab_expr gfs) init) var (value_type ty)
  | SAssign (x, e) -> Body.assign x (elab_expr gfs e)
  | SExpr e -> Body.expr (elab_expr gfs e)
  | SReturn None -> Body.return_unit
  | SReturn (Some e) -> Body.return_ (elab_expr gfs e)
  | SIf (c, t, e) ->
      Body.if_ (elab_expr gfs c) (List.map (elab_stmt gfs) t)
        (List.map (elab_stmt gfs) e)
  | SWhile (c, b) -> Body.while_ (elab_expr gfs c) (List.map (elab_stmt gfs) b)

let elab_lit = function
  | LInt i -> Body.Int i
  | LFloat f -> Body.Float f
  | LString s -> Body.String s
  | LBool b -> Body.Bool b

let pred_op = function
  | "==" -> Pred.Eq
  | "!=" -> Pred.Ne
  | "<" -> Pred.Lt
  | "<=" -> Pred.Le
  | ">" -> Pred.Gt
  | ">=" -> Pred.Ge
  | op -> Error.raise_ (Invariant_violation ("unknown predicate operator " ^ op))

let rec elab_pred = function
  | PCmp (attr, op, lit) ->
      Pred.cmp (Attr_name.of_string attr) (pred_op op) (elab_lit lit)
  | PAnd (a, b) -> Pred.And (elab_pred a, elab_pred b)
  | POr (a, b) -> Pred.Or (elab_pred a, elab_pred b)
  | PNot a -> Pred.Not (elab_pred a)

let rec elab_view = function
  | VBase n -> View.Base (Type_name.of_string n)
  | VProject (e, attrs) ->
      View.Project (elab_view e, List.map Attr_name.of_string attrs)
  | VSelect (e, p) -> View.Select (elab_view e, elab_pred p)
  | VGeneralize (a, b) -> View.Generalize (elab_view a, elab_view b)
  | VJoin (a, b) -> View.Join (elab_view a, elab_view b)

(* [check] controls whether the elaborated schema is validated and its
   method bodies type-checked.  [odb lint] elaborates unchecked so the
   linter can report every violation as a diagnostic instead of dying on
   the first raised error. *)
let elaborate_gen ~check items =
  let gfs = declared_gfs items in
  (* Pass 1: types. *)
  let schema =
    List.fold_left
      (fun schema item ->
        match item.desc with
        | IType { name; supers; attrs } ->
            at item.pos (fun () ->
                Schema.add_type schema
                  (Type_def.make
                     ~attrs:
                       (List.map
                          (fun (a, ty) ->
                            Attribute.make (Attr_name.of_string a) (value_type ty))
                          attrs)
                     ~supers:
                       (List.map (fun (s, p) -> (Type_name.of_string s, p)) supers)
                     (Type_name.of_string name)))
        | IAccessor _ | IMethod _ | IView _ -> schema)
      Schema.empty items
  in
  (* Pass 2: methods.  Remember each method's declaration position so the
     body checks below can attribute their failures. *)
  let positions = ref [] in
  let schema =
    List.fold_left
      (fun schema item ->
        match item.desc with
        | IType _ | IView _ -> schema
        | IAccessor { kind; gf; id; param; on; attr } ->
            at item.pos (fun () ->
                let on = Type_name.of_string on in
                let attr = Attr_name.of_string attr in
                let m =
                  match kind with
                  | `Reader ->
                      let result =
                        match
                          Hierarchy.find_attribute (Schema.hierarchy schema) on attr
                        with
                        | Some a -> Attribute.ty a
                        | None ->
                            Error.raise_
                              (Accessor_attr_not_inherited { meth = id; attr })
                      in
                      Method_def.reader ~gf ~id ~param ~param_type:on ~attr ~result
                  | `Writer -> Method_def.writer ~gf ~id ~param ~param_type:on ~attr
                in
                positions := (Method_def.key m, item.pos) :: !positions;
                Schema.add_method schema m)
        | IMethod { gf; id; params; result; body } ->
            at item.pos (fun () ->
                let signature =
                  Signature.make
                    ?result:(Option.map value_type result)
                    (List.map (fun (x, t) -> (x, Type_name.of_string t)) params)
                in
                let m =
                  Method_def.make ~gf ~id ~signature
                    (General (List.map (elab_stmt gfs) body))
                in
                positions := (Method_def.key m, item.pos) :: !positions;
                Schema.add_method schema m))
      schema items
  in
  if check then begin
    Schema.validate_exn schema;
    List.iter
      (fun m ->
        let pos =
          List.assoc_opt (Method_def.key m) !positions
          |> Option.value ~default:{ Ast.line = 0; col = 0 }
        in
        if pos.line = 0 then Typing.check_method schema m
        else at pos (fun () -> Typing.check_method schema m))
      (Schema.all_methods schema)
  end;
  let views =
    List.filter_map
      (fun item ->
        match item.desc with
        | IView { name; expr } -> Some (name, elab_view expr)
        | IType _ | IAccessor _ | IMethod _ -> None)
      items
  in
  let view_positions =
    List.filter_map
      (fun item ->
        match item.desc with
        | IView { name; _ } -> Some (name, (item.pos.line, item.pos.col))
        | IType _ | IAccessor _ | IMethod _ -> None)
      items
  in
  { schema; views; view_positions }

let elaborate_exn items = elaborate_gen ~check:true items
let elaborate items = Error.guard (fun () -> elaborate_exn items)

(* A schema file is the statement sequence where every statement is a
   declaration; anything else is rejected with its position. *)
let items_of_stmts stmts =
  List.map
    (fun (s : Ast.stmt) ->
      match s.sdesc with
      | SDecl desc -> { pos = s.spos; desc }
      | _ ->
          Error.raise_
            (Parse_error
               { line = s.spos.line;
                 col = s.spos.col;
                 message = "only declarations are allowed in a schema file"
               }))
    stmts

let load_exn src = elaborate_exn (items_of_stmts (Parser.parse_stmts_string src))
let load src = Error.guard (fun () -> load_exn src)

let load_unchecked src =
  Error.guard (fun () ->
      elaborate_gen ~check:false (items_of_stmts (Parser.parse_stmts_string src)))

let view_expr = elab_view
let pred = elab_pred
let literal = elab_lit

(* Apply every declared view in order; returns the final schema and the
   derived type of each view. *)
let apply_views_exn ?check r =
  List.fold_left
    (fun (schema, derived) (name, expr) ->
      let o =
        View.derive_exn ?check schema ~view:name
          ~name:(Type_name.of_string name) expr
      in
      (o.schema, (name, o.name) :: derived))
    (r.schema, []) r.views
  |> fun (schema, derived) -> (schema, List.rev derived)

let apply_views ?check r = Error.guard (fun () -> apply_views_exn ?check r)
