module SMap = Map.Make (String)

type env = Value_type.t SMap.t

let env_of_method m =
  let s = Method_def.signature m in
  let env =
    List.fold_left
      (fun env (x, ty) -> SMap.add x (Value_type.Named ty) env)
      SMap.empty (Signature.params s)
  in
  match Method_def.body m with
  | None -> env
  | Some b ->
      List.fold_left (fun env (x, ty) -> SMap.add x ty env) env (Body.locals b)

let lookup_var env x = Option.value ~default:Value_type.Unknown (SMap.find_opt x env)

let type_of_expr schema env (e : Body.expr) =
  match e with
  | Var x -> lookup_var env x
  | Lit (Int _) -> Value_type.int
  | Lit (Float _) -> Value_type.float
  | Lit (String _) -> Value_type.string
  | Lit (Bool _) -> Value_type.bool
  | Lit Null -> Value_type.Unknown
  | Call { gf; _ } -> (
      match Schema.find_gf_opt schema gf with
      | Some g -> Option.value ~default:Value_type.Unknown (Generic_function.result g)
      | None -> Value_type.Unknown)
  | Builtin { op; args } -> (
      ignore args;
      match op with
      | "=" | "<" | ">" | "<=" | ">=" | "!=" | "and" | "or" | "not" -> Value_type.bool
      | _ -> Value_type.Unknown)

(* [arg_type_names schema env meth_id gf args] is the list of object
   types of a generic-function call's arguments.  The paper's model only
   passes objects to generic functions, so a primitive- or
   unknown-typed argument is a model violation. *)
let arg_type_names schema env ~gf args =
  List.mapi
    (fun i a ->
      match Value_type.as_named (type_of_expr schema env a) with
      | Some n -> n
      | None -> Error.raise_ (Non_object_argument { gf; position = i }))
    args

let compatible h ~from_ ~to_ =
  match (from_, to_) with
  | Value_type.Unknown, _ | _, Value_type.Unknown -> true
  | Value_type.Named a, Value_type.Named b -> Hierarchy.subtype h a b
  | Value_type.Prim p, Value_type.Prim q -> p = q
  | Value_type.Prim _, Value_type.Named _ | Value_type.Named _, Value_type.Prim _ ->
      false

let check_method schema m =
  match Method_def.body m with
  | None -> ()
  | Some body ->
      let env = env_of_method m in
      let meth = Method_def.id m in
      let h = Schema.hierarchy schema in
      let check_expr () e =
        match (e : Body.expr) with
        | Var x ->
            if not (SMap.mem x env) then
              Error.raise_ (Unbound_variable { meth; var = x })
        | Lit _ | Builtin _ -> ()
        | Call { gf; args } -> (
            match Schema.find_gf_opt schema gf with
            | None -> Error.raise_ (Unknown_generic_function gf)
            | Some g ->
                (* Writer generic functions take one extra syntactic
                   argument: the new attribute value. *)
                let expected =
                  Generic_function.arity g
                  + if Schema.is_writer_gf schema gf then 1 else 0
                in
                if List.length args <> expected then
                  Error.raise_
                    (Arity_mismatch { gf; expected; got = List.length args });
                let dispatched =
                  if Schema.is_writer_gf schema gf then
                    List.filteri (fun i _ -> i < Generic_function.arity g) args
                  else args
                in
                ignore (arg_type_names schema env ~gf dispatched))
      in
      Body.fold_stmts check_expr () body;
      (* Assignment compatibility: [x := e] needs type(e) ⪯ type(x).
         This is the property that Section 6.3's re-typing of method
         bodies must preserve. *)
      let rec check_stmts stmts = List.iter check_stmt stmts
      and check_stmt (s : Body.stmt) =
        match s with
        | Assign (x, e) | Local { var = x; init = Some e; _ } ->
            if not (SMap.mem x env) then
              Error.raise_ (Unbound_variable { meth; var = x });
            let tx = lookup_var env x and te = type_of_expr schema env e in
            if not (compatible h ~from_:te ~to_:tx) then
              Error.raise_
                (Invariant_violation
                   (Fmt.str "ill-typed assignment to %s in method %s" x meth))
        | Local { init = None; _ } | Expr _ | Return None -> ()
        | Return (Some e) -> (
            match Signature.result (Method_def.signature m) with
            | None -> ()
            | Some rt ->
                let te = type_of_expr schema env e in
                if not (compatible h ~from_:te ~to_:rt) then
                  Error.raise_
                    (Invariant_violation
                       (Fmt.str "ill-typed return in method %s" meth)))
        | If (_, t, e) ->
            check_stmts t;
            check_stmts e
        | While (_, b) -> check_stmts b
      in
      check_stmts body

let check_all_methods schema =
  List.iter (check_method schema) (Schema.all_methods schema)

let check_schema_exn schema =
  if not (Schema.checked schema) then begin
    Schema.validate_exn schema;
    check_all_methods schema;
    Schema.mark_checked schema
  end

let check_all schema = Error.guard (fun () -> check_schema_exn schema)
