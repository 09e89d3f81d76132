open Tdp_core
module Dispatch = Tdp_dispatch.Dispatch

(* Observability: dispatcher rebuilds are the interpreter's hidden cost
   after schema churn — each one recompiles the memo tables — and every
   top-level generic-function call gets a span.  Gated inside Tdp_obs. *)
module Obs = Tdp_obs
let m_rebuild = Obs.Metrics.counter "interp.dispatcher_rebuild"

(* A dispatch frame: enough context for call_next_method to resume the
   applicable-method chain of the innermost generic-function call. *)
type frame = {
  frame_gf : string;
  frame_args : Value.t list;  (** dispatched args ++ writer extras *)
  frame_types : Type_name.t list;  (** dynamic types of dispatched args *)
  frame_meth : Method_def.Key.t;
}

(* What the interpreter needs of an object store: the schema to
   dispatch against and slot access.  A [Database] is one; a server
   runs calls over an MVCC snapshot through the same four functions. *)
type store = {
  schema : unit -> Schema.t;
  type_of : Oid.t -> Type_name.t;
  get_attr : Oid.t -> Attr_name.t -> Value.t;
  set_attr : Oid.t -> Attr_name.t -> Value.t -> unit;
}

type t = {
  store : store;
  mutable dispatch : Dispatch.t;
  now : int;
  max_depth : int;
  mutable frames : frame list;
  mutable depth : int;
}

exception Runtime_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let make ?(now = 2026) ?(max_depth = 10_000) store =
  { store; dispatch = Dispatch.create (store.schema ()); now; max_depth; frames = []; depth = 0 }

let of_store store = make store

let create ?now ?max_depth db =
  make ?now ?max_depth
    { schema = (fun () -> Database.schema db);
      type_of = Database.type_of db;
      get_attr = Database.get_attr db;
      set_attr = Database.set_attr db
    }

(* Rebuild the dispatcher after a schema change on the store. *)
let refresh t =
  { t with
    dispatch = Dispatch.create (t.store.schema ());
    frames = [];
    depth = 0
  }

(* The store's schema can be swapped under a live interpreter
   ([Database.set_schema] after an evolution or factoring step).  A
   dispatcher memoizes outcomes for exactly one schema value, so
   answering from [t.dispatch] after a swap would silently dispatch
   against the evolved-away schema.  Generation stamps make staleness
   one integer comparison, checked at every top-level call; mid-call
   ([call_next_method]) frames keep the dispatcher they started with,
   as the schema cannot change within a call. *)
let dispatcher t =
  let schema = t.store.schema () in
  if Dispatch.generation t.dispatch <> Schema.generation schema then begin
    Obs.Metrics.incr m_rebuild;
    t.dispatch <- Dispatch.create schema
  end;
  t.dispatch

exception Returned of Value.t

module Env = Map.Make (String)

let truthy = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> fail "expected a boolean, got %a" Value.pp v

let num_op fi ff a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Value.Int (fi x y)
  | Value.Float x, Value.Float y -> Value.Float (ff x y)
  | Value.Int x, Value.Float y -> Value.Float (ff (float_of_int x) y)
  | Value.Float x, Value.Int y -> Value.Float (ff x (float_of_int y))
  | a, b -> fail "arithmetic on %a and %a" Value.pp a Value.pp b

let as_float = function
  | Value.Int x -> float_of_int x
  | Value.Float x -> x
  | Value.Date y -> float_of_int y
  | v -> fail "expected a number, got %a" Value.pp v

let rec eval_builtin t op args =
  match (op, args) with
  | "call_next_method", [] -> (
      match t.frames with
      | [] -> fail "call_next_method outside of a method body"
      | frame :: _ -> (
          match
            Dispatch.next_method t.dispatch ~gf:frame.frame_gf
              ~arg_types:frame.frame_types ~after:frame.frame_meth
          with
          | None ->
              fail "no next method for %s after %s" frame.frame_gf
                (Method_def.Key.id frame.frame_meth)
          | Some m ->
              run_framed t
                { frame with frame_meth = Method_def.key m }
                m frame.frame_args))
  | "+", [ a; b ] -> num_op ( + ) ( +. ) a b
  | "-", [ a; b ] -> num_op ( - ) ( -. ) a b
  | "*", [ a; b ] -> num_op ( * ) ( *. ) a b
  | "/", [ a; b ] -> num_op ( / ) ( /. ) a b
  | "=", [ a; b ] -> Value.Bool (Value.equal a b)
  | "!=", [ a; b ] -> Value.Bool (not (Value.equal a b))
  | "<", [ a; b ] -> Value.Bool (as_float a < as_float b)
  | ">", [ a; b ] -> Value.Bool (as_float a > as_float b)
  | "<=", [ a; b ] -> Value.Bool (as_float a <= as_float b)
  | ">=", [ a; b ] -> Value.Bool (as_float a >= as_float b)
  | "and", [ a; b ] -> Value.Bool (truthy a && truthy b)
  | "or", [ a; b ] -> Value.Bool (truthy a || truthy b)
  | "not", [ a ] -> Value.Bool (not (truthy a))
  | "years_since", [ Value.Date y ] -> Value.Int (t.now - y)
  | "years_since", [ v ] -> fail "years_since on %a" Value.pp v
  | op, args -> fail "unknown builtin %s/%d" op (List.length args)

and eval_expr t env (e : Body.expr) =
  match e with
  | Var x -> (
      match Env.find_opt x env with
      | Some v -> v
      | None -> fail "unbound variable %s" x)
  | Lit l -> Value.of_literal l
  | Call { gf; args } -> call t gf (List.map (eval_expr t env) args)
  | Builtin { op; args } -> eval_builtin t op (List.map (eval_expr t env) args)

and exec_stmts t env stmts =
  List.fold_left (fun env s -> exec_stmt t env s) env stmts

and exec_stmt t env (s : Body.stmt) =
  match s with
  | Local { var; init; _ } ->
      let v = match init with Some e -> eval_expr t env e | None -> Value.Null in
      Env.add var v env
  | Assign (x, e) ->
      if not (Env.mem x env) then fail "assignment to unbound variable %s" x;
      Env.add x (eval_expr t env e) env
  | Expr e ->
      ignore (eval_expr t env e);
      env
  | Return None -> raise (Returned Value.Null)
  | Return (Some e) -> raise (Returned (eval_expr t env e))
  | If (c, th, el) ->
      if truthy (eval_expr t env c) then exec_stmts t env th
      else exec_stmts t env el
  | While (c, b) ->
      let rec loop env =
        if truthy (eval_expr t env c) then loop (exec_stmts t env b) else env
      in
      loop env

(* Generic-function call: dispatch on the dynamic types of all object
   arguments (a writer's trailing value argument is not dispatched). *)
and call t gf args =
  if not (Obs.Trace.enabled ()) then call_uninstrumented t gf args
  else
    Obs.Trace.with_span ~attrs:[ ("gf", gf) ] "interp.call" (fun () ->
        call_uninstrumented t gf args)

and call_uninstrumented t gf args =
  let schema = t.store.schema () in
  let is_writer = Schema.is_writer_gf schema gf in
  let dispatched, extra =
    if is_writer then
      match args with
      | obj :: rest -> ([ obj ], rest)
      | [] -> fail "writer %s called with no arguments" gf
    else (args, [])
  in
  let arg_types =
    List.map
      (fun v ->
        match (v : Value.t) with
        | Ref o -> t.store.type_of o
        | v -> fail "generic function %s applied to non-object %a" gf Value.pp v)
      dispatched
  in
  match Dispatch.most_specific (dispatcher t) ~gf ~arg_types with
  | None ->
      fail "no applicable method for %s(%s)" gf
        (String.concat ", " (List.map Type_name.to_string arg_types))
  | Some m ->
      run_framed t
        { frame_gf = gf;
          frame_args = dispatched @ extra;
          frame_types = arg_types;
          frame_meth = Method_def.key m
        }
        m (dispatched @ extra)

(* Execute [m] with [frame] visible to call_next_method.  The frame
   stack doubles as a recursion-depth guard: generic functions can be
   (mutually) recursive, and a runaway recursion should be a runtime
   error, not a crash. *)
and run_framed t frame m args =
  if t.depth >= t.max_depth then
    fail "recursion depth exceeded (%d frames) calling %s" t.max_depth
      frame.frame_gf;
  t.frames <- frame :: t.frames;
  t.depth <- t.depth + 1;
  Fun.protect
    ~finally:(fun () ->
      t.frames <- List.tl t.frames;
      t.depth <- t.depth - 1)
    (fun () -> run_method t m args)

and run_method t m args =
  match (Method_def.kind m, args) with
  | Reader a, [ Value.Ref o ] -> t.store.get_attr o a
  | Writer a, [ Value.Ref o; v ] ->
      t.store.set_attr o a v;
      Value.Null
  | Writer a, [ Value.Ref o ] ->
      (* writer invoked without a value: clear the slot *)
      t.store.set_attr o a Value.Null;
      Value.Null
  | (Reader _ | Writer _), _ ->
      fail "accessor %s applied to unexpected arguments" (Method_def.id m)
  | General body, args ->
      let params = Signature.params (Method_def.signature m) in
      if List.length params <> List.length args then
        fail "method %s expects %d arguments, got %d" (Method_def.id m)
          (List.length params) (List.length args);
      let env =
        List.fold_left2
          (fun env (x, _) v -> Env.add x v env)
          Env.empty params args
      in
      (try
         ignore (exec_stmts t env body);
         Value.Null
       with Returned v -> v)

let call_on t gf oids = call t gf (List.map (fun o -> Value.Ref o) oids)
