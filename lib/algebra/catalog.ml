open Tdp_core

(* A catalog of named views over a schema: the bookkeeping a database
   system would keep around the paper's algorithms.  Views are defined
   by algebraic expressions, derive their types through {!View}, and
   can be dropped again.  Dropping the newest view over the schema its
   define produced restores the recorded pre-define schema; any other
   drop undoes each derivation step in reverse, using {!Unfactor} for
   projections, un-splicing for generalizations, and plain removal for
   selection types. *)

type entry = {
  name : string;
  expr : View.expr;
  view_type : Type_name.t;
  steps : View.step list;
  before : Schema.t;
  after : Schema.t;
}

type t = { schema : Schema.t; entries : entry list (* oldest first *) }

let create schema = { schema; entries = [] }
let schema t = t.schema
let entries t = t.entries

let find_opt t name =
  List.find_opt (fun e -> String.equal e.name name) t.entries

(* Lower the catalog's entries plus a candidate expression to a
   pipeline program, in definition order: each entry may reference the
   entries defined before it. *)
let program_of t ~name expr =
  let prog, seen =
    List.fold_left
      (fun (acc, seen) e ->
        let is_ref n = List.mem (Type_name.to_string n) seen in
        ((e.name, View.to_pipeline ~is_ref e.expr) :: acc, e.name :: seen))
      ([], []) t.entries
  in
  let is_ref n = List.mem (Type_name.to_string n) seen in
  List.rev ((name, View.to_pipeline ~is_ref expr) :: prog)

(* Typecheck a candidate view once, before any derivation: infer its
   principal schema in the context of the already-defined entries and
   check this catalog's schema instantiates it. *)
let typecheck t ~name expr =
  let prog = program_of t ~name expr in
  match List.assoc_opt name (Tdp_infer.Infer.infer_program prog) with
  | Some (Ok principal) -> (
      match Tdp_infer.Infer.admits t.schema principal with
      | Ok () -> Ok principal
      | Error e -> Error e)
  | Some (Error e) -> Error e
  | None -> Error (Tdp_infer.Infer.Ill_typed { view = name; reason = "not solved" })

let define_exn t ~name expr =
  if find_opt t name <> None then
    Error.raise_ (Invariant_violation (Fmt.str "view %S already defined" name));
  let o =
    View.derive_exn t.schema ~view:name ~name:(Type_name.of_string name) expr
  in
  let entry =
    { name; expr; view_type = o.name; steps = o.steps; before = t.schema;
      after = o.schema }
  in
  ({ schema = o.schema; entries = t.entries @ [ entry ] }, entry)

let define t ~name expr = Error.guard (fun () -> define_exn t ~name expr)

(* Remove a selection type: it carries no state and no methods mention
   it, but another type may have been derived below it. *)
let remove_selection schema name =
  let h = Schema.hierarchy schema in
  (match Hierarchy.direct_subs h name with
  | [] -> ()
  | sub :: _ ->
      Error.raise_
        (Invariant_violation
           (Fmt.str "cannot drop selection %s: %s depends on it"
              (Type_name.to_string name) (Type_name.to_string sub))));
  if
    Type_name.Set.mem name (Optimize.mentioned_types schema)
  then
    Error.raise_
      (Invariant_violation
         (Fmt.str "cannot drop selection %s: methods mention it"
            (Type_name.to_string name)));
  Schema.with_hierarchy schema (Hierarchy.remove h name)

(* Un-splice a generalization type W: restore the derived projection
   type's supertypes and unlink the second operand. *)
let remove_generalization schema (o : Generalize.outcome) =
  let h = Schema.hierarchy schema in
  let w = o.name in
  let derived = o.projection.derived in
  let _, t2 = o.operands in
  (match
     List.filter
       (fun sub ->
         not
           (Type_name.equal sub derived || Type_name.equal sub t2))
       (Hierarchy.direct_subs h w)
   with
  | [] -> ()
  | sub :: _ ->
      Error.raise_
        (Invariant_violation
           (Fmt.str "cannot drop generalization %s: %s depends on it"
              (Type_name.to_string w) (Type_name.to_string sub))));
  let w_supers = Type_def.supers (Hierarchy.find h w) in
  let h =
    Hierarchy.update h derived (fun def ->
        if
          List.exists (fun (s, _) -> Type_name.equal s w) (Type_def.supers def)
        then Type_def.with_supers def w_supers
        else def)
  in
  let h =
    Hierarchy.update h t2 (fun def ->
        Type_def.with_supers def
          (List.filter (fun (s, _) -> not (Type_name.equal s w)) (Type_def.supers def)))
  in
  Schema.with_hierarchy schema (Hierarchy.remove h w)

(* A join type is a fresh leaf exactly like a selection type: no
   state of its own, removable when nothing depends on it. *)
let remove_join schema name =
  let h = Schema.hierarchy schema in
  (match Hierarchy.direct_subs h name with
  | [] -> ()
  | sub :: _ ->
      Error.raise_
        (Invariant_violation
           (Fmt.str "cannot drop join %s: %s depends on it"
              (Type_name.to_string name) (Type_name.to_string sub))));
  if Type_name.Set.mem name (Optimize.mentioned_types schema) then
    Error.raise_
      (Invariant_violation
         (Fmt.str "cannot drop join %s: methods mention it"
            (Type_name.to_string name)));
  Schema.with_hierarchy schema (Hierarchy.remove h name)

let undo_step schema (step : View.step) =
  match step with
  | Projected o -> Unfactor.drop_view_exn schema ~before:o.before ~view:o.view
  | Selected { name; _ } -> remove_selection schema name
  | Generalized o ->
      let schema = remove_generalization schema o in
      Unfactor.drop_view_exn schema ~before:o.projection.before
        ~view:o.projection.view
  | Joined { name; _ } -> remove_join schema name

let undo_steps_exn schema steps =
  let schema = List.fold_left undo_step schema (List.rev steps) in
  (* Free when the last undo step was a view drop: [Unfactor] records
     the schema it validated as checked. *)
  Schema.validate_exn schema;
  schema

let drop_exn t ~name =
  match find_opt t name with
  | None -> Error.raise_ (Invariant_violation (Fmt.str "no view named %S" name))
  | Some entry ->
      (* Restore: the newest view over exactly the schema its define
         produced drops back to the schema it was defined over — the
         very value, already checked.  A later optimize or an
         out-of-order drop replaces [t.schema], so those undo. *)
      let restorable =
        t.schema == entry.after
        && match List.rev t.entries with newest :: _ -> newest == entry | [] -> false
      in
      let schema =
        if restorable then entry.before else undo_steps_exn t.schema entry.steps
      in
      { schema;
        entries = List.filter (fun e -> not (String.equal e.name name)) t.entries
      }

let drop t ~name = Error.guard (fun () -> drop_exn t ~name)

(* Types a recorded derivation step depends on for its undo: the
   optimizer must not collapse them, or dropping the view would break. *)
let protected_of_step (step : View.step) =
  let of_surrogates map acc =
    Type_name.Map.fold (fun _ hat acc -> hat :: acc) map acc
  in
  match step with
  | Projected o -> o.derived :: of_surrogates o.surrogates []
  | Selected { name; _ } -> [ name ]
  | Generalized o ->
      o.name :: o.projection.derived :: of_surrogates o.projection.surrogates []
  | Joined { name; _ } -> [ name ]

(* Collapse empty surrogates, protecting every cataloged view type,
   every type the recorded undo steps reference, and those types' direct
   supertypes and subtypes: collapsing a neighbour the base schema
   brought along splices its own neighbours onto the step's types (a
   base type would then inherit from the view's surrogate), and the
   undo would refuse to drop them. *)
let optimize_exn t =
  let named =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc step ->
            List.fold_left (fun acc n -> Type_name.Set.add n acc) acc
              (protected_of_step step))
          (Type_name.Set.add e.view_type acc)
          e.steps)
      Type_name.Set.empty t.entries
  in
  let h = Schema.hierarchy t.schema in
  let protect =
    Type_name.Set.fold
      (fun n acc ->
        List.fold_left (fun acc m -> Type_name.Set.add m acc) acc
          (Hierarchy.direct_super_names h n @ Hierarchy.direct_subs h n))
      named named
  in
  let schema, removed = Optimize.collapse_exn ~protect t.schema in
  ({ t with schema }, removed)

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(
      list ~sep:(any "@ ") (fun ppf e ->
          Fmt.pf ppf "view %s : %a = %a" e.name Type_name.pp e.view_type
            View.pp_expr e.expr))
    t.entries
