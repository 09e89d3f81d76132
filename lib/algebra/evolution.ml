open Tdp_core

(* Schema evolution with view impact analysis.

   Changing a base schema under a set of derived views is the everyday
   problem the paper's machinery makes tractable: because every view is
   derived by a reproducible pipeline, evolution can unwind all views
   (reverse definition order), apply the base change, and re-derive the
   views in order — then report, per view, which methods the view's
   type gained or lost, or whether the view no longer derives at all
   (e.g. its projection list mentions a dropped attribute). *)

(* Observability: evolutions are rare but expensive (unwind + re-derive
   every view), so each one is counted, timed, and traced, along with
   how many views broke.  Gated inside Tdp_obs. *)
module Obs = Tdp_obs
let m_evolve_ns = Obs.Metrics.histogram "evolution.evolve_ns"
let m_evolutions = Obs.Metrics.counter "evolution.changes"
let m_broken = Obs.Metrics.counter "evolution.views_broken"

type change =
  | Add_type of Type_def.t
  | Add_attribute of { ty : Type_name.t; attr : Attribute.t }
  | Remove_attribute of Attr_name.t
      (** accessors for the attribute are cascaded away *)
  | Add_method of Method_def.t
  | Remove_method of Method_def.Key.t
  | Rename_attribute of { from_ : Attr_name.t; to_ : Attr_name.t }
      (** the relational rename operator, as schema evolution: the
          owner's attribute, its accessors, and the catalog's view
          expressions are all rewritten *)

let pp_change ppf = function
  | Add_type d -> Fmt.pf ppf "add type %a" Type_name.pp (Type_def.name d)
  | Add_attribute { ty; attr } ->
      Fmt.pf ppf "add attribute %a to %a" Attribute.pp attr Type_name.pp ty
  | Remove_attribute a -> Fmt.pf ppf "remove attribute %a" Attr_name.pp a
  | Add_method m -> Fmt.pf ppf "add method %s.%s" (Method_def.gf m) (Method_def.id m)
  | Remove_method k ->
      Fmt.pf ppf "remove method %s.%s" (Method_def.Key.gf k) (Method_def.Key.id k)
  | Rename_attribute { from_; to_ } ->
      Fmt.pf ppf "rename attribute %a to %a" Attr_name.pp from_ Attr_name.pp to_

type view_impact = {
  view : string;
  status : [ `Ok | `Broken of Error.t ];
  gained : Method_def.Key.Set.t;  (** methods newly applicable to the view type *)
  lost : Method_def.Key.Set.t;
}

type report = { change : change; impacts : view_impact list }

let pp_impact ppf i =
  let names s =
    String.concat ", "
      (List.map (Fmt.str "%a" Method_def.Key.pp) (Method_def.Key.Set.elements s))
  in
  match i.status with
  | `Broken e -> Fmt.pf ppf "view %s: BROKEN (%a)" i.view Error.pp e
  | `Ok ->
      if Method_def.Key.Set.is_empty i.gained && Method_def.Key.Set.is_empty i.lost
      then Fmt.pf ppf "view %s: unchanged" i.view
      else Fmt.pf ppf "view %s: +{%s} -{%s}" i.view (names i.gained) (names i.lost)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a@ %a@]" pp_change r.change
    Fmt.(list ~sep:(any "@ ") pp_impact)
    r.impacts

let applicable_keys schema ty_ =
  let index = Schema_index.of_hierarchy (Schema.hierarchy schema) in
  Method_def.Key.Set.of_list
    (List.map Method_def.key (Schema.methods_applicable_to_type schema index ty_))

(* Apply a change to a base (view-free) schema; validates the result. *)
let apply_change_exn schema change =
  let schema =
    match change with
    | Add_type d -> Schema.add_type schema d
    | Add_attribute { ty; attr } ->
        Schema.map_hierarchy schema (fun h ->
            Hierarchy.update h ty (fun d -> Type_def.add_attr d attr))
    | Remove_attribute a -> (
        match Hierarchy.attr_owner (Schema.hierarchy schema) a with
        | None -> Error.raise_ (Unknown_attribute a)
        | Some owner ->
            let schema =
              Schema.map_hierarchy schema (fun h ->
                  Hierarchy.update h owner (fun d -> Type_def.remove_attr d a))
            in
            (* cascade: drop the accessors of the removed attribute *)
            List.fold_left
              (fun schema m ->
                match Method_def.accessed_attr m with
                | Some a' when Attr_name.equal a a' ->
                    Schema.remove_method schema (Method_def.key m)
                | Some _ | None -> schema)
              schema (Schema.all_methods schema))
    | Add_method m -> Schema.add_method schema m
    | Remove_method k ->
        ignore (Schema.find_method schema k);
        Schema.remove_method schema k
    | Rename_attribute { from_; to_ } -> (
        let h = Schema.hierarchy schema in
        Hierarchy.fold
          (fun d () ->
            if Type_def.has_local_attr d to_ then
              Error.raise_
                (Duplicate_attribute { attr = to_; types = [ Type_def.name d ] }))
          h ();
        match Hierarchy.attr_owner h from_ with
        | None -> Error.raise_ (Unknown_attribute from_)
        | Some owner ->
            let schema =
              Schema.map_hierarchy schema (fun h ->
                  Hierarchy.update h owner (fun d ->
                      Type_def.with_attrs d
                        (List.map
                           (fun a ->
                             if Attr_name.equal (Attribute.name a) from_ then
                               Attribute.make to_ (Attribute.ty a)
                             else a)
                           (Type_def.attrs d))))
            in
            (* rewrite the accessors of the renamed attribute *)
            List.fold_left
              (fun schema m ->
                match Method_def.accessed_attr m with
                | Some a when Attr_name.equal a from_ ->
                    Schema.update_method schema (Method_def.key m) (fun m ->
                        Method_def.with_kind m
                          (match Method_def.kind m with
                          | Reader _ -> Reader to_
                          | Writer _ -> Writer to_
                          | General b -> General b))
                | Some _ | None -> schema)
              schema (Schema.all_methods schema))
  in
  Typing.check_schema_exn schema;
  schema

(* Unwind in reverse definition order. *)
let unwind_exn catalog =
  List.fold_left
    (fun c (e : Catalog.entry) -> Catalog.drop_exn c ~name:e.name)
    catalog
    (List.rev (Catalog.entries catalog))

(* Evolve the base schema under the catalog's views: unwind, change,
   re-derive, and report per-view impact.  Views that no longer derive
   are dropped from the resulting catalog and reported as broken. *)
let evolve_exn_uninstrumented catalog change =
  let before_entries = Catalog.entries catalog in
  let before_schema = Catalog.schema catalog in
  let unwound = unwind_exn catalog in
  let base = apply_change_exn (Catalog.schema unwound) change in
  (* renames propagate into the stored view expressions *)
  let rewrite_expr =
    match change with
    | Rename_attribute { from_; to_ } ->
        View.map_attrs (fun a -> if Attr_name.equal a from_ then to_ else a)
    | Add_type _ | Add_attribute _ | Remove_attribute _ | Add_method _
    | Remove_method _ ->
        Fun.id
  in
  let rederived, impacts =
    List.fold_left
      (fun (c, impacts) (e : Catalog.entry) ->
        let before_keys = applicable_keys before_schema e.view_type in
        match Catalog.define c ~name:e.name (rewrite_expr e.expr) with
        | Ok (c, entry) ->
            let after_keys = applicable_keys (Catalog.schema c) entry.view_type in
            ( c,
              { view = e.name;
                status = `Ok;
                gained = Method_def.Key.Set.diff after_keys before_keys;
                lost = Method_def.Key.Set.diff before_keys after_keys
              }
              :: impacts )
        | Error err ->
            ( c,
              { view = e.name;
                status = `Broken err;
                gained = Method_def.Key.Set.empty;
                lost = before_keys
              }
              :: impacts ))
      (Catalog.create base, [])
      before_entries
  in
  (rederived, { change; impacts = List.rev impacts })

let evolve_exn catalog change =
  Obs.Metrics.time m_evolve_ns (fun () ->
      let attrs =
        if Obs.Trace.enabled () then
          [ ("change", Fmt.str "%a" pp_change change) ]
        else []
      in
      Obs.Trace.with_span ~attrs "evolution.evolve" (fun () ->
          let catalog', report = evolve_exn_uninstrumented catalog change in
          Obs.Metrics.incr m_evolutions;
          Obs.Metrics.add m_broken
            (List.length
               (List.filter
                  (fun i -> match i.status with `Broken _ -> true | `Ok -> false)
                  report.impacts));
          (catalog', report)))

let evolve catalog change = Error.guard (fun () -> evolve_exn catalog change)
