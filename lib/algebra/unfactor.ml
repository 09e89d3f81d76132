open Tdp_core

(* Dropping a view: the inverse of the projection pipeline.

   All surrogates created for a view are identified by the view tag in
   their origin.  Dropping the view moves every surrogate's local
   attributes back to its source, removes the surrogate types and their
   edges, and rewrites method signatures, re-typed locals, and result
   types back from surrogate names to source names.  Moved-back
   attributes take their positions in [before], the schema the view was
   derived from, so a drop in reverse definition order prints exactly
   as that schema did.

   Precondition: nothing outside the view depends on its surrogates —
   no foreign type inherits from them and no other view was derived
   through them.  Violations raise [Invariant_violation]. *)

let surrogates_of_view schema ~view =
  Hierarchy.fold
    (fun def acc ->
      match Type_def.origin def with
      | Surrogate { source; view = v } when String.equal v view ->
          (Type_def.name def, source) :: acc
      | Surrogate _ | Source -> acc)
    (Schema.hierarchy schema) []

(* The local attributes of [def] in [before]'s order for the same type;
   attributes [before] does not know keep their order, last. *)
let in_order_of before def =
  match Hierarchy.find_opt (Schema.hierarchy before) (Type_def.name def) with
  | None -> def
  | Some old ->
      let rank a =
        let rec go i = function
          | [] -> max_int
          | x :: rest ->
              if Attr_name.equal (Attribute.name x) (Attribute.name a) then i
              else go (i + 1) rest
        in
        go 0 (Type_def.attrs old)
      in
      Type_def.with_attrs def
        (List.stable_sort
           (fun a b -> Int.compare (rank a) (rank b))
           (Type_def.attrs def))

let drop_view_exn schema ~before ~view =
  let pairs = surrogates_of_view schema ~view in
  if pairs = [] then
    Error.raise_ (Invariant_violation (Fmt.str "no view named %S" view));
  let victim_set = Type_name.Set.of_list (List.map fst pairs) in
  let back name =
    match
      List.find_opt (fun (hat, _) -> Type_name.equal hat name) pairs
    with
    | Some (_, src) -> src
    | None -> name
  in
  let h = Schema.hierarchy schema in
  (* No later view may have been derived through a victim: a foreign
     surrogate whose source is a victim would be left dangling. *)
  Hierarchy.fold
    (fun def () ->
      let n = Type_def.name def in
      if not (Type_name.Set.mem n victim_set) then
        match Type_def.origin def with
        | Surrogate { source; view = other } when Type_name.Set.mem source victim_set
          ->
            Error.raise_
              (Invariant_violation
                 (Fmt.str "cannot drop view %S: view %S was derived through %s"
                    view other (Type_name.to_string source)))
        | Surrogate _ | Source -> ())
    h ();
  (* No foreign type may inherit from a victim. *)
  Hierarchy.fold
    (fun def () ->
      let n = Type_def.name def in
      if not (Type_name.Set.mem n victim_set) then
        List.iter
          (fun (s, _) ->
            if
              Type_name.Set.mem s victim_set
              && not (Type_name.equal (back s) n)
            then
              Error.raise_
                (Invariant_violation
                   (Fmt.str "cannot drop view %S: type %s inherits from %s" view
                      (Type_name.to_string n) (Type_name.to_string s))))
          (Type_def.supers def))
    h ();
  (* Move attributes home and drop the victims. *)
  let h =
    List.fold_left
      (fun h (hat, src) ->
        let attrs = Type_def.attrs (Hierarchy.find h hat) in
        let h =
          List.fold_left
            (fun h a ->
              Hierarchy.move_attr h ~attr:(Attribute.name a) ~from_:hat ~to_:src)
            h attrs
        in
        Hierarchy.update h src (fun def ->
            Type_def.with_supers (in_order_of before def)
              (List.filter
                 (fun (s, _) -> not (Type_name.equal s hat))
                 (Type_def.supers def))))
      h pairs
  in
  let h = List.fold_left (fun h (hat, _) -> Hierarchy.remove h hat) h pairs in
  (* Rewrite methods back. *)
  let restored = Schema.with_hierarchy schema h in
  let rewrite_vt vt =
    match Value_type.as_named vt with
    | Some n when Type_name.Set.mem n victim_set -> Value_type.named (back n)
    | Some _ | None -> vt
  in
  let restored =
    List.fold_left
      (fun restored m ->
        let s = Method_def.signature m in
        let s' = Signature.map_param_types back s in
        let s' = { s' with result = Option.map rewrite_vt s'.result } in
        let kind' =
          match Method_def.kind m with
          | (Reader _ | Writer _) as k -> k
          | General body -> General (Body.map_local_types (fun _ -> rewrite_vt) body)
        in
        if Signature.equal s s' && kind' = Method_def.kind m then restored
        else
          Schema.update_method restored (Method_def.key m) (fun m ->
              Method_def.with_kind (Method_def.with_signature m s') kind'))
      restored (Schema.all_methods restored)
  in
  (* Re-checks only what the drop changed when [schema] is known
     checked; otherwise validates and types all of [restored]. *)
  Invariants.recheck_exn ~before:schema ~after:restored;
  restored

let drop_view schema ~before ~view =
  Error.guard (fun () -> drop_view_exn schema ~before ~view)
