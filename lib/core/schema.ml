module SMap = Map.Make (String)

type t = {
  hierarchy : Hierarchy.t;
  gfs : Generic_function.t SMap.t;
  generation : int;
  checked : bool Atomic.t;
}

(* Like [Hierarchy.generation], but covering the whole schema: method
   and generic-function updates change dispatch outcomes without
   touching the hierarchy, so dispatchers stamp against this counter
   rather than the hierarchy's.  Atomic, because sessions on several
   domains derive schemas at once and a stamp must stay unique. *)
let gen_counter = Atomic.make 0

(* [checked] records, on the value itself, that [validate_exn] and
   [Typing.check_all_methods] passed.  Both are pure functions of this
   immutable value, so the verdict never goes stale; every update below
   builds a new value whose flag starts false.  Being per value rather
   than a process-wide table, it needs no lock: two domains that check
   one value concurrently both compute the same verdict. *)
let make hierarchy gfs =
  { hierarchy;
    gfs;
    generation = Atomic.fetch_and_add gen_counter 1 + 1;
    checked = Atomic.make false
  }

let empty = make Hierarchy.empty SMap.empty
let generation t = t.generation
let checked t = Atomic.get t.checked
let mark_checked t = Atomic.set t.checked true
let hierarchy t = t.hierarchy
let with_hierarchy t hierarchy = make hierarchy t.gfs
let map_hierarchy t f = make (f t.hierarchy) t.gfs
let add_type t def = make (Hierarchy.add t.hierarchy def) t.gfs
let gfs t = List.map snd (SMap.bindings t.gfs)
let find_gf_opt t name = SMap.find_opt name t.gfs

let find_gf t name =
  match find_gf_opt t name with
  | Some g -> g
  | None -> Error.raise_ (Unknown_generic_function name)

let declare_gf t gf =
  let name = Generic_function.name gf in
  if SMap.mem name t.gfs then Error.raise_ (Unknown_generic_function name)
  else make t.hierarchy (SMap.add name gf t.gfs)

let add_method t m =
  let gf_name = Method_def.gf m in
  let gf =
    match find_gf_opt t gf_name with
    | Some g -> g
    | None ->
        Generic_function.declare
          ?result:(Signature.result (Method_def.signature m))
          ~arity:(Method_def.arity m) gf_name
  in
  make t.hierarchy (SMap.add gf_name (Generic_function.add_method gf m) t.gfs)

let update_method t key f =
  let gf = find_gf t (Method_def.Key.gf key) in
  make t.hierarchy
    (SMap.add (Generic_function.name gf)
       (Generic_function.update_method gf (Method_def.Key.id key) f)
       t.gfs)

(* Remove a method; its generic function stays declared so that bodies
   calling it remain well-formed (the call may simply have no
   applicable method). *)
let remove_method t key =
  let gf = find_gf t (Method_def.Key.gf key) in
  make t.hierarchy
    (SMap.add (Generic_function.name gf)
       (Generic_function.remove_method gf (Method_def.Key.id key))
       t.gfs)

let all_methods t =
  List.concat_map (fun g -> Generic_function.methods g) (gfs t)

let find_method_opt t key =
  Option.bind (find_gf_opt t (Method_def.Key.gf key)) (fun g ->
      Generic_function.find_method g (Method_def.Key.id key))

let find_method t key =
  match find_method_opt t key with
  | Some m -> m
  | None ->
      Error.raise_
        (Duplicate_method
           { gf = Method_def.Key.gf key; id = Method_def.Key.id key })

(* A method mk(T¹..Tⁿ) is applicable to a type T if there is some i with
   T ⪯ Tⁱ (Section 4). *)
let method_applicable_to_type index m ty =
  List.exists
    (Schema_index.subtype index ty)
    (Signature.param_types (Method_def.signature m))

let methods_applicable_to_type t index ty =
  List.filter (fun m -> method_applicable_to_type index m ty) (all_methods t)

(* A method mk(U¹..Uᵐ) is applicable to a call n(V¹..Vᵐ) if ∀i, Vⁱ ⪯ Uⁱ. *)
let method_applicable_to_call index m arg_types =
  let params = Signature.param_types (Method_def.signature m) in
  List.length params = List.length arg_types
  && List.for_all2 (Schema_index.subtype index) arg_types params

let methods_applicable_to_call t index ~gf ~arg_types =
  match find_gf_opt t gf with
  | None -> Error.raise_ (Unknown_generic_function gf)
  | Some g ->
      List.filter
        (fun m -> method_applicable_to_call index m arg_types)
        (Generic_function.methods g)

(* A "writer generic function" contains only writer methods.  Calls to
   such a generic function carry one extra syntactic argument — the new
   attribute value — that takes no part in dispatch or applicability. *)
let is_writer_gf t gf =
  match find_gf_opt t gf with
  | None -> false
  | Some g -> (
      match Generic_function.methods g with
      | [] -> false
      | ms ->
          List.for_all
            (fun m -> match Method_def.kind m with Writer _ -> true | Reader _ | General _ -> false)
            ms)

let accessors_of_attr t attr =
  List.filter
    (fun m ->
      match Method_def.accessed_attr m with
      | Some a -> Attr_name.equal a attr
      | None -> false)
    (all_methods t)

let validate_method_exn t m =
  let s = Method_def.signature m in
  List.iter
    (fun (_, ty) -> ignore (Hierarchy.find t.hierarchy ty))
    (Signature.params s);
  (match Method_def.accessed_attr m with
  | None -> ()
  | Some attr -> (
      match Signature.param_types s with
      | [ obj_ty ] ->
          if not (Hierarchy.has_attribute t.hierarchy obj_ty attr) then
            Error.raise_
              (Accessor_attr_not_inherited { meth = Method_def.id m; attr })
      | _ ->
          Error.raise_
            (Arity_mismatch
               { gf = Method_def.gf m; expected = 1; got = Signature.arity s })));
  let g = find_gf t (Method_def.gf m) in
  if Method_def.arity m <> Generic_function.arity g then
    Error.raise_
      (Arity_mismatch
         { gf = Generic_function.name g;
           expected = Generic_function.arity g;
           got = Method_def.arity m
         })

let validate_exn t =
  if not (checked t) then begin
    Hierarchy.validate_exn t.hierarchy;
    List.iter (validate_method_exn t) (all_methods t)
  end

let validate t = Error.guard (fun () -> validate_exn t)

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@ %a@]" Hierarchy.pp t.hierarchy
    Fmt.(list ~sep:(any "@ ") Generic_function.pp)
    (gfs t)
