type t = {
  defs : Type_def.t Type_name.Map.t;
  generation : int;
  (* Name-ordered views of [defs], computed on first use.  Hierarchies
     are immutable, so the lists can never go stale; computing them on
     demand keeps functional updates O(log n) instead of paying the
     O(n) bindings walk eagerly on every [add].  The cells are atomics
     rather than lazies because a hierarchy is shared by sessions on
     several domains, and forcing one lazy from two domains at once
     raises [Lazy.Undefined]; a racing domain here merely computes the
     same list twice. *)
  types_memo : Type_def.t list option Atomic.t;
  names_memo : Type_name.t list option Atomic.t;
}

(* Every constructed hierarchy value gets a fresh stamp: two values
   with the same generation are the same value (modulo the shared
   [empty]), so derived structures such as [Schema_index] can detect
   staleness with one integer comparison.  Atomic, so stamps stay
   unique when several domains build hierarchies at once. *)
let gen_counter = Atomic.make 0

let make defs =
  { defs;
    generation = Atomic.fetch_and_add gen_counter 1 + 1;
    types_memo = Atomic.make None;
    names_memo = Atomic.make None
  }

let memo cell compute =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      let v = compute () in
      Atomic.set cell (Some v);
      v

let empty = make Type_name.Map.empty
let generation h = h.generation
let mem h n = Type_name.Map.mem n h.defs
let find_opt h n = Type_name.Map.find_opt n h.defs

let find h n =
  match find_opt h n with
  | Some d -> d
  | None -> Error.raise_ (Unknown_type n)

let add h def =
  let n = Type_def.name def in
  if mem h n then Error.raise_ (Duplicate_type n);
  make (Type_name.Map.add n def h.defs)

let update h n f =
  let def = find h n in
  make (Type_name.Map.add n (f def) h.defs)

let types h =
  memo h.types_memo (fun () -> List.map snd (Type_name.Map.bindings h.defs))

let type_names h =
  memo h.names_memo (fun () -> List.map fst (Type_name.Map.bindings h.defs))
let cardinal h = Type_name.Map.cardinal h.defs
let fold f h init = Type_name.Map.fold (fun _ d acc -> f d acc) h.defs init

let direct_supers h n = Type_def.supers (find h n)
let direct_super_names h n = Type_def.super_names (find h n)

let direct_subs h n =
  fold
    (fun d acc -> if Type_def.has_super d n then Type_def.name d :: acc else acc)
    h []
  |> List.rev

(* Ancestors of [n], excluding [n] itself.  The visited set makes the
   walk terminate even on (invalid) cyclic input. *)
let ancestors h n =
  let rec go acc n =
    List.fold_left
      (fun acc s ->
        if Type_name.Set.mem s acc then acc else go (Type_name.Set.add s acc) s)
      acc (direct_super_names h n)
  in
  go Type_name.Set.empty n

let ancestors_or_self h n = Type_name.Set.add n (ancestors h n)

let descendants h n =
  fold
    (fun d acc ->
      let m = Type_def.name d in
      if (not (Type_name.equal m n)) && Type_name.Set.mem n (ancestors h m) then
        Type_name.Set.add m acc
      else acc)
    h Type_name.Set.empty

let subtype h a b = Type_name.equal a b || Type_name.Set.mem b (ancestors h a)
let proper_subtype h a b = (not (Type_name.equal a b)) && subtype h a b
let supertype h a b = subtype h b a

(* Supertype-closure walk in precedence-first, visit-once order: the
   type itself, then recursively each direct supertype in ascending
   precedence.  Because attribute names are unique, this order is only
   cosmetic for attribute collection, but it makes output deterministic
   and mirrors the paper's reading of the figures. *)
let precedence_order h n =
  let visited = ref Type_name.Set.empty in
  let out = ref [] in
  let rec go n =
    if not (Type_name.Set.mem n !visited) then begin
      visited := Type_name.Set.add n !visited;
      out := n :: !out;
      List.iter go (direct_super_names h n)
    end
  in
  go n;
  List.rev !out

let all_attributes h n =
  List.concat_map (fun m -> Type_def.attrs (find h m)) (precedence_order h n)

let all_attribute_names h n =
  List.map Attribute.name (all_attributes h n)

let has_attribute h n a =
  List.exists (Attr_name.equal a) (all_attribute_names h n)

let find_attribute h n a =
  List.find_opt
    (fun at -> Attr_name.equal (Attribute.name at) a)
    (all_attributes h n)

let attr_owner h a =
  let owners =
    fold
      (fun d acc -> if Type_def.has_local_attr d a then Type_def.name d :: acc else acc)
      h []
  in
  match owners with
  | [ o ] -> Some o
  | [] -> None
  | types -> Error.raise_ (Duplicate_attribute { attr = a; types })

(* Attributes of the list [attrs] that are available at [n], in the
   order they appear in [attrs] (the paper's "list of attributes in A
   that are available at s"). *)
let available_at h n attrs =
  List.filter (has_attribute h n) attrs

let roots h =
  fold (fun d acc -> if Type_def.supers d = [] then Type_def.name d :: acc else acc) h []
  |> List.rev

let leaves h =
  let with_subs =
    fold
      (fun d acc ->
        List.fold_left
          (fun acc s -> Type_name.Set.add s acc)
          acc (Type_def.super_names d))
      h Type_name.Set.empty
  in
  fold
    (fun d acc ->
      let n = Type_def.name d in
      if Type_name.Set.mem n with_subs then acc else n :: acc)
    h []
  |> List.rev

(* Structure mutations used by the factoring algorithms. *)

let add_super h ~sub ~super ~prec =
  let _ = find h super in
  update h sub (fun d -> Type_def.add_super d super prec)

let move_attr h ~attr ~from_ ~to_ =
  let src = find h from_ in
  match Type_def.find_local_attr src attr with
  | None -> Error.raise_ (Attribute_not_available { ty = from_; attr })
  | Some at ->
      let h = update h from_ (fun d -> Type_def.remove_attr d attr) in
      update h to_ (fun d -> Type_def.add_attr d at)

let remove h n =
  let _ = find h n in
  make (Type_name.Map.remove n h.defs)

let fresh_name h base =
  let base = Type_name.to_string base in
  let candidate = Type_name.of_string (base ^ "_hat") in
  if not (mem h candidate) then candidate
  else
    let rec go i =
      let c = Type_name.of_string (Fmt.str "%s_hat%d" base i) in
      if mem h c then go (i + 1) else c
    in
    go 2

(* Validation *)

let check_acyclic h =
  (* DFS 3-coloring; reports one cycle path on failure. *)
  let white = 0 and grey = 1 and black = 2 in
  let color = Hashtbl.create 64 in
  let col n = Option.value ~default:white (Hashtbl.find_opt color n) in
  let exception Found of Type_name.t list in
  let rec visit path n =
    if col n = grey then raise (Found (List.rev (n :: path)))
    else if col n = white then begin
      Hashtbl.replace color n grey;
      List.iter
        (fun s -> if mem h s then visit (n :: path) s)
        (direct_super_names h n);
      Hashtbl.replace color n black
    end
  in
  match List.iter (visit []) (type_names h) with
  | () -> ()
  | exception Found cycle -> Error.raise_ (Cycle cycle)

let check_supers_exist h =
  fold
    (fun d () ->
      List.iter
        (fun s -> if not (mem h s) then Error.raise_ (Unknown_type s))
        (Type_def.super_names d))
    h ()

let check_unique_attrs h =
  let seen = Hashtbl.create 64 in
  fold
    (fun d () ->
      List.iter
        (fun at ->
          let a = Attribute.name at in
          match Hashtbl.find_opt seen a with
          | Some first ->
              Error.raise_
                (Duplicate_attribute { attr = a; types = [ first; Type_def.name d ] })
          | None -> Hashtbl.replace seen a (Type_def.name d))
        (Type_def.attrs d))
    h ()

let check_precedences h =
  fold
    (fun d () ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (_, p) ->
          if Hashtbl.mem seen p then
            Error.raise_ (Duplicate_precedence { sub = Type_def.name d; prec = p })
          else Hashtbl.replace seen p ())
        (Type_def.supers d))
    h ()

let validate_exn h =
  check_supers_exist h;
  check_acyclic h;
  check_unique_attrs h;
  check_precedences h

let validate h = Error.guard (fun () -> validate_exn h)

let equal a b =
  Type_name.Map.equal
    (fun (x : Type_def.t) (y : Type_def.t) ->
      Type_def.origin x = Type_def.origin y
      && List.equal Attribute.equal (Type_def.attrs x) (Type_def.attrs y)
      && List.equal
           (fun (n, p) (m, q) -> Type_name.equal n m && p = q)
           (Type_def.supers x) (Type_def.supers y))
    a.defs b.defs

let pp ppf h =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:(any "@ ") Type_def.pp) (types h)
