open Tdp_core

type obj = {
  oid : Oid.t;
  ty : Type_name.t;
  mutable slots : Value.t Attr_name.Map.t;
}

type delete_policy = Restrict | Nullify

(* The mutation vocabulary of a database, as seen by a journal.  Every
   state change is reported as exactly one [op] {e after} validation
   and {e before} the in-memory structures are touched, so a journal
   that appends each op durably realizes write-ahead logging: replaying
   a prefix of the journal reproduces a prefix of the run. *)
type op =
  | Op_new of { oid : Oid.t; ty : Type_name.t; init : (Attr_name.t * Value.t) list }
  | Op_set of { oid : Oid.t; attr : Attr_name.t; value : Value.t }
  | Op_delete of { oid : Oid.t; policy : delete_policy }
  | Op_set_schema of { source : string }

(* Storage is columnar ({!Columns}): objects of one type created under
   one compiled layout share a struct-of-arrays block, and an object is
   addressed by (block, row).  Blocks are keyed by type name, newest
   layout first — after [set_schema] changes a type's cumulative state,
   new instances go to a fresh block while existing instances keep the
   layout they were created with (exactly the old per-object-map
   semantics, where a slot set was fixed at creation time).

   [backrefs] is the maintained reverse-reference index: for every
   referenced OID, the set of (referrer, attribute) slots currently
   holding a [Ref] to it.  [referrers] and [delete] read it instead of
   scanning the whole store.

   [tick] is a logical clock bumped once per mutation; every mutation
   stamps the rows it touches, and materialized-view refresh uses the
   stamps to skip rows unchanged since its last run. *)

type t = {
  mutable schema : Schema.t;
  mutable index : Schema_index.t;
  mutable next : int;
  mutable tick : int;
  pool : Columns.Pool.t;
  mutable locs : (Oid.t, int) Hashtbl.t;  (* a packed [loc] *)
  mutable numbered : Columns.t array;  (* blocks by [b_num] *)
  mutable n_blocks : int;
  blocks : (Type_name.t, Columns.t list ref) Hashtbl.t;
  backrefs : (Oid.t, (Oid.t * Attr_name.t, unit) Hashtbl.t) Hashtbl.t;
  mutable journal : (op -> unit) option;
}

exception Store_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Store_error s)) fmt

module Obs = Tdp_obs
let m_extent_ns = Obs.Metrics.histogram "store.extent_ns"

let create ?index schema =
  { schema;
    index =
      (match index with
      | Some index -> index
      | None -> Schema_index.of_hierarchy (Schema.hierarchy schema));
    next = 1;
    tick = 0;
    pool = Columns.Pool.create ();
    locs = Hashtbl.create 64;
    numbered = [||];
    n_blocks = 0;
    blocks = Hashtbl.create 16;
    backrefs = Hashtbl.create 64;
    journal = None
  }

let schema t = t.schema
let index t = t.index
let set_journal t j = t.journal <- j
let record t op = match t.journal with Some f -> f op | None -> ()

(* Swap in a refactored schema.  Projection never changes the
   cumulative state of pre-existing types (the paper's invariant), so
   stored objects — whose rows keep their creation-time layout — remain
   valid verbatim.  In journaling mode the swap must be replayable,
   which requires the schema's surface source. *)
let set_schema ?source t schema =
  (match (t.journal, source) with
  | None, _ -> ()
  | Some _, Some src -> record t (Op_set_schema { source = src })
  | Some _, None ->
      fail "set_schema on a journaled database requires the schema source");
  t.schema <- schema;
  t.index <- Schema_index.of_hierarchy (Schema.hierarchy schema)

let hierarchy t = Schema.hierarchy t.schema
let tick t = t.tick

(* ---- the object rules ---------------------------------------------- *)

(* Every check an op passes, written once over a compiled index and a
   [referent] lookup (the type of a live OID), so the columnar store
   and {!Tdp_txn.Mvcc}'s snapshots give one verdict and one message. *)

type referent = Oid.t -> Type_name.t option

let no_object oid = fail "no object %a" Oid.pp oid

let no_attr oid ty attr =
  fail "object %a of type %s has no attribute %s" Oid.pp oid
    (Type_name.to_string ty) (Attr_name.to_string attr)

let unknown_attrs ty = function
  | [ n ] ->
      fail "type %s has no attribute %s" (Type_name.to_string ty) (Attr_name.to_string n)
  | ns ->
      fail "type %s has no attributes %s" (Type_name.to_string ty)
        (String.concat ", " (List.map Attr_name.to_string ns))

let check_value index ~referent attr_ty v =
  match (attr_ty, (v : Value.t)) with
  | _, Value.Null -> ()
  | Value_type.Prim p, v ->
      if not (Value.conforms_prim v p) then
        fail "value %a does not conform to %s" Value.pp v
          (Value_type.prim_to_string p)
  | Value_type.Named n, Value.Ref o -> (
      match referent o with
      | None -> fail "dangling reference %a" Oid.pp o
      | Some target_ty ->
          if not (Schema_index.subtype index target_ty n) then
            fail "object %a of type %s is not a %s" Oid.pp o
              (Type_name.to_string target_ty)
              (Type_name.to_string n))
  | Value_type.Named _, v -> fail "value %a is not an object reference" Value.pp v
  | Value_type.Unknown, _ -> ()

let check_fresh_oid ~referent oid =
  if referent oid <> None then fail "oid %a already in use" Oid.pp oid;
  if Oid.to_int oid < 1 then fail "non-positive oid %a" Oid.pp oid

(* Validate an init list against the layout of [ty] and return the full
   row, one value per column.  The init list is folded into a map once
   (first occurrence of a name wins); values are checked in layout
   order, then every unknown init attribute is reported at once. *)
let build_row index ~referent ty ~init =
  if not (Schema_index.mem index ty) then
    fail "unknown type %s" (Type_name.to_string ty);
  let layout = Schema_index.layout index ty in
  let init_map =
    List.fold_left
      (fun m (n, v) ->
        if Attr_name.Map.mem n m then m else Attr_name.Map.add n v m)
      Attr_name.Map.empty init
  in
  let vals =
    Array.map
      (fun a ->
        match Attr_name.Map.find_opt (Attribute.name a) init_map with
        | Some v ->
            check_value index ~referent (Attribute.ty a) v;
            v
        | None -> Value.Null)
      layout
  in
  let known = Schema_index.layout_positions index ty in
  let unknown =
    List.fold_left
      (fun acc (n, _) ->
        if Attr_name.Map.mem n known || List.exists (Attr_name.equal n) acc then
          acc
        else n :: acc)
      [] init
    |> List.rev
  in
  if unknown <> [] then unknown_attrs ty unknown;
  vals

let check_set index ~referent ty attr v =
  match Attr_name.Map.find_opt attr (Schema_index.layout_positions index ty) with
  | Some i ->
      check_value index ~referent (Attribute.ty (Schema_index.layout index ty).(i)) v
  | None -> unknown_attrs ty [ attr ]

let check_delete policy oid refs =
  match (policy, refs) with
  | Restrict, (other, attr) :: _ ->
      fail "cannot delete %a: referenced by %a.%s" Oid.pp oid Oid.pp other
        (Attr_name.to_string attr)
  | _ -> ()

let schema_of_source load_schema source =
  match load_schema with
  | Some load -> load source
  | None -> fail "schema op requires a schema loader"

(* An object's location (block, row), packed in one int: the OID table
   then holds no pointers to blocks, so a copy of the database copies
   it without rewriting a single entry. *)
type loc = int

let loc (b : Columns.t) row = (b.Columns.b_num lsl 32) lor row
let block t (l : loc) = t.numbered.(l lsr 32)
let row (l : loc) = l land 0xffff_ffff

let find_loc t oid =
  match Hashtbl.find_opt t.locs oid with
  | Some l -> l
  | None -> no_object oid

let type_of_opt t oid =
  Option.map (fun l -> (block t l).Columns.b_ty) (Hashtbl.find_opt t.locs oid)

(* ---- reverse-reference index ---------------------------------------- *)

let add_backref t ~target ~src ~attr =
  let tbl =
    match Hashtbl.find_opt t.backrefs target with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace t.backrefs target tbl;
        tbl
  in
  Hashtbl.replace tbl (src, attr) ()

let remove_backref t ~target ~src ~attr =
  match Hashtbl.find_opt t.backrefs target with
  | None -> ()
  | Some tbl ->
      Hashtbl.remove tbl (src, attr);
      if Hashtbl.length tbl = 0 then Hashtbl.remove t.backrefs target

(* ---- block routing -------------------------------------------------- *)

let layout_matches (a : Attribute.t array) (b : Attribute.t array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i at -> if not (Attribute.equal at b.(i)) then ok := false) a;
  !ok

(* The block new instances of [ty] go to: the newest block if its
   layout still matches the current hierarchy's cumulative state for
   [ty], a fresh block otherwise.  The generation stamp makes the match
   O(1) on the no-evolution fast path. *)
let head_block t ty =
  let gen = Schema_index.generation t.index in
  let cell =
    match Hashtbl.find_opt t.blocks ty with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.replace t.blocks ty c;
        c
  in
  match !cell with
  | b :: _ when b.Columns.b_gen = gen -> b
  | bs -> (
      let layout = Schema_index.layout t.index ty in
      match bs with
      | b :: _ when layout_matches b.Columns.b_layout layout ->
          b.Columns.b_gen <- gen;
          b
      | _ ->
          let b = Columns.make ~pool:t.pool ~gen ~num:t.n_blocks ty layout in
          if t.n_blocks = Array.length t.numbered then begin
            let a = Array.make (max 8 (2 * t.n_blocks)) b in
            Array.blit t.numbered 0 a 0 t.n_blocks;
            t.numbered <- a
          end;
          t.numbered.(t.n_blocks) <- b;
          t.n_blocks <- t.n_blocks + 1;
          cell := b :: bs;
          b)

(* ---- object creation ------------------------------------------------ *)

let insert_into t b oid vals =
  let row = Columns.alloc b oid in
  t.tick <- t.tick + 1;
  Columns.set_stamp b row t.tick;
  Array.iteri
    (fun col v ->
      Columns.write b ~row ~col v;
      match (v : Value.t) with
      | Value.Ref r ->
          add_backref t ~target:r ~src:oid
            ~attr:(Attribute.name b.Columns.b_layout.(col))
      | _ -> ())
    vals;
  Hashtbl.replace t.locs oid (loc b row)

let insert_row t ty oid vals = insert_into t (head_block t ty) oid vals

let new_object t ty ~init =
  let vals = build_row t.index ~referent:(type_of_opt t) ty ~init in
  let oid = Oid.of_int t.next in
  record t (Op_new { oid; ty; init });
  t.next <- t.next + 1;
  insert_row t ty oid vals;
  oid

(* Re-create an object under a fixed OID (used when loading a dump). *)
let restore_object t ~oid ~ty ~init =
  check_fresh_oid ~referent:(type_of_opt t) oid;
  let vals = build_row t.index ~referent:(type_of_opt t) ty ~init in
  record t (Op_new { oid; ty; init });
  t.next <- max t.next (Oid.to_int oid + 1);
  insert_row t ty oid vals;
  oid

(* ---- access --------------------------------------------------------- *)

let slots_of_loc t l =
  List.fold_left
    (fun m (a, v) -> Attr_name.Map.add a v m)
    Attr_name.Map.empty
    (Columns.row_bindings (block t l) (row l))

let find t oid =
  let l = find_loc t oid in
  { oid; ty = (block t l).Columns.b_ty; slots = slots_of_loc t l }

let type_of t oid = (block t (find_loc t oid)).Columns.b_ty

let read_slot t oid l attr =
  let b = block t l in
  match Columns.pos b attr with
  | Some col -> Columns.read b ~row:(row l) ~col
  | None -> no_attr oid b.Columns.b_ty attr

let get_attr t oid attr = read_slot t oid (find_loc t oid) attr

(* Batch read with one location resolution — the materialized-view
   refresh loop reads every view attribute of a row at once. *)
let get_attrs t oid attrs = List.map (read_slot t oid (find_loc t oid)) attrs

let row_stamp t oid =
  let l = find_loc t oid in
  Columns.stamp (block t l) (row l)

let set_attr t oid attr v =
  let l = find_loc t oid in
  let b = block t l and row = row l in
  let col =
    match Columns.pos b attr with
    | Some col -> col
    | None -> no_attr oid b.Columns.b_ty attr
  in
  check_set t.index ~referent:(type_of_opt t) b.Columns.b_ty attr v;
  record t (Op_set { oid; attr; value = v });
  (match Columns.read b ~row ~col with
  | Value.Ref old -> remove_backref t ~target:old ~src:oid ~attr
  | _ -> ());
  (match (v : Value.t) with
  | Value.Ref r -> add_backref t ~target:r ~src:oid ~attr
  | _ -> ());
  Columns.write b ~row ~col v;
  t.tick <- t.tick + 1;
  Columns.set_stamp b row t.tick

(* ---- extents -------------------------------------------------------- *)

(* The live blocks whose rows belong to the (deep) extent of [ty],
   mirroring the pre-columnar per-object subtype fold — including its
   behaviour on types evolved away: an object whose type is no longer
   in the hierarchy made the fold raise [Unknown_type] (unless its type
   name was [ty] itself, which matched by name). *)
let extent_blocks t ty =
  Hashtbl.iter
    (fun n cell ->
      if
        (not (Type_name.equal n ty))
        && (not (Schema_index.mem t.index n))
        && List.exists (fun b -> Columns.live b > 0) !cell
      then Error.raise_ (Unknown_type n))
    t.blocks;
  let live_of n =
    match Hashtbl.find_opt t.blocks n with
    | Some cell -> List.filter (fun b -> Columns.live b > 0) !cell
    | None -> []
  in
  if Schema_index.mem t.index ty then
    List.concat_map live_of (Schema_index.descendants_or_self t.index ty)
  else live_of ty

(* Deep extent in OID order: concatenation of the subtype blocks' live
   rows — no full-store fold.  Blocks hold disjoint OID sets, and each
   yields its rows pre-sorted (or sorts on demand after free-list
   reuse), so the merge is linear. *)
let extent t ty =
  Obs.Metrics.time m_extent_ns (fun () ->
      List.fold_left
        (fun acc b -> List.merge Oid.compare acc (Columns.live_oids b))
        [] (extent_blocks t ty))

(* Objects holding a reference to [oid], with the referring slot — read
   from the reverse-reference index, not a store scan. *)
let referrers t oid =
  match Hashtbl.find_opt t.backrefs oid with
  | None -> []
  | Some tbl ->
      Hashtbl.fold
        (fun (src, attr) () acc ->
          if Oid.equal src oid then acc else (src, attr) :: acc)
        tbl []
      |> List.sort (fun (a, x) (b, y) ->
             match Oid.compare a b with 0 -> Attr_name.compare x y | c -> c)

(* Free an object's row and drop its outgoing references from the
   index.  References {e to} it are the caller's business. *)
let release_row t oid l =
  let b = block t l and row = row l in
  Array.iteri
    (fun col a ->
      match Columns.read b ~row ~col with
      | Value.Ref r ->
          remove_backref t ~target:r ~src:oid ~attr:(Attribute.name a)
      | _ -> ())
    b.Columns.b_layout;
  Columns.release b row;
  Hashtbl.remove t.locs oid

let delete t ?(policy = Restrict) oid =
  let l = find_loc t oid in
  let refs = referrers t oid in
  check_delete policy oid refs;
  record t (Op_delete { oid; policy });
  t.tick <- t.tick + 1;
  (match policy with
  | Restrict -> ()
  | Nullify ->
      (* null out referring slots directly — this mirrors the journal
         contract of the map-backed store: replaying [Op_delete]
         re-derives the nullifications, so they are not journaled *)
      List.iter
        (fun (other, attr) ->
          let ol = find_loc t other in
          let ob = block t ol in
          (match Columns.pos ob attr with
          | Some col ->
              Columns.write ob ~row:(row ol) ~col Value.Null;
              Columns.set_stamp ob (row ol) t.tick
          | None -> ());
          remove_backref t ~target:oid ~src:other ~attr)
        refs);
  release_row t oid l;
  Hashtbl.remove t.backrefs oid

let count t = Hashtbl.length t.locs
let next_oid t = t.next

(* Pre-size the OID table for a bulk load of [n] objects, so recovery
   does not grow a 64-bucket table through a million inserts. *)
let reserve t n =
  if n > Hashtbl.length t.locs then begin
    let h = Hashtbl.create (max 64 n) in
    Hashtbl.iter (fun k v -> Hashtbl.replace h k v) t.locs;
    t.locs <- h
  end

let objects t =
  Hashtbl.fold (fun oid l acc -> (oid, l) :: acc) t.locs []
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  |> List.map (fun (oid, l) ->
         { oid; ty = (block t l).Columns.b_ty; slots = slots_of_loc t l })

let slots t oid = slots_of_loc t (find_loc t oid)

let fold_rows t ~init f =
  Hashtbl.fold (fun oid l acc -> (oid, l) :: acc) t.locs []
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  |> List.fold_left
       (fun acc (oid, l) ->
         let b = block t l in
         f acc oid b.Columns.b_ty (Columns.row_bindings b (row l)))
       init

(* ---- copies and unchecked row writes (MVCC snapshots) --------------- *)

(* A copy that shares nothing mutable with [t]: every block's arrays,
   the OID table (packed locations need no rewriting), the reverse
   index and the string pool are duplicated.  [index] is the caller's
   compiled schema, so no intern-table lookup happens here. *)
let copy t ~schema ~index =
  let pool = Columns.Pool.copy t.pool in
  let numbered = Array.init t.n_blocks (fun i -> Columns.copy ~pool t.numbered.(i)) in
  let blocks = Hashtbl.create (Hashtbl.length t.blocks) in
  Hashtbl.iter
    (fun ty cell ->
      Hashtbl.add blocks ty
        (ref (List.map (fun b -> numbered.(b.Columns.b_num)) !cell)))
    t.blocks;
  let backrefs = Hashtbl.create (max 64 (Hashtbl.length t.backrefs)) in
  Hashtbl.iter (fun target tbl -> Hashtbl.add backrefs target (Hashtbl.copy tbl)) t.backrefs;
  { schema; index; next = t.next; tick = t.tick; pool; locs = Hashtbl.copy t.locs;
    numbered; n_blocks = t.n_blocks; blocks; backrefs; journal = None }

(* Install a row state validated elsewhere.  An object that keeps its
   type and slot set is overwritten in its own row (so an object created
   under an older layout keeps that layout); otherwise the old row goes
   and the object moves to the head block of [ty].  References to [oid]
   stay indexed either way: the object keeps its identity. *)
let put_row t oid ty slots =
  let value_of a =
    Option.value ~default:Value.Null (Attr_name.Map.find_opt (Attribute.name a) slots)
  in
  t.tick <- t.tick + 1;
  t.next <- max t.next (Oid.to_int oid + 1);
  let in_place l =
    let b = block t l in
    Type_name.equal b.Columns.b_ty ty
    && Attr_name.Map.for_all (fun a _ -> Columns.pos b a <> None) slots
  in
  match Hashtbl.find_opt t.locs oid with
  | Some l when in_place l ->
      let b = block t l and row = row l in
      Array.iteri
        (fun col a ->
          let v = value_of a and attr = Attribute.name a in
          (match Columns.read b ~row ~col with
          | Value.Ref old -> remove_backref t ~target:old ~src:oid ~attr
          | _ -> ());
          (match v with Value.Ref r -> add_backref t ~target:r ~src:oid ~attr | _ -> ());
          Columns.write b ~row ~col v)
        b.Columns.b_layout;
      Columns.set_stamp b row t.tick
  | found ->
      Option.iter (release_row t oid) found;
      let b = head_block t ty in
      insert_into t b oid (Array.map value_of b.Columns.b_layout)

let remove_row t oid =
  match Hashtbl.find_opt t.locs oid with
  | None -> ()
  | Some l ->
      t.tick <- t.tick + 1;
      release_row t oid l

let advance_next_oid t n = t.next <- max t.next n

(* ---- columnar internals (scan path, stats) -------------------------- *)

let scan_blocks = extent_blocks

type block_stat = {
  st_ty : Type_name.t;
  st_live : int;
  st_rows : int;
  st_capacity : int;
  st_free : int;
  st_columns : int;
}

let stats t =
  Hashtbl.fold
    (fun ty cell acc ->
      List.fold_left
        (fun acc b ->
          { st_ty = ty;
            st_live = Columns.live b;
            st_rows = Columns.length b;
            st_capacity = Columns.capacity b;
            st_free = Columns.free_rows b;
            st_columns = Array.length b.Columns.b_cols
          }
          :: acc)
        acc !cell)
    t.blocks []
  |> List.sort (fun a b ->
         match Type_name.compare a.st_ty b.st_ty with
         | 0 -> compare b.st_rows a.st_rows
         | c -> c)
