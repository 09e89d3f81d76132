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

type loc = { l_block : Columns.t; l_row : int }

type t = {
  mutable schema : Schema.t;
  mutable index : Schema_index.t;
  mutable next : int;
  mutable tick : int;
  pool : Columns.Pool.t;
  mutable locs : (Oid.t, loc) Hashtbl.t;
  blocks : (Type_name.t, Columns.t list ref) Hashtbl.t;
  backrefs : (Oid.t, (Oid.t * Attr_name.t, unit) Hashtbl.t) Hashtbl.t;
  mutable journal : (op -> unit) option;
}

exception Store_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Store_error s)) fmt

module Obs = Tdp_obs
let m_extent_ns = Obs.Metrics.histogram "store.extent_ns"

let create schema =
  { schema;
    index = Schema_index.of_hierarchy (Schema.hierarchy schema);
    next = 1;
    tick = 0;
    pool = Columns.Pool.create ();
    locs = Hashtbl.create 64;
    blocks = Hashtbl.create 16;
    backrefs = Hashtbl.create 64;
    journal = None
  }

let schema t = t.schema
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

let find_loc t oid =
  match Hashtbl.find_opt t.locs oid with
  | Some l -> l
  | None -> no_object oid

let referent t oid =
  Option.map (fun l -> l.l_block.Columns.b_ty) (Hashtbl.find_opt t.locs oid)

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
          let b = Columns.make ~pool:t.pool ~gen ty layout in
          cell := b :: bs;
          b)

(* ---- object creation ------------------------------------------------ *)

let insert_row t ty oid vals =
  let b = head_block t ty in
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
  Hashtbl.replace t.locs oid { l_block = b; l_row = row }

let new_object t ty ~init =
  let vals = build_row t.index ~referent:(referent t) ty ~init in
  let oid = Oid.of_int t.next in
  record t (Op_new { oid; ty; init });
  t.next <- t.next + 1;
  insert_row t ty oid vals;
  oid

(* Re-create an object under a fixed OID (used when loading a dump). *)
let restore_object t ~oid ~ty ~init =
  check_fresh_oid ~referent:(referent t) oid;
  let vals = build_row t.index ~referent:(referent t) ty ~init in
  record t (Op_new { oid; ty; init });
  t.next <- max t.next (Oid.to_int oid + 1);
  insert_row t ty oid vals;
  oid

(* ---- access --------------------------------------------------------- *)

let slots_of_loc (l : loc) =
  List.fold_left
    (fun m (a, v) -> Attr_name.Map.add a v m)
    Attr_name.Map.empty
    (Columns.row_bindings l.l_block l.l_row)

let find t oid =
  let l = find_loc t oid in
  { oid; ty = l.l_block.Columns.b_ty; slots = slots_of_loc l }

let type_of t oid = (find_loc t oid).l_block.Columns.b_ty

let read_slot oid (l : loc) attr =
  match Columns.pos l.l_block attr with
  | Some col -> Columns.read l.l_block ~row:l.l_row ~col
  | None -> no_attr oid l.l_block.Columns.b_ty attr

let get_attr t oid attr = read_slot oid (find_loc t oid) attr

(* Batch read with one location resolution — the materialized-view
   refresh loop reads every view attribute of a row at once. *)
let get_attrs t oid attrs = List.map (read_slot oid (find_loc t oid)) attrs

let row_stamp t oid =
  let l = find_loc t oid in
  Columns.stamp l.l_block l.l_row

let set_attr t oid attr v =
  let l = find_loc t oid in
  let b = l.l_block in
  let col =
    match Columns.pos b attr with
    | Some col -> col
    | None -> no_attr oid b.Columns.b_ty attr
  in
  check_set t.index ~referent:(referent t) b.Columns.b_ty attr v;
  record t (Op_set { oid; attr; value = v });
  (match Columns.read b ~row:l.l_row ~col with
  | Value.Ref old -> remove_backref t ~target:old ~src:oid ~attr
  | _ -> ());
  (match (v : Value.t) with
  | Value.Ref r -> add_backref t ~target:r ~src:oid ~attr
  | _ -> ());
  Columns.write b ~row:l.l_row ~col v;
  t.tick <- t.tick + 1;
  Columns.set_stamp b l.l_row t.tick

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
          (match Columns.pos ol.l_block attr with
          | Some col ->
              Columns.write ol.l_block ~row:ol.l_row ~col Value.Null;
              Columns.set_stamp ol.l_block ol.l_row t.tick
          | None -> ());
          remove_backref t ~target:oid ~src:other ~attr)
        refs);
  (* drop the deleted row's outgoing references from the index *)
  let b = l.l_block in
  Array.iteri
    (fun col a ->
      match Columns.read b ~row:l.l_row ~col with
      | Value.Ref r ->
          remove_backref t ~target:r ~src:oid ~attr:(Attribute.name a)
      | _ -> ())
    b.Columns.b_layout;
  Hashtbl.remove t.backrefs oid;
  Columns.release b l.l_row;
  Hashtbl.remove t.locs oid

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
         { oid; ty = l.l_block.Columns.b_ty; slots = slots_of_loc l })

let slots t oid = slots_of_loc (find_loc t oid)

let fold_rows t ~init f =
  Hashtbl.fold (fun oid l acc -> (oid, l) :: acc) t.locs []
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  |> List.fold_left
       (fun acc (oid, l) ->
         f acc oid l.l_block.Columns.b_ty
           (Columns.row_bindings l.l_block l.l_row))
       init

(* ---- columnar internals (scan path, stats) -------------------------- *)

let scan_blocks = extent_blocks
let string_pool t = t.pool

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
