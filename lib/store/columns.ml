open Tdp_core

(* Struct-of-arrays extent blocks.

   A block holds every live instance of one type that was created under
   one attribute layout: one typed, unboxed column per attribute of the
   type's cumulative state, a null bitmap per column, a row → OID map,
   per-row modification stamps (the database's logical tick, used by
   materialized-view refresh to skip clean rows), a liveness bitmap and
   a free-list of released rows.

   Row ids are stable for the lifetime of an object: [alloc] either
   appends or reuses a freed slot, and nothing ever moves a live row.
   Appending in increasing-OID order (the allocator's behaviour) keeps
   [b_sorted] true, so extents concatenate pre-sorted runs; free-list
   reuse or out-of-order restore clears the flag and scans fall back to
   an explicit sort.  A block whose last live row is released resets to
   empty and becomes sorted again. *)

module Obs = Tdp_obs
let m_build_ns = Obs.Metrics.histogram "columns.build_ns"
let c_blocks = Obs.Metrics.counter "columns.blocks_built"
let c_grows = Obs.Metrics.counter "columns.grows"

(* ---- string interning ---------------------------------------------- *)

(* One pool per database: string-typed columns store dense pool ids, so
   equality scans compare ints and repeated values share one heap
   string.  Ids are never recycled — the pool only grows. *)
module Pool = struct
  type t = {
    mutable strings : string array;
    mutable n : int;
    ids : (string, int) Hashtbl.t;
  }

  let create () = { strings = Array.make 16 ""; n = 0; ids = Hashtbl.create 64 }

  let id t s =
    match Hashtbl.find_opt t.ids s with
    | Some i -> i
    | None ->
        if t.n = Array.length t.strings then begin
          let a = Array.make (2 * t.n) "" in
          Array.blit t.strings 0 a 0 t.n;
          t.strings <- a
        end;
        let i = t.n in
        t.strings.(i) <- s;
        t.n <- t.n + 1;
        Hashtbl.replace t.ids s i;
        i

  let find t s = Hashtbl.find_opt t.ids s
  let get t i = t.strings.(i)
  let size t = t.n

  let copy t = { t with strings = Array.copy t.strings; ids = Hashtbl.copy t.ids }
end

(* ---- columns -------------------------------------------------------- *)

type data =
  | Ints of int array
  | Floats of float array
  | Strings of int array  (* pool ids *)
  | Bools of Bytes.t
  | Dates of int array
  | Refs of int array  (* OIDs as ints *)
  | Boxed of Value.t array  (* Value_type.Unknown attributes *)

type column = {
  c_attr : Attr_name.t;
  c_ty : Value_type.t;
  mutable c_data : data;
  mutable c_nulls : Bytes.t;  (* byte per row; '\001' = null *)
}

type t = {
  b_num : int;  (* the database's number for this block *)
  b_ty : Type_name.t;
  b_pool : Pool.t;
  b_layout : Attribute.t array;
  b_pos : int Attr_name.Map.t;  (* attr name -> column index *)
  b_name_order : int array;  (* column indexes, sorted by attr name *)
  b_cols : column array;
  mutable b_gen : int;  (* index generation whose layout this matches *)
  mutable b_cap : int;
  mutable b_len : int;  (* rows ever allocated (high-water mark) *)
  mutable b_live : int;
  mutable b_oids : int array;
  mutable b_stamps : int array;
  mutable b_alive : Bytes.t;
  mutable b_free : int list;
  mutable b_sorted : bool;
  mutable b_max_oid : int;
}

let data_for (vt : Value_type.t) cap : data =
  match vt with
  | Prim Int -> Ints (Array.make cap 0)
  | Prim Float -> Floats (Array.make cap 0.)
  | Prim String -> Strings (Array.make cap 0)
  | Prim Bool -> Bools (Bytes.make cap '\000')
  | Prim Date -> Dates (Array.make cap 0)
  | Named _ -> Refs (Array.make cap 0)
  | Unknown -> Boxed (Array.make cap Value.Null)

let make ~pool ~gen ~num ty layout =
  Obs.Metrics.time m_build_ns (fun () ->
      Obs.Metrics.incr c_blocks;
      let pos = ref Attr_name.Map.empty in
      Array.iteri
        (fun i a ->
          let n = Attribute.name a in
          if not (Attr_name.Map.mem n !pos) then pos := Attr_name.Map.add n i !pos)
        layout;
      (* [Map.bindings] is name-sorted and one entry per name, matching
         the iteration order of the old per-object slot maps *)
      let name_order =
        Array.of_list (List.map snd (Attr_name.Map.bindings !pos))
      in
      { b_num = num;
        b_ty = ty;
        b_pool = pool;
        b_layout = layout;
        b_pos = !pos;
        b_name_order = name_order;
        b_cols =
          Array.map
            (fun a ->
              { c_attr = Attribute.name a;
                c_ty = Attribute.ty a;
                c_data = data_for (Attribute.ty a) 0;
                c_nulls = Bytes.create 0
              })
            layout;
        b_gen = gen;
        b_cap = 0;
        b_len = 0;
        b_live = 0;
        b_oids = [||];
        b_stamps = [||];
        b_alive = Bytes.create 0;
        b_free = [];
        b_sorted = true;
        b_max_oid = 0
      })

let pos b attr = Attr_name.Map.find_opt attr b.b_pos
let live b = b.b_live
let capacity b = b.b_cap
let length b = b.b_len
let free_rows b = List.length b.b_free
let is_sorted b = b.b_sorted
let oid_at b row = Oid.of_int b.b_oids.(row)
let stamp b row = b.b_stamps.(row)
let set_stamp b row s = b.b_stamps.(row) <- s

(* [b] with every array reallocated at capacity [cap'] and holding its
   first [n] rows; rows past [n] are null and dead.  [b] is untouched:
   the columns are fresh records. *)
let resized b ~n cap' =
  let ints (a : int array) =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 n;
    a'
  in
  let bytes bs fill =
    let bs' = Bytes.make cap' fill in
    Bytes.blit bs 0 bs' 0 n;
    bs'
  in
  let data = function
    | Ints a -> Ints (ints a)
    | Floats a ->
        let a' = Array.make cap' 0. in
        Array.blit a 0 a' 0 n;
        Floats a'
    | Strings a -> Strings (ints a)
    | Bools bs -> Bools (bytes bs '\000')
    | Dates a -> Dates (ints a)
    | Refs a -> Refs (ints a)
    | Boxed a ->
        let a' = Array.make cap' Value.Null in
        Array.blit a 0 a' 0 n;
        Boxed a'
  in
  { b with
    b_cols =
      Array.map (fun c -> { c with c_data = data c.c_data; c_nulls = bytes c.c_nulls '\001' }) b.b_cols;
    b_oids = ints b.b_oids;
    b_stamps = ints b.b_stamps;
    b_alive = bytes b.b_alive '\000';
    b_cap = cap'
  }

let grow b cap' =
  Obs.Metrics.incr c_grows;
  let r = resized b ~n:b.b_cap cap' in
  Array.iteri
    (fun i c ->
      c.c_data <- r.b_cols.(i).c_data;
      c.c_nulls <- r.b_cols.(i).c_nulls)
    b.b_cols;
  b.b_oids <- r.b_oids;
  b.b_stamps <- r.b_stamps;
  b.b_alive <- r.b_alive;
  b.b_cap <- cap'

let alloc b oid =
  let o = Oid.to_int oid in
  let row =
    match b.b_free with
    | r :: rest ->
        b.b_free <- rest;
        (* a reused slot sits below the append frontier: row order no
           longer follows OID order *)
        b.b_sorted <- false;
        r
    | [] ->
        if b.b_len = b.b_cap then grow b (max 8 (2 * b.b_cap));
        let r = b.b_len in
        b.b_len <- b.b_len + 1;
        if o < b.b_max_oid then b.b_sorted <- false;
        r
  in
  b.b_max_oid <- max b.b_max_oid o;
  b.b_oids.(row) <- o;
  Bytes.set b.b_alive row '\001';
  b.b_live <- b.b_live + 1;
  row

let release b row =
  Bytes.set b.b_alive row '\000';
  b.b_live <- b.b_live - 1;
  if b.b_live = 0 then begin
    (* empty block: reset to a fresh append frontier so future inserts
       are sorted again and the free-list does not pin stale rows *)
    b.b_len <- 0;
    b.b_free <- [];
    b.b_sorted <- true;
    b.b_max_oid <- 0
  end
  else b.b_free <- row :: b.b_free

let read b ~row ~col : Value.t =
  let c = b.b_cols.(col) in
  if Bytes.get c.c_nulls row <> '\000' then Value.Null
  else
    match c.c_data with
    | Ints a -> Value.Int a.(row)
    | Floats a -> Value.Float a.(row)
    | Strings a -> Value.String (Pool.get b.b_pool a.(row))
    | Bools bs -> Value.Bool (Bytes.get bs row <> '\000')
    | Dates a -> Value.Date a.(row)
    | Refs a -> Value.Ref (Oid.of_int a.(row))
    | Boxed a -> a.(row)

let write b ~row ~col (v : Value.t) =
  let c = b.b_cols.(col) in
  match v with
  | Value.Null -> Bytes.set c.c_nulls row '\001'
  | v -> (
      Bytes.set c.c_nulls row '\000';
      match (c.c_data, v) with
      | Ints a, Value.Int i -> a.(row) <- i
      | Floats a, Value.Float f -> a.(row) <- f
      | Strings a, Value.String s -> a.(row) <- Pool.id b.b_pool s
      | Bools bs, Value.Bool x -> Bytes.set bs row (if x then '\001' else '\000')
      | Dates a, Value.Date y -> a.(row) <- y
      | Refs a, Value.Ref o -> a.(row) <- Oid.to_int o
      | Boxed a, v -> a.(row) <- v
      | _ ->
          (* unreachable behind Database.check_value: a typed column only
             ever receives its own value kind *)
          invalid_arg "Columns.write: value kind does not match column")

(* Writes to either block never reach the other: every mutable array is
   reallocated, with an eighth of headroom past the used rows rather
   than the old capacity (a copied base is a compaction's output, and
   its size is what the next compaction copies). *)
let copy ~pool b =
  { (resized b ~n:b.b_len (min b.b_cap (b.b_len + (b.b_len / 8) + 8))) with b_pool = pool }

let live_rows b ~lo ~hi rows =
  let n = ref 0 in
  for row = lo to hi - 1 do
    if Bytes.get b.b_alive row = '\001' then begin
      rows.(!n) <- row - lo;
      incr n
    end
  done;
  !n

(* Live OIDs in ascending order — a plain copy when the block is still
   append-ordered, an explicit sort otherwise. *)
let live_oids b =
  let out = ref [] in
  for row = b.b_len - 1 downto 0 do
    if Bytes.get b.b_alive row = '\001' then out := Oid.of_int b.b_oids.(row) :: !out
  done;
  if b.b_sorted then !out else List.sort Oid.compare !out

(* Slot bindings of one row, in attribute-name order (the order the
   pre-columnar map-backed store iterated in — dump formats and object
   materialization depend on it). *)
let row_bindings b row =
  Array.fold_left
    (fun acc col ->
      (b.b_cols.(col).c_attr, read b ~row ~col) :: acc)
    [] b.b_name_order
  |> List.rev
