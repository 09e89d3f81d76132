(* A compiled, immutable snapshot of a hierarchy.

   The paper's algorithms (IsApplicable, factoring, dispatch) are
   dominated by [a ⪯ b] queries and re-linearizations over one fixed
   hierarchy.  This module compiles that hierarchy once:

   - type names are interned to dense integer ids (name order);
   - the reflexive-transitive ancestor relation is a Bytes-backed bit
     matrix, so [subtype] is two intern lookups and one bit test;
   - class precedence lists are memoized per type, and the direct-subs
     index is built in the same compilation pass;
   - the snapshot carries the generation stamp of the hierarchy it was
     compiled from, so holders can detect that they are about to answer
     for a hierarchy value that has since evolved.

   All mutable state below is memoization only: an index is
   observationally immutable. *)

type t = {
  h : Hierarchy.t;
  generation : int;
  names : Type_name.t array;  (* id -> name, in name order *)
  ids : (Type_name.t, int) Hashtbl.t;  (* name -> id *)
  row_words : int;  (* width of a closure row, in 64-bit words *)
  closure : Bytes.t;  (* n rows; bit (i, j) set iff i ⪯ j *)
  direct_subs : Type_name.t list array;
  cpls : (Type_name.t list, Error.t) result option array;  (* lazy memo *)
  ancestor_sets : Type_name.Set.t option array;  (* lazy memo *)
  layouts : Attribute.t array option array;  (* lazy memo *)
  layout_positions : int Attr_name.Map.t option array;  (* lazy memo *)
}

let hierarchy t = t.h
let generation t = t.generation
let cardinal t = Array.length t.names
let same_hierarchy t h = t.generation = Hierarchy.generation h

(* Observability: compilation cost and intern-table behaviour are the
   two things a production deployment needs to see (a hot set_schema
   loop shows up as misses + evictions here long before it shows up as
   latency).  All recording is gated inside Tdp_obs. *)
module Obs = Tdp_obs
let m_build_ns = Obs.Metrics.histogram "schema_index.build_ns"
let m_intern_hit = Obs.Metrics.counter "schema_index.intern.hit"
let m_intern_miss = Obs.Metrics.counter "schema_index.intern.miss"
let m_intern_evict = Obs.Metrics.counter "schema_index.intern.evict"

(* ---- bit-matrix primitives ---------------------------------------- *)

let row_base t i = i * t.row_words * 8

let test_bit t i j =
  let word = Bytes.get_int64_le t.closure (row_base t i + ((j lsr 6) lsl 3)) in
  Int64.logand word (Int64.shift_left 1L (j land 63)) <> 0L

let set_bit closure ~row_words i j =
  let off = (i * row_words + (j lsr 6)) * 8 in
  let word = Bytes.get_int64_le closure off in
  Bytes.set_int64_le closure off
    (Int64.logor word (Int64.shift_left 1L (j land 63)))

let or_row closure ~row_words ~into ~from =
  let bi = into * row_words * 8 and bf = from * row_words * 8 in
  for w = 0 to row_words - 1 do
    let o = w * 8 in
    Bytes.set_int64_le closure (bi + o)
      (Int64.logor
         (Bytes.get_int64_le closure (bi + o))
         (Bytes.get_int64_le closure (bf + o)))
  done

let iter_row t i f =
  let base = row_base t i in
  for w = 0 to t.row_words - 1 do
    let word = Bytes.get_int64_le t.closure (base + (w * 8)) in
    if word <> 0L then
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then f ((w * 64) + b)
      done
  done

(* ---- compilation --------------------------------------------------- *)

let compile_uninstrumented h =
  let names = Array.of_list (Hierarchy.type_names h) in
  let n = Array.length names in
  let ids = Hashtbl.create ((2 * n) + 1) in
  Array.iteri (fun i nm -> Hashtbl.replace ids nm i) names;
  let row_words = (n + 63) / 64 in
  let closure = Bytes.make (n * row_words * 8) '\000' in
  let direct_subs = Array.make n [] in
  (* One pass in supers-before-subs (DFS post) order: a type's closure
     row is its own bit OR-ed with the finished rows of its direct
     supertypes, and the same walk records the direct-subs index.
     Colors make the pass terminate on (invalid) cyclic input — a
     supertype still on the stack contributes nothing, mirroring the
     visited-set cutoff of [Hierarchy.ancestors]; supertype names
     absent from the hierarchy are skipped (validation, not
     compilation, reports them). *)
  let state = Array.make n 0 (* 0 white, 1 grey, 2 black *) in
  let rec fill i =
    if state.(i) = 0 then begin
      state.(i) <- 1;
      set_bit closure ~row_words i i;
      List.iter
        (fun s ->
          match Hashtbl.find_opt ids s with
          | None -> ()
          | Some j ->
              direct_subs.(j) <- names.(i) :: direct_subs.(j);
              if state.(j) <> 1 then begin
                fill j;
                or_row closure ~row_words ~into:i ~from:j
              end)
        (Type_def.super_names (Hierarchy.find h names.(i)));
      state.(i) <- 2
    end
  in
  for i = 0 to n - 1 do
    fill i
  done;
  (* ids were visited in DFS order; restore name order per subs list *)
  Array.iteri
    (fun j subs ->
      direct_subs.(j) <- List.sort_uniq Type_name.compare subs)
    direct_subs;
  { h;
    generation = Hierarchy.generation h;
    names;
    ids;
    row_words;
    closure;
    direct_subs;
    cpls = Array.make n None;
    ancestor_sets = Array.make n None;
    layouts = Array.make n None;
    layout_positions = Array.make n None
  }

let compile h =
  Obs.Metrics.time m_build_ns (fun () ->
      Obs.Trace.with_span "schema_index.compile" (fun () ->
          compile_uninstrumented h))

(* [of_hierarchy] interns compiled indexes by generation stamp: the
   stamp uniquely identifies a hierarchy value, so every holder of the
   same hierarchy shares one index (dispatchers, applicability batches,
   lint, the store) instead of recompiling the closure.

   The table is a small LRU, most-recent first: repeated
   [Database.set_schema] / evolution cycles in a long-running process
   churn through generations, and each compiled index pins its source
   hierarchy plus an O(V²/8) closure — an unbounded intern table is a
   leak in exactly the regime the store's journaling mode targets.  A
   hit refreshes recency, so the handful of live schemas stay resident
   while evolved-away generations age out. *)
let intern_capacity = 16
let intern : (int * t) list ref = ref []
let intern_occupancy () = List.length !intern

let of_hierarchy h =
  let g = Hierarchy.generation h in
  match List.assoc_opt g !intern with
  | Some t ->
      Obs.Metrics.incr m_intern_hit;
      intern := (g, t) :: List.remove_assoc g !intern;
      t
  | None ->
      Obs.Metrics.incr m_intern_miss;
      let t = compile h in
      let kept = List.filteri (fun i _ -> i < intern_capacity - 1) !intern in
      Obs.Metrics.add m_intern_evict (List.length !intern - List.length kept);
      intern := (g, t) :: kept;
      t

(* ---- interning ----------------------------------------------------- *)

let id t nm = Hashtbl.find_opt t.ids nm

let id_exn t nm =
  match Hashtbl.find_opt t.ids nm with
  | Some i -> i
  | None -> Error.raise_ (Unknown_type nm)

let name t i = t.names.(i)
let mem t nm = Hashtbl.mem t.ids nm

(* ---- subtype queries ----------------------------------------------- *)

let subtype_ids t i j = test_bit t i j

let subtype t a b =
  Type_name.equal a b
  ||
  let i = id_exn t a in
  match id t b with None -> false | Some j -> test_bit t i j

let proper_subtype t a b = (not (Type_name.equal a b)) && subtype t a b

let ancestors_or_self t nm =
  let i = id_exn t nm in
  let out = ref [] in
  iter_row t i (fun j -> out := t.names.(j) :: !out);
  List.rev !out

let ancestor_set t nm =
  let i = id_exn t nm in
  match t.ancestor_sets.(i) with
  | Some s -> s
  | None ->
      let s = ref Type_name.Set.empty in
      iter_row t i (fun j -> s := Type_name.Set.add t.names.(j) !s);
      t.ancestor_sets.(i) <- Some !s;
      !s

let descendants t nm =
  let j = id_exn t nm in
  let out = ref [] in
  for i = Array.length t.names - 1 downto 0 do
    if i <> j && test_bit t i j then out := t.names.(i) :: !out
  done;
  !out

let descendants_or_self t nm =
  let j = id_exn t nm in
  let out = ref [] in
  for i = Array.length t.names - 1 downto 0 do
    if test_bit t i j then out := t.names.(i) :: !out
  done;
  !out

let direct_subs t nm = t.direct_subs.(id_exn t nm)

(* ---- memoized linearizations --------------------------------------- *)

let cpl_result t nm =
  let i = id_exn t nm in
  match t.cpls.(i) with
  | Some r -> r
  | None ->
      let r = Linearize.cpl_result t.h nm in
      t.cpls.(i) <- Some r;
      r

let cpl t nm =
  match cpl_result t nm with Ok l -> l | Error e -> Error.raise_ e

(* ---- memoized extent layouts ---------------------------------------- *)

(* The columnar store ([Tdp_store.Columns]) lays every instance of a
   type out as one struct-of-arrays block whose column order is the
   type's attribute list.  That order must be a pure function of the
   (immutable) hierarchy, so the layout is compiled here, once per
   interned type, rather than recomputed per object. *)

let layout t nm =
  let i = id_exn t nm in
  match t.layouts.(i) with
  | Some a -> a
  | None ->
      let a = Array.of_list (Hierarchy.all_attributes t.h nm) in
      t.layouts.(i) <- Some a;
      a

let layout_positions t nm =
  let i = id_exn t nm in
  match t.layout_positions.(i) with
  | Some m -> m
  | None ->
      let a = layout t nm in
      let m = ref Attr_name.Map.empty in
      Array.iteri
        (fun k at ->
          let n = Attribute.name at in
          if not (Attr_name.Map.mem n !m) then m := Attr_name.Map.add n k !m)
        a;
      t.layout_positions.(i) <- Some !m;
      !m
