open Tdp_core

type op = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Cmp of { attr : Attr_name.t; op : op; value : Body.literal }
  | And of t * t
  | Or of t * t
  | Not of t
  | True

let cmp attr op value = Cmp { attr; op; value }

let rec attrs = function
  | Cmp { attr; _ } -> Attr_name.Set.singleton attr
  | And (a, b) | Or (a, b) -> Attr_name.Set.union (attrs a) (attrs b)
  | Not a -> attrs a
  | True -> Attr_name.Set.empty

(* A literal is comparable to an attribute type when the kinds agree;
   ordering comparisons require numeric kinds (int, float, or the
   year-valued date).  Object-typed attributes cannot be compared to
   literals at all. *)
let literal_compatible (lit : Body.literal) (vt : Value_type.t) op =
  let equality = match op with Eq | Ne -> true | Lt | Le | Gt | Ge -> false in
  match (vt, lit) with
  | Value_type.Prim (Int | Date), (Int _ | Float _) -> true
  | Value_type.Prim Float, (Int _ | Float _) -> true
  | Value_type.Prim String, String _ -> equality
  | Value_type.Prim Bool, Bool _ -> equality
  | _, Null -> equality
  | (Value_type.Prim _ | Value_type.Named _ | Value_type.Unknown), _ -> false

(* Every attribute the predicate mentions must be in the cumulative
   state of [ty], and every comparison must be well-typed. *)
let rec check_exn h ty_ p =
  match p with
  | True -> ()
  | Not a -> check_exn h ty_ a
  | And (a, b) | Or (a, b) ->
      check_exn h ty_ a;
      check_exn h ty_ b
  | Cmp { attr; op; value } -> (
      match Hierarchy.find_attribute h ty_ attr with
      | None -> Error.raise_ (Attribute_not_available { ty = ty_; attr })
      | Some a ->
          if not (literal_compatible value (Attribute.ty a) op) then
            Error.raise_
              (Invariant_violation
                 (Fmt.str "predicate compares attribute %s (: %s) with %s"
                    (Attr_name.to_string attr)
                    (Fmt.str "%a" Value_type.pp (Attribute.ty a))
                    (Fmt.str "%a" Body.pp_literal value))))

let rec map_attrs f = function
  | Cmp { attr; op; value } -> Cmp { attr = f attr; op; value }
  | And (a, b) -> And (map_attrs f a, map_attrs f b)
  | Or (a, b) -> Or (map_attrs f a, map_attrs f b)
  | Not a -> Not (map_attrs f a)
  | True -> True

let op_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp ppf = function
  | Cmp { attr; op; value } ->
      Fmt.pf ppf "%a %s %a" Attr_name.pp attr (op_to_string op) Body.pp_literal value
  | And (a, b) -> Fmt.pf ppf "(%a and %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a or %a)" pp a pp b
  | Not a -> Fmt.pf ppf "(not %a)" pp a
  | True -> Fmt.string ppf "true"

(* Whether [op] holds of a three-way comparison outcome; total over
   every operator, so equality over the numeric interpretation (where
   Int 1 == Float 1.0) is also expressible. *)
let op_holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let compare_values op (a : Tdp_store.Value.t) (b : Tdp_store.Value.t) =
  let num v =
    match (v : Tdp_store.Value.t) with
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | Date y -> Some (float_of_int y)
    | String _ | Bool _ | Ref _ | Null -> None
  in
  match op with
  (* structural (in)equality works for every value kind *)
  | Eq -> Tdp_store.Value.equal a b
  | Ne -> not (Tdp_store.Value.equal a b)
  | Lt | Le | Gt | Ge -> (
      match (num a, num b) with
      | Some x, Some y -> op_holds op (Float.compare x y)
      | _ -> false)

(* The one per-object predicate walker.  Staged: [holds p] converts
   every literal once and returns a test over attribute readers, so a
   scan applies it per row without re-walking the literals. *)
let holds p =
  let rec go = function
    | True -> fun _ -> true
    | Not a ->
        let f = go a in
        fun get -> not (f get)
    | And (a, b) ->
        let fa = go a and fb = go b in
        fun get -> fa get && fb get
    | Or (a, b) ->
        let fa = go a and fb = go b in
        fun get -> fa get || fb get
    | Cmp { attr; op; value } ->
        let lit = Tdp_store.Value.of_literal value in
        fun get -> compare_values op (get attr) lit
  in
  go p

(* Evaluate a predicate against a stored object. *)
let eval db oid p = holds p (Tdp_store.Database.get_attr db oid)

(* ---- vectorized scans ----------------------------------------------- *)

(* Scanning a predicate over an extent per-object costs an OID hash
   lookup plus a map lookup per atom per object.  The columnar layer
   exposes the raw per-attribute arrays, so instead each atom compiles,
   once per block, to an [int -> bool] over row ids that reads the
   unboxed column directly; the combinators compose closures.  Every
   fast path below reproduces [compare_values] exactly — structural
   (in)equality (so [Int 1 <> Float 1.0], and null only equals the null
   literal), numeric ordering through float conversion, non-numeric
   ordering false. *)

module Database = Tdp_store.Database
module Columns = Tdp_store.Columns
module Value = Tdp_store.Value

module Obs = Tdp_obs
let m_scan_ns = Obs.Metrics.histogram "pred.scan_ns"

let compile_cmp db block attr op (lit : Body.literal) =
  match Columns.pos block attr with
  | None ->
      (* raise lazily, per row, exactly like the per-object path — an
         atom short-circuited away by And/Or must not raise.  get_attr
         is expected to raise (the block has no such column); if it
         somehow answers, the block/schema layouts disagree and that is
         a structured invariant failure, never a bare assert *)
      fun r ->
        let oid = Columns.oid_at block r in
        ignore (Database.get_attr db oid attr);
        raise
          (Database.Store_error
             (Fmt.str
                "pred scan: attribute %s missing from the block layout but \
                 present on object #%d — block/schema layouts disagree"
                (Tdp_core.Attr_name.to_string attr)
                (Tdp_store.Oid.to_int oid)))
  | Some ci -> (
      let col = block.Columns.b_cols.(ci) in
      let nulls = col.Columns.c_nulls in
      let is_null r = Bytes.get nulls r <> '\000' in
      let lit_v = Value.of_literal lit in
      let fallback r = compare_values op (Columns.read block ~row:r ~col:ci) lit_v in
      match op with
      | Lt | Le | Gt | Ge -> (
          let num_lit =
            match lit with
            | Body.Int i -> Some (float_of_int i)
            | Body.Float f -> Some f
            | Body.String _ | Body.Bool _ | Body.Null -> None
          in
          match (num_lit, col.Columns.c_data) with
          | None, _ -> fun _ -> false
          | Some y, (Columns.Ints a | Columns.Dates a) ->
              fun r ->
                (not (is_null r)) && op_holds op (Float.compare (float_of_int a.(r)) y)
          | Some y, Columns.Floats a ->
              fun r -> (not (is_null r)) && op_holds op (Float.compare a.(r) y)
          | Some _, (Columns.Strings _ | Columns.Bools _ | Columns.Refs _) ->
              fun _ -> false
          | Some _, Columns.Boxed _ -> fallback)
      | Eq | Ne -> (
          (* [Some f]: f r = Value.equal (row value) lit_v *)
          let equal_row : (int -> bool) option =
            match (col.Columns.c_data, lit) with
            | _, Body.Null -> Some is_null
            | Columns.Ints a, Body.Int i ->
                Some (fun r -> (not (is_null r)) && a.(r) = i)
            | Columns.Floats a, Body.Float f ->
                Some (fun r -> (not (is_null r)) && Float.equal a.(r) f)
            | Columns.Strings a, Body.String s -> (
                match Columns.Pool.find block.Columns.b_pool s with
                | Some sid -> Some (fun r -> (not (is_null r)) && a.(r) = sid)
                | None -> Some (fun _ -> false))
            | Columns.Bools bs, Body.Bool bv ->
                let byte = if bv then '\001' else '\000' in
                Some (fun r -> (not (is_null r)) && Bytes.get bs r = byte)
            | Columns.Boxed _, _ -> None
            | ( (Columns.Ints _ | Columns.Floats _ | Columns.Strings _
                | Columns.Bools _ | Columns.Dates _ | Columns.Refs _),
                (Body.Int _ | Body.Float _ | Body.String _ | Body.Bool _) ) ->
                (* kind mismatch: structurally unequal for every row,
                   null or not (Date vs Int included — [Value.equal]
                   never crosses constructors) *)
                Some (fun _ -> false)
          in
          match equal_row with
          | None -> fallback
          | Some f -> if op = Eq then f else fun r -> not (f r)))

let compile db block p =
  let rec go = function
    | True -> fun _ -> true
    | Not a ->
        let f = go a in
        fun r -> not (f r)
    | And (a, b) ->
        let fa = go a and fb = go b in
        fun r -> fa r && fb r
    | Or (a, b) ->
        let fa = go a and fb = go b in
        fun r -> fa r || fb r
    | Cmp { attr; op; value } -> compile_cmp db block attr op value
  in
  go p

let scan db ty p =
  Obs.Metrics.time m_scan_ns (fun () ->
      let per_block b =
        let f = compile db b p in
        let out = ref [] in
        Columns.iter_live b (fun r -> if f r then out := Columns.oid_at b r :: !out);
        let l = List.rev !out in
        if Columns.is_sorted b then l else List.sort Tdp_store.Oid.compare l
      in
      List.fold_left
        (fun acc b -> List.merge Tdp_store.Oid.compare acc (per_block b))
        [] (Database.scan_blocks db ty))
