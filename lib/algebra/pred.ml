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

(* ---- selection-vector scans ----------------------------------------- *)

(* Scanning a predicate per object costs an OID hash lookup plus a map
   lookup per atom per object.  [scan] instead evaluates it over each
   columnar block, [chunk] rows at a time, on a selection vector: an
   ascending array of the rows still in play, as offsets from the
   chunk's first row.  Each comparison atom is one typed loop over its
   unboxed column that keeps the rows it holds of.  [And] runs its right
   side over the rows its left side kept, [Or] over the rows its left
   side rejected, and [Not] keeps the complement within its incoming
   rows — so every row meets exactly the atoms [holds] would test it
   against, in the same order.

   Every loop reproduces [compare_values]: structural (in)equality (so
   [Int 1 <> Float 1.0], and null only equals the null literal), numeric
   ordering by [Float.compare] (NaN below every number, [-0.0 = 0.0]),
   non-numeric ordering false.  The comparisons are written out inside
   each loop: without flambda, a float passed to a per-row helper is
   boxed.  A loop reads the vector [src.(0..n-1)] of offsets from row
   [lo], writes the offsets it keeps to the front of [dst] and returns
   how many; it writes at or below the index it reads, so [dst] may be
   [src]. *)

module Database = Tdp_store.Database
module Columns = Tdp_store.Columns
module Value = Tdp_store.Value

module Obs = Tdp_obs
let m_scan_ns = Obs.Metrics.histogram "pred.scan_ns"

(* rows whose nullness is [want] *)
let sel_null nulls want lo src n dst =
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = src.(i) in
    let r = lo + s in
    if (Bytes.get nulls r <> '\000') = want then begin
      dst.(!k) <- s;
      incr k
    end
  done;
  !k

(* Equality kernels keep the rows equal to the literal; [Ne] is their
   complement (see [plan]).  Integer and interned-string equality: *)
let sel_int_eq (a : int array) nulls x lo src n dst =
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = src.(i) in
    let r = lo + s in
    if Bytes.get nulls r = '\000' && a.(r) = x then begin
      dst.(!k) <- s;
      incr k
    end
  done;
  !k

let sel_byte_eq bs nulls x lo src n dst =
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = src.(i) in
    let r = lo + s in
    if Bytes.get nulls r = '\000' && Bytes.get bs r = x then begin
      dst.(!k) <- s;
      incr k
    end
  done;
  !k

(* [Float.equal] against a non-NaN literal is IEEE equality *)
let sel_float_eq (a : float array) nulls x lo src n dst =
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = src.(i) in
    let r = lo + s in
    if Bytes.get nulls r = '\000' && a.(r) = x then begin
      dst.(!k) <- s;
      incr k
    end
  done;
  !k

(* [Float.equal] against NaN holds of NaN rows only *)
let sel_float_nan (a : float array) nulls want lo src n dst =
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = src.(i) in
    let r = lo + s in
    if (Bytes.get nulls r = '\000' && a.(r) <> a.(r)) = want then begin
      dst.(!k) <- s;
      incr k
    end
  done;
  !k

(* Ordering against a non-NaN [y]: no ordering holds of a null row, and
   on the rest [Gt]/[Ge] are [x > y]/[x >= y] while [Le]/[Lt] are their
   negations — exact for NaN rows too, which [Float.compare] ranks
   lowest.  [strict] picks [>] (Gt, Le) over [>=] (Ge, Lt). *)
let sel_float_order (a : float array) nulls ~strict y want lo src n dst =
  let k = ref 0 in
  if strict then
    for i = 0 to n - 1 do
      let s = src.(i) in
      let r = lo + s in
      if Bytes.get nulls r = '\000' && a.(r) > y = want then begin
        dst.(!k) <- s;
        incr k
      end
    done
  else
    for i = 0 to n - 1 do
      let s = src.(i) in
      let r = lo + s in
      if Bytes.get nulls r = '\000' && a.(r) >= y = want then begin
        dst.(!k) <- s;
        incr k
      end
    done;
  !k

(* the same over integers and dates, compared as floats like
   [compare_values] (beyond 2^53 [float_of_int] rounds) *)
let sel_int_order (a : int array) nulls ~strict y want lo src n dst =
  let k = ref 0 in
  if strict then
    for i = 0 to n - 1 do
      let s = src.(i) in
      let r = lo + s in
      if Bytes.get nulls r = '\000' && float_of_int a.(r) > y = want then begin
        dst.(!k) <- s;
        incr k
      end
    done
  else
    for i = 0 to n - 1 do
      let s = src.(i) in
      let r = lo + s in
      if Bytes.get nulls r = '\000' && float_of_int a.(r) >= y = want then begin
        dst.(!k) <- s;
        incr k
      end
    done;
  !k

(* [Value_type.Unknown] columns hold boxed values of any kind *)
let sel_boxed (a : Value.t array) nulls op lit lo src n dst =
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = src.(i) in
    let r = lo + s in
    let v = if Bytes.get nulls r <> '\000' then Value.Null else a.(r) in
    if compare_values op v lit then begin
      dst.(!k) <- s;
      incr k
    end
  done;
  !k

let sel_all _ src n dst =
  if dst != src then Array.blit src 0 dst 0 n;
  n

(* The earliest row of a block whose test raised, and what it raised.
   The atom that raised rejects the row, which may then flow on into
   later atoms (or be kept by a [Not]); only a smaller row replaces the
   record.  Rows
   below the first raising row never raise, so they take exactly the
   path [holds] gives them, and the first raising row reaches its
   first failing atom ahead of every other row in that atom's input:
   the block raises what a per-row walk would have raised first. *)
type failure = { mutable f_row : int; mutable f_exn : exn }

(* An atom over a column the block lacks raises per row, lazily, like
   the per-object path: an atom no row reaches must not raise.
   [get_attr] is expected to raise (the block has no such column); if it
   somehow answers, the block and schema layouts disagree, and that is a
   structured failure, never a bare assert. *)
let missing db block attr fail r =
  if r < fail.f_row then begin
    let oid = Columns.oid_at block r in
    fail.f_row <- r;
    fail.f_exn <-
      (match Database.get_attr db oid attr with
      | _ ->
          Database.Store_error
            (Fmt.str
               "pred scan: attribute %s missing from the block layout but \
                present on object #%d — block/schema layouts disagree"
               (Attr_name.to_string attr) (Tdp_store.Oid.to_int oid))
      | exception e -> e)
  end

(* The loop that runs one comparison atom over [block]'s column.  For
   [Ne] it is the [Eq] loop, whose complement [plan] keeps: [Ne] is the
   negation of [Eq] on every row, null rows included. *)
let kernel db block fail attr op (lit : Body.literal) :
    int -> int array -> int -> int array -> int =
  match Columns.pos block attr with
  | None ->
      fun lo src _ _ ->
        missing db block attr fail (lo + src.(0));
        0
  | Some ci -> (
      let col = block.Columns.b_cols.(ci) in
      let nulls = col.Columns.c_nulls in
      let none _ _ _ _ = 0 in
      match op with
      | Eq | Ne -> (
          match (col.Columns.c_data, lit) with
          | Columns.Boxed a, _ -> sel_boxed a nulls Eq (Value.of_literal lit)
          | _, Body.Null -> sel_null nulls true
          | Columns.Ints a, Body.Int i -> sel_int_eq a nulls i
          | Columns.Strings a, Body.String s -> (
              match Columns.Pool.find block.Columns.b_pool s with
              | Some sid -> sel_int_eq a nulls sid
              | None -> none)
          | Columns.Floats a, Body.Float f ->
              if Float.is_nan f then sel_float_nan a nulls true else sel_float_eq a nulls f
          | Columns.Bools bs, Body.Bool v ->
              sel_byte_eq bs nulls (if v then '\001' else '\000')
          | ( ( Columns.Ints _ | Columns.Floats _ | Columns.Strings _
              | Columns.Bools _ | Columns.Dates _ | Columns.Refs _ ),
              (Body.Int _ | Body.Float _ | Body.String _ | Body.Bool _) ) ->
              (* kind mismatch: no row is structurally equal (Date vs
                 Int included — [Value.equal] never crosses
                 constructors) *)
              none)
      | Lt | Le | Gt | Ge -> (
          let strict = op = Gt || op = Le and want = op = Gt || op = Ge in
          match (col.Columns.c_data, lit) with
          | Columns.Boxed a, _ -> sel_boxed a nulls op (Value.of_literal lit)
          | _, (Body.String _ | Body.Bool _ | Body.Null)
          | (Columns.Strings _ | Columns.Bools _ | Columns.Refs _), _ ->
              none
          | (Columns.Ints a | Columns.Dates a), Body.Int i ->
              sel_int_order a nulls ~strict (float_of_int i) want
          | (Columns.Ints a | Columns.Dates a), Body.Float y ->
              if not (Float.is_nan y) then sel_int_order a nulls ~strict y want
              else if want then sel_null nulls false
              else none
          | Columns.Floats a, Body.Int i ->
              sel_float_order a nulls ~strict (float_of_int i) want
          | Columns.Floats a, Body.Float y -> (
              if not (Float.is_nan y) then sel_float_order a nulls ~strict y want
              else
                (* NaN ranks lowest: [Lt] holds of no row, [Le] of NaN
                   rows, [Gt] of every number and [Ge] of every
                   non-null row *)
                match (want, strict) with
                | false, false -> none
                | false, true -> sel_float_nan a nulls true
                | true, false -> sel_null nulls false
                | true, true ->
                    fun lo src n dst ->
                      let m = sel_null nulls false lo src n dst in
                      sel_float_nan a nulls false lo dst m dst)))

(* A predicate laid out over one block: each atom resolved to its
   loop, and each [Or] and [Not] given the vectors it needs beside its
   input, sized for one chunk and reused from chunk to chunk. *)
type plan =
  | All
  | Atom of (int -> int array -> int -> int array -> int)
  | Both of plan * plan
  | Either of plan * plan * int array * int array  (** left's kept rows; the rest *)
  | Neither of plan * int array  (** the operand's kept rows *)

let rec plan db block fail size = function
  | True -> All
  | Cmp { attr; op; value } ->
      let k = Atom (kernel db block fail attr op value) in
      if op = Ne then Neither (k, Array.make size 0) else k
  | And (a, b) -> Both (plan db block fail size a, plan db block fail size b)
  | Or (a, b) ->
      Either
        ( plan db block fail size a,
          plan db block fail size b,
          Array.make size 0,
          Array.make size 0 )
  | Not a -> Neither (plan db block fail size a, Array.make size 0)

(* [src.(0..n-1)] without the rows of its subsequence [k.(0..m-1)] *)
let complement (src : int array) n (k : int array) m (dst : int array) =
  let j = ref 0 and out = ref 0 in
  for i = 0 to n - 1 do
    let r = src.(i) in
    if !j < m && k.(!j) = r then incr j
    else begin
      dst.(!out) <- r;
      incr out
    end
  done;
  !out

(* the ascending union of two disjoint ascending row sets *)
let merge (a : int array) na (b : int array) nb (dst : int array) =
  let i = ref 0 and j = ref 0 in
  for o = 0 to na + nb - 1 do
    if !j >= nb || (!i < na && a.(!i) < b.(!j)) then begin
      dst.(o) <- a.(!i);
      incr i
    end
    else begin
      dst.(o) <- b.(!j);
      incr j
    end
  done;
  na + nb

(* The rows of the selection vector [src.(0..n-1)] — offsets from row
   [lo] — that the plan holds of, ascending, into [dst] (which may be
   [src]); returns how many. *)
let rec run plan lo src n dst =
  if n = 0 then 0
  else
    match plan with
    | All -> sel_all lo src n dst
    | Atom k -> k lo src n dst
    | Both (a, b) ->
        let m = run a lo src n dst in
        run b lo dst m dst
    | Either (a, b, kept, rest) ->
        let ma = run a lo src n kept in
        let mb = run b lo rest (complement src n kept ma rest) rest in
        merge kept ma rest mb dst
    | Neither (a, kept) -> complement src n kept (run a lo src n kept) dst

(* Rows per selection vector: 256 words is the largest block OCaml
   allocates on the minor heap, so a scan's vectors die young there
   instead of adding major-heap work; a loop's setup stays noise. *)
let chunk = 256

let scan_block db p block =
  let len = Columns.length block in
  let size = min chunk len in
  let fail = { f_row = max_int; f_exn = Exit } in
  let plan = plan db block fail size p in
  let rows = Array.make size 0 in
  (* with no dead row, every chunk starts from the same full vector,
     which the plan only reads *)
  let full = if Columns.live block = len then Some (Array.init size Fun.id) else None in
  let out = ref [] in
  (* chunks from the last: consing each one's kept rows from its last
     leaves the list ascending *)
  let lo = ref ((len - 1) / chunk * chunk) in
  while !lo >= 0 do
    let hi = min len (!lo + chunk) in
    let src, n =
      match full with
      | Some full -> (full, hi - !lo)
      | None -> (rows, Columns.live_rows block ~lo:!lo ~hi rows)
    in
    for i = run plan !lo src n rows - 1 downto 0 do
      out := Columns.oid_at block (!lo + rows.(i)) :: !out
    done;
    lo := !lo - chunk
  done;
  if fail.f_row < max_int then raise fail.f_exn;
  if Columns.is_sorted block then !out else List.sort Tdp_store.Oid.compare !out

let scan db ty p =
  Obs.Metrics.time m_scan_ns (fun () ->
      List.fold_left
        (fun acc b -> List.merge Tdp_store.Oid.compare acc (scan_block db p b))
        [] (Database.scan_blocks db ty))
