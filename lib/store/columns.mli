(** Struct-of-arrays extent blocks.

    The physical layer of the columnar store: each block holds the live
    instances of one type that were created under one compiled layout
    ({!Tdp_core.Schema_index.layout}), decomposed attribute-wise into
    typed, unboxed columns — [int array] for integers and dates,
    [float array] for floats, interned-string-id arrays for strings,
    OID arrays for references, a byte-per-row null bitmap per column.
    Extent scans and predicate evaluation then run over contiguous
    arrays instead of chasing per-object maps; this is the projection
    operation Π(T, attrs) made physical (column selection).

    Row ids are stable for an object's lifetime: rows are appended or
    reused from a free-list, never moved.  Blocks created by the
    allocator fill in increasing-OID order and advertise that via
    {!is_sorted}, so extents concatenate pre-sorted runs.  Each row
    carries the database's logical tick of its last mutation
    ({!stamp}), which materialized-view refresh uses to skip clean
    rows.

    The representation is exposed (read-only) so the vectorized scan
    path in [Tdp_algebra.Pred] can compile predicate atoms to tight
    loops over the raw arrays.  All mutation must go through
    [Database]. *)

open Tdp_core

(** Per-database string intern pool: string columns store dense pool
    ids, so equality scans compare ints.  Ids are never recycled. *)
module Pool : sig
  type t

  val create : unit -> t

  (** Intern a string (allocating a fresh id on first sight). *)
  val id : t -> string -> int

  (** Lookup without interning — [None] means no stored string equals
      [s], so an equality scan can skip the block entirely. *)
  val find : t -> string -> int option

  val get : t -> int -> string
  val size : t -> int

  (** An independent copy: interning into either never changes the
      other. *)
  val copy : t -> t
end

type data =
  | Ints of int array
  | Floats of float array
  | Strings of int array  (** pool ids *)
  | Bools of Bytes.t
  | Dates of int array
  | Refs of int array  (** OIDs as ints *)
  | Boxed of Value.t array  (** [Value_type.Unknown] attributes *)

type column = {
  c_attr : Attr_name.t;
  c_ty : Value_type.t;
  mutable c_data : data;
  mutable c_nulls : Bytes.t;  (** byte per row; nonzero = null *)
}

type t = {
  b_num : int;  (** the owning database's number for this block *)
  b_ty : Type_name.t;
  b_pool : Pool.t;
  b_layout : Attribute.t array;
  b_pos : int Attr_name.Map.t;
  b_name_order : int array;  (** column indexes in attr-name order *)
  b_cols : column array;
  mutable b_gen : int;
  mutable b_cap : int;
  mutable b_len : int;
  mutable b_live : int;
  mutable b_oids : int array;
  mutable b_stamps : int array;
  mutable b_alive : Bytes.t;
  mutable b_free : int list;
  mutable b_sorted : bool;
  mutable b_max_oid : int;
}

val make : pool:Pool.t -> gen:int -> num:int -> Type_name.t -> Attribute.t array -> t

(** An independent copy of a block whose strings intern into [pool]
    (a {!Pool.copy} of the block's own pool). *)
val copy : pool:Pool.t -> t -> t

(** Column index of an attribute, if in the layout. *)
val pos : t -> Attr_name.t -> int option

val live : t -> int
val capacity : t -> int

(** Rows ever allocated (append high-water mark); live rows are a
    subset. *)
val length : t -> int

val free_rows : t -> int

(** Do live rows appear in ascending OID order? *)
val is_sorted : t -> bool

(** Allocate a row for [oid] (reusing a freed slot when available) and
    mark it live.  The caller must then {!write} every column and
    {!set_stamp} the row. *)
val alloc : t -> Oid.t -> int

(** Mark a row dead and push it on the free-list; resets the block to
    an empty, sorted state when the last live row is released. *)
val release : t -> int -> unit

val oid_at : t -> int -> Oid.t

(** Logical tick of the row's last mutation. *)
val stamp : t -> int -> int

val set_stamp : t -> int -> int -> unit
val read : t -> row:int -> col:int -> Value.t

(** Store a value (must conform to the column's declared type — the
    database validates before writing). *)
val write : t -> row:int -> col:int -> Value.t -> unit

(** [live_rows b ~lo ~hi rows] writes the live rows of [\[lo, hi)], as
    ascending offsets from [lo], to the front of [rows] and returns how
    many: a selection vector over that range. *)
val live_rows : t -> lo:int -> hi:int -> int array -> int

(** Live OIDs in ascending OID order. *)
val live_oids : t -> Oid.t list

(** One row's slot bindings in attribute-name order — the iteration
    order of the pre-columnar per-object maps, on which the dump format
    depends. *)
val row_bindings : t -> int -> (Attr_name.t * Value.t) list
