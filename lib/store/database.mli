(** An in-memory object store over a schema.

    Objects have an identity (OID), a most-specific type, and one slot
    per attribute of the type's cumulative state.  Extents are deep:
    the extent of [T] contains every object whose type is a subtype of
    [T].  This realizes the paper's companion "type instantiation"
    semantics for projection views: because the derived type [T̂] is
    placed {e above} the source type, every source instance is already
    an instance of the view, with no copying.

    Physically the store is columnar: instances of one type created
    under one compiled layout share a struct-of-arrays {!Columns.t}
    block, extents concatenate per-block sorted OID runs via the
    {!Tdp_core.Schema_index} bitset closure, and a maintained
    reverse-reference index backs {!referrers} and {!delete}.  None of
    that changes the observable API; {!obj} is materialized on demand
    for compatibility. *)

open Tdp_core

type obj = {
  oid : Oid.t;
  ty : Type_name.t;
  mutable slots : Value.t Attr_name.Map.t;
}

type t

exception Store_error of string

type delete_policy =
  | Restrict  (** refuse to delete a referenced object *)
  | Nullify  (** null out every referring slot *)

(** One validated mutation, as reported to a journal (see
    {!set_journal}).  Ops are emitted {e after} validation and
    {e before} the in-memory structures change, so an attached journal
    that persists each op implements write-ahead logging: replaying a
    journal prefix reproduces the database state after that prefix of
    the run ({!Wal}). *)
type op =
  | Op_new of { oid : Oid.t; ty : Type_name.t; init : (Attr_name.t * Value.t) list }
  | Op_set of { oid : Oid.t; attr : Attr_name.t; value : Value.t }
  | Op_delete of { oid : Oid.t; policy : delete_policy }
  | Op_set_schema of { source : string }

(** {2 The object rules}

    The checks every op passes, as functions of a compiled schema and a
    referent lookup (the type of a live OID), not of a {!t}: the
    columnar store and {!Tdp_txn.Mvcc}'s snapshots both validate through
    them, so both give one verdict and one message.  Attributes come
    from the memoized {!Schema_index.layout}.  All raise {!Store_error}. *)

type referent = Oid.t -> Type_name.t option

val no_object : Oid.t -> 'a
val no_attr : Oid.t -> Type_name.t -> Attr_name.t -> 'a

(** A creation under a fixed OID needs an unused, positive one. *)
val check_fresh_oid : referent:referent -> Oid.t -> unit

(** The row of a new object, one value per {!Schema_index.layout} entry
    ([Null] where uninitialized).  Values must conform to their declared
    types (a reference names a live object of a subtype); every unknown
    attribute is reported. *)
val build_row :
  Schema_index.t -> referent:referent -> Type_name.t ->
  init:(Attr_name.t * Value.t) list -> Value.t array

val check_set :
  Schema_index.t -> referent:referent -> Type_name.t -> Attr_name.t -> Value.t -> unit

(** Refuses a [Restrict] delete with referrers, naming the first. *)
val check_delete : delete_policy -> Oid.t -> (Oid.t * Attr_name.t) list -> unit

(** The schema an [Op_set_schema] installs; refused without a loader. *)
val schema_of_source : (string -> Schema.t) option -> string -> Schema.t

(** {2 The columnar store} *)

(** An empty store over [schema].  [index] is the schema's compiled
    index when the caller already holds one (otherwise it is interned
    with {!Schema_index.of_hierarchy}). *)
val create : ?index:Schema_index.t -> Schema.t -> t

val schema : t -> Schema.t

(** The compiled index of {!schema} that extents and the object rules
    use. *)
val index : t -> Schema_index.t

(** Attach (or detach, with [None]) a journal callback.  While
    attached, every mutation — object creation (including
    {!restore_object}), slot writes, deletions, schema swaps — calls it
    with the corresponding {!op} before taking effect. *)
val set_journal : t -> (op -> unit) option -> unit

(** Install a refactored schema.  Valid because projection preserves
    the cumulative state of every pre-existing type.  [source] is the
    schema's surface syntax; it is required (and journaled) when a
    journal is attached, so the swap can be replayed on recovery.
    @raise Store_error when journaling and [source] is absent. *)
val set_schema : ?source:string -> t -> Schema.t -> unit

val hierarchy : t -> Hierarchy.t

(** Create an object of [ty]; uninitialized attributes are [Null].
    @raise Store_error on unknown type, unknown attribute, or a value
    that does not conform to the attribute's declared type. *)
val new_object : t -> Type_name.t -> init:(Attr_name.t * Value.t) list -> Oid.t

(** Re-create an object under a fixed OID (used by {!Dump}).
    @raise Store_error if the OID is in use or the init is invalid. *)
val restore_object :
  t -> oid:Oid.t -> ty:Type_name.t -> init:(Attr_name.t * Value.t) list -> Oid.t

(** @raise Store_error on a dangling OID. *)
val find : t -> Oid.t -> obj

val type_of : t -> Oid.t -> Type_name.t

(** [None] on a dangling OID. *)
val type_of_opt : t -> Oid.t -> Type_name.t option

(** @raise Store_error if the attribute is not in the object's state. *)
val get_attr : t -> Oid.t -> Attr_name.t -> Value.t

val set_attr : t -> Oid.t -> Attr_name.t -> Value.t -> unit

(** Objects referencing [oid] through an object-typed slot, with the
    referring attribute, in (OID, attribute) order. *)
val referrers : t -> Oid.t -> (Oid.t * Attr_name.t) list

(** Delete an object (default policy [Restrict]).
    @raise Store_error on a dangling OID or a restricted deletion. *)
val delete : t -> ?policy:delete_policy -> Oid.t -> unit

(** Deep extent, in OID order. *)
val extent : t -> Type_name.t -> Oid.t list

val count : t -> int

(** The next OID the allocator would hand out.  Strictly above every
    OID ever used, including deleted ones — identities are never
    reused, which {!Tdp_txn.Mvcc} preserves across recovery. *)
val next_oid : t -> int

val objects : t -> obj list
val slots : t -> Oid.t -> Value.t Attr_name.Map.t

(** Batch {!get_attr} with a single OID resolution.
    @raise Store_error on a dangling OID or a missing attribute. *)
val get_attrs : t -> Oid.t -> Attr_name.t list -> Value.t list

(** Fold over all objects in OID order without materializing slot maps;
    bindings arrive in attribute-name order (the {!slots} iteration
    order).  Used by {!Dump}. *)
val fold_rows :
  t ->
  init:'a ->
  ('a -> Oid.t -> Type_name.t -> (Attr_name.t * Value.t) list -> 'a) ->
  'a

(** {2 Copies and unchecked row writes}

    What {!Tdp_txn.Mvcc} builds a snapshot's immutable base with: a copy
    of an older base, then the final states of the rows written since,
    already validated against the object rules. *)

(** A copy of [t] under [schema], whose compiled index [index] is used
    as given.  Blocks (trimmed to their rows plus an eighth), the OID
    table, the reverse index and the string pool are duplicated, so
    writes to either never reach the other.  Blocks keep their layouts;
    no journal is attached. *)
val copy : t -> schema:Schema.t -> index:Schema_index.t -> t

(** Install the state of object [oid], unchecked: it gets type [ty] and
    the given slots ([Null] where absent), replacing any object already
    under [oid].  An object that keeps its type and slot set keeps its
    row.  The reverse index follows, and the allocator moves past
    [oid]. *)
val put_row : t -> Oid.t -> Type_name.t -> Value.t Attr_name.Map.t -> unit

(** Remove object [oid] (a no-op when absent), unchecked: slots that
    still reference it are left as they are. *)
val remove_row : t -> Oid.t -> unit

(** Move the allocator to at least [n] ({!next_oid} never decreases). *)
val advance_next_oid : t -> int -> unit

(** {2 Change tracking}

    The database keeps a logical clock, bumped once per mutation; every
    mutation stamps the rows it touches.  [Tdp_algebra.Matview] uses
    the stamps to skip rows unchanged since its last refresh. *)

(** Current logical tick (0 on a fresh database). *)
val tick : t -> int

(** Tick of the object's last mutation.
    @raise Store_error on a dangling OID. *)
val row_stamp : t -> Oid.t -> int

(** {2 Bulk-load and columnar access} *)

(** Pre-size the OID table for a bulk load of [n] objects (snapshot
    recovery); a no-op when already that large. *)
val reserve : t -> int -> unit

(** The live columnar blocks making up the deep extent of a type — the
    vectorized scan path in [Tdp_algebra.Pred] compiles predicates
    against these.  Blocks must not be mutated by callers.
    @raise Error.E [Unknown_type] under the same conditions as
    {!extent}. *)
val scan_blocks : t -> Type_name.t -> Columns.t list

type block_stat = {
  st_ty : Type_name.t;
  st_live : int;  (** live rows *)
  st_rows : int;  (** allocated rows (live + free-listed) *)
  st_capacity : int;
  st_free : int;  (** free-listed rows *)
  st_columns : int;
}

(** Per-block storage statistics, ordered by type name (largest block
    first within a type); surfaced by [odb store stats]. *)
val stats : t -> block_stat list
