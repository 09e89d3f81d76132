(** Selection predicates over a type's attributes.

    Used by the selection operator (σ): the derived type of a selection
    has the same state as its source, so type derivation for σ is
    simple subtyping; the predicate only matters at instantiation
    time. *)

open Tdp_core

type op = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Cmp of { attr : Attr_name.t; op : op; value : Body.literal }
  | And of t * t
  | Or of t * t
  | Not of t
  | True

val cmp : Attr_name.t -> op -> Body.literal -> t

(** Attributes mentioned by the predicate. *)
val attrs : t -> Attr_name.Set.t

(** @raise Error.E [Attribute_not_available] if the predicate mentions
    an attribute outside the cumulative state of the type, or
    [Invariant_violation] on an ill-typed comparison (e.g. ordering a
    string attribute, or comparing an object-typed attribute to a
    literal). *)
val check_exn : Hierarchy.t -> Type_name.t -> t -> unit

(** Rename the attributes the predicate mentions. *)
val map_attrs : (Attr_name.t -> Attr_name.t) -> t -> t

val op_to_string : op -> string

(** [op_holds op c] applies [op] to a three-way comparison outcome [c]
    (total over all six operators). *)
val op_holds : op -> int -> bool

(** [compare_values op a b]: equality operators compare structurally;
    ordering operators compare numerically (int, float, date) and are
    [false] when either side is not numeric. *)
val compare_values : op -> Tdp_store.Value.t -> Tdp_store.Value.t -> bool

val pp : t Fmt.t

(** [holds p] is the per-object test of [p]: [holds p get] reads each
    compared attribute through [get] and applies {!compare_values},
    short-circuiting [And]/[Or] left to right.  Staged: partially
    applied once, it converts each literal once and can then run per
    row.  Exceptions from [get] propagate. *)
val holds : t -> (Attr_name.t -> Tdp_store.Value.t) -> bool

(** Evaluate against a stored object ([holds] over [get_attr]).
    @raise Tdp_store.Database.Store_error on a missing attribute. *)
val eval : Tdp_store.Database.t -> Tdp_store.Oid.t -> t -> bool

(** [scan db ty p] — the deep extent of [ty] filtered by [p], in OID
    order; equivalent to
    [List.filter (fun o -> eval db o p) (Database.extent db ty)] but
    vectorized over selection vectors: each columnar block is walked in
    chunks of rows, and each comparison atom is one typed loop over the
    unboxed attribute column (interned-string id equality, raw numeric
    compares) that keeps the rows of the incoming vector it holds of.
    [And] passes the right side only the rows its left side kept, [Or]
    only those its left side rejected, and [Not] keeps the complement,
    so each row meets the atoms {!holds} would test, in its order.
    @raise Tdp_store.Database.Store_error on a missing attribute — the
    error of the first row, in block order, whose per-object test
    raises — or [Error.E Unknown_type] as {!Tdp_store.Database.extent}. *)
val scan : Tdp_store.Database.t -> Type_name.t -> t -> Tdp_store.Oid.t list
