(** Maintained materialized views.

    Keeps a population of copy objects (of the view's derived type) in
    sync with the view's instance set.  Maintenance is deferred: call
    {!refresh} after base updates; it diffs the current instances
    against the tracked copies and adds, removes, and updates copies as
    needed.  Copy identity is stable across refreshes, so downstream
    references to copies survive updates to their sources. *)

open Tdp_core
module Oid = Tdp_store.Oid

type stats = { added : int; removed : int; updated : int }

val no_change : stats

type t

(** Materialize the view now; the initial population counts as adds. *)
val create : Tdp_store.Database.t -> view_type:Type_name.t -> View.expr -> t

val view_type : t -> Type_name.t

(** Source OID → copy OID. *)
val mapping : t -> Oid.t Oid.Map.t

(** Synchronize the copies with the view's current instances.

    Incremental: tracked pairs whose rows are unchanged since the last
    refresh (by the store's logical tick, {!Tdp_store.Database.tick})
    skip the attribute diff entirely; rows that did change are read
    once per side and diffed.  [~force:true] disables stamp skipping
    and re-diffs every pair — the result is always identical, [force]
    only removes the shortcut (benchmarks use it as the non-tracked
    baseline). *)
val refresh : ?force:bool -> Tdp_store.Database.t -> t -> stats

(** Copy OIDs, in source-OID order. *)
val copies : t -> Oid.t list
