(** Schema evolution under derived views.

    Because every view in a {!Catalog} is derived by a reproducible
    pipeline, a base-schema change can be applied by unwinding all
    views (reverse definition order), changing the base, and
    re-deriving the views in order.  The report tells, per view, which
    methods its type gained or lost — or that the view is broken (it no
    longer derives, e.g. its projection list mentions a removed
    attribute); broken views are dropped from the resulting catalog. *)

open Tdp_core

type change =
  | Add_type of Type_def.t
  | Add_attribute of { ty : Type_name.t; attr : Attribute.t }
  | Remove_attribute of Attr_name.t
      (** the attribute's accessors are removed as well; general
          methods calling them will simply lose applicability *)
  | Add_method of Method_def.t
  | Remove_method of Method_def.Key.t
  | Rename_attribute of { from_ : Attr_name.t; to_ : Attr_name.t }
      (** the relational rename operator as evolution: the owning
          type's attribute, its accessors, and the catalog's stored
          view expressions are rewritten, so views survive renames *)

val pp_change : change Fmt.t

type view_impact = {
  view : string;
  status : [ `Ok | `Broken of Error.t ];
  gained : Method_def.Key.Set.t;
  lost : Method_def.Key.Set.t;
}

type report = { change : change; impacts : view_impact list }

val pp_impact : view_impact Fmt.t
val pp_report : report Fmt.t

(** Apply a change to a {e view-free} schema, with validation.
    @raise Error.E if the changed schema is invalid. *)
val apply_change_exn : Schema.t -> change -> Schema.t

(** Drop every view, newest first — the first phase of {!evolve_exn}.
    Each drop restores its recorded pre-define schema while the
    catalog's schema is the one its define produced, so a catalog built
    by defines alone unwinds to its base schema value itself.
    @raise Error.E if a drop fails. *)
val unwind_exn : Catalog.t -> Catalog.t

(** Evolve the catalog's base schema; returns the re-derived catalog
    and the impact report.
    @raise Error.E if unwinding fails or the base change is invalid. *)
val evolve_exn : Catalog.t -> change -> Catalog.t * report

val evolve : Catalog.t -> change -> (Catalog.t * report, Error.t) result
