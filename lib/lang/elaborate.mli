(** Elaboration of surface programs into schemas and view expressions.

    Two passes — types first, then methods — so declaration order never
    matters.  Calls to names that are not declared generic functions
    elaborate to builtin operations.  The result is validated
    ({!Tdp_core.Schema.validate_exn}) and fully type-checked
    ({!Tdp_core.Typing.check_all_methods}). *)

open Tdp_core

type result_ = {
  schema : Schema.t;
  views : (string * Tdp_algebra.View.expr) list;  (** declaration order *)
  view_positions : (string * (int * int)) list;
      (** view name -> (line, col) of its declaration, for diagnostics *)
}

(** @raise Error.E on any validation failure. *)
val elaborate_exn : Ast.program -> result_

val elaborate : Ast.program -> (result_, Error.t) result

(** Parse and elaborate a source string.  Since the statement grammar
    subsumes the schema grammar, this parses the source as a statement
    sequence and requires every statement to be a declaration;
    elaboration failures carry the source position of the offending
    declaration ({!Error.At}). *)
val load_exn : string -> result_

val load : string -> (result_, Error.t) result

(** Like {!load}, but skips schema validation and method-body type
    checking: the result may be structurally or type-wise ill-formed.
    Used by the [Tdp_analysis] linter, which reports those violations as
    diagnostics instead of stopping at the first raised error. *)
val load_unchecked : string -> (result_, Error.t) result

(** Derive every declared view in order; each view's derived type is
    named after the view.  Returns the final schema and the view-name /
    type-name pairs. *)
val apply_views_exn : ?check:bool -> result_ -> Schema.t * (string * Type_name.t) list

val apply_views :
  ?check:bool -> result_ -> (Schema.t * (string * Type_name.t) list, Error.t) result

(** Elaborate a single surface view expression (resolution of names
    against a catalog or hierarchy is the caller's business — see
    {!Session}). *)
val view_expr : Ast.sview -> Tdp_algebra.View.expr

val pred : Ast.spred -> Tdp_algebra.Pred.t
val literal : Ast.slit -> Tdp_core.Body.literal
