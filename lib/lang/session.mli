(** Stateful evaluation of {!Stmt} statements over a store.

    One session binds a {!Tdp_algebra.Catalog} of defined views, a set
    of [let] bindings, and a store backend ({!store_ops}); every
    statement is resolved against those bindings, typechecked with
    {!Tdp_infer.Infer} (principal inference + instantiation against the
    live schema), and only then touches the store.  Evaluation returns
    a structured {!outcome} — never prints — so the three frontends
    (direct API use, [odb repl], the server's [eval] verb) share one
    rendering ({!render} / {!to_json}) and one error shape
    ({!Tdp_analysis.Diagnostic} with stable TDP05x codes):

    - [TDP050] statement failed to parse
    - [TDP051] unknown relvar or type
    - [TDP052] view or binding name already defined
    - [TDP053] ill-typed statement (via {!Tdp_infer.Infer})
    - [TDP054] join views have no identity extent
    - [TDP055] statement failed at the store
    - [TDP056] declaration not executable interactively *)

open Tdp_core
module View = Tdp_algebra.View
module Database = Tdp_store.Database
module Oid = Tdp_store.Oid
module Value = Tdp_store.Value
module Infer = Tdp_infer.Infer
module Diagnostic = Tdp_analysis.Diagnostic

(** What a session needs from a store.  [s_instances], when given,
    computes identity extents in one pass over the backend:
    {!View.instances} over a {!Database}, or the server's
    snapshot fold ([Mvcc.instances] over the snapshot its [eval]
    request pinned).  Without it, the session runs
    {!View.instances_with} with a leaf that filters [s_extent] per
    object through [s_get] with {!Tdp_algebra.Pred.holds}.  The two
    backends above share that walker, so only their leaves can
    disagree with it. *)
type store_ops = {
  s_schema : unit -> Schema.t;
  s_extent : Type_name.t -> Oid.t list;
  s_type_of : Oid.t -> Type_name.t;
  s_get : Oid.t -> Attr_name.t -> Value.t;
  s_count : unit -> int;
  s_new : Type_name.t -> (Attr_name.t * Value.t) list -> Oid.t;
  s_set : Oid.t -> Attr_name.t -> Value.t -> unit;
  s_del : Oid.t -> Database.delete_policy -> unit;
  s_call : string -> Value.t list -> Value.t;
  s_instances : (View.expr -> Oid.t list) option;
}

type t

(** [create ?file ops] — [file] labels diagnostics. *)
val create : ?file:string -> store_ops -> t

(** A session over a mutable {!Database}, with an {!Tdp_store.Interp}
    for [call] statements ([now] as {!Tdp_store.Interp.create}). *)
val of_database : ?now:int -> ?file:string -> Database.t -> t

(** {!store_ops} over a database, reusable by custom frontends. *)
val database_ops : ?now:int -> Database.t -> store_ops

val schema : t -> Schema.t

(** Pre-define views (e.g. the ones a schema file declares) so they are
    queryable by name.  @raise Error.E on a failing derivation. *)
val install_views : t -> (string * View.expr) list -> unit

(** {1 Outcomes} *)

type view_inference =
  | Admitted of Infer.principal
  | Not_instantiated of Infer.principal * Infer.error
  | Ill_typed_view of string * Infer.error

type resolution =
  | Selected of Method_def.Key.t * (Method_def.Key.t * Type_name.t list) list
  | Ambiguous of Method_def.Key.t list
  | No_method

type outcome =
  | Bound of { var : string; expr : View.expr }
  | Defined of { name : string; expr : View.expr; attrs : Attr_name.t list }
  | Dropped of string
  | Shown of View.expr
  | Typed of Infer.principal
  | Extent of {
      expr : View.expr;
      attrs : Attr_name.t list;
      rows : (Oid.t * Value.t list) list;
    }
  | Called of { gf : string; results : (Oid.t * Value.t) list }
  | Created of { oid : Oid.t; ty : Type_name.t }
  | Updated of { oid : Oid.t; attrs : Attr_name.t list }
  | Deleted of Oid.t
  | Views of {
      defined : (string * View.expr) list;
      bound : (string * View.expr) list;
    }
  | Schema_info of {
      types : int;
      surrogates : int;
      gfs : int;
      methods : int;
      type_names : Type_name.t list;
    }
  | Checked of {
      file : string option;
      schema : Schema.t;
      views : (string * View.expr) list;
      issues : string list;
    }
  | Inferred of { file : string option; views : (string * view_inference) list }
  | Resolved of {
      file : string option;
      call : string;
      resolution : resolution;
      chain : bool;
    }
  | Diag of Diagnostic.t
  | Bye

(** Does the outcome represent a failure (an error-severity diagnostic,
    unresolved dispatch, check issues, a failed inference)? *)
val failed : outcome -> bool

(** {1 Evaluation} *)

(** Evaluate one statement.  Never raises: statement-level failures of
    any kind come back as [Diag].  A schema swapped under the session
    (generation change) resets catalog and bindings first. *)
val eval : t -> Stmt.t -> outcome

(** Parse and evaluate a source string; a parse error yields a single
    [Diag] ([TDP050]), and evaluation stops after [:quit] ([Bye]). *)
val eval_string : t -> string -> outcome list

(** The [TDP050] diagnostic for a parse error. *)
val parse_error : ?file:string -> Error.t -> Diagnostic.t

(** {1 One-shot helpers for the CLI frontends} *)

(** [odb check]: elaborate a schema source and report summary, views
    and residual well-formedness issues. *)
val check_source : ?file:string -> string -> outcome

(** [odb infer]: principal schemas for every declared view. *)
val infer_source : ?file:string -> string -> outcome

(** [odb dispatch]: resolve a call against a schema; [chain] also
    collects the full applicability chain. *)
val resolve_call :
  ?file:string ->
  Schema.t ->
  gf:string ->
  arg_types:Type_name.t list ->
  chain:bool ->
  outcome

(** {1 Rendering} *)

(** Where {!render_to} writes an outcome's text:
    - [Plain]: the text itself;
    - [Escaped]: [String.escaped] of the text, as the server's quoted
      [eval] reply carries it.  Line breaks become ["\\n"] and string
      values are escaped twice in the same pass, so no plain text is
      built first. *)
type sink = Plain | Escaped

(** [render_to sink b o] appends the canonical text form of [o]
    through [sink] to [b]: [Plain] appends {!render}[ o], [Escaped]
    appends [String.escaped (render o)], byte for byte. *)
val render_to : sink -> Buffer.t -> outcome -> unit

(** The canonical text form (no trailing newline; multi-line outcomes
    join with ['\n']).  All frontends print exactly this: it is
    {!render_to} [Plain] into a fresh buffer. *)
val render : outcome -> string

(** The canonical JSON payload (the CLI wraps it in its envelope). *)
val to_json : outcome -> Tdp_obs.Json.t

(** A flat, non-wrapping rendering of a view expression (used by
    {!render}; exposed for reuse in CLI output). *)
val view_str : View.expr -> string
