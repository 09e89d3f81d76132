(** A schema: the type hierarchy plus all generic functions.

    This is the unit over which the paper's algorithms operate.  Both
    the applicability notions of Section 4 live here:

    - applicability of a method {e to a type} (used to seed the
      IsApplicable driver), and
    - applicability of a method {e to a generic-function call} (used at
      each call site of a method body, and by the dispatcher). *)

type t

val empty : t

(** Generation stamp of this schema value: monotonically increasing,
    bumped by every update ({!add_type}, {!add_method}, hierarchy
    replacement, …).  Like {!Hierarchy.generation} but covering methods
    and generic functions too — the stamp dispatch tables check to
    detect that they were built for an evolved-away schema. *)
val generation : t -> int

(** Whether this value is recorded as having passed {!validate_exn} and
    [Typing.check_all_methods].  The record lives on the value, so a
    schema derived from it by any update starts unchecked. *)
val checked : t -> bool

(** Record that {!validate_exn} and [Typing.check_all_methods] pass on
    this value.  Only the checkers call this: [Typing.check_schema_exn]
    after a full check, and [Invariants] after a check proven to give
    the full verdict.  A failed check records nothing. *)
val mark_checked : t -> unit

val hierarchy : t -> Hierarchy.t
val with_hierarchy : t -> Hierarchy.t -> t
val map_hierarchy : t -> (Hierarchy.t -> Hierarchy.t) -> t

(** @raise Error.E [Duplicate_type]. *)
val add_type : t -> Type_def.t -> t

(** Generic functions in name order. *)
val gfs : t -> Generic_function.t list

val find_gf_opt : t -> string -> Generic_function.t option

(** @raise Error.E [Unknown_generic_function]. *)
val find_gf : t -> string -> Generic_function.t

(** Declare an (initially empty) generic function.
    @raise Error.E if a generic function of that name exists. *)
val declare_gf : t -> Generic_function.t -> t

(** Add a method, declaring its generic function on first use (arity
    and result type taken from the method's signature).
    @raise Error.E on arity mismatch or duplicate id. *)
val add_method : t -> Method_def.t -> t

(** @raise Error.E if the method does not exist. *)
val update_method : t -> Method_def.Key.t -> (Method_def.t -> Method_def.t) -> t

(** Remove a method; the generic function stays declared so calls to it
    remain well-formed.
    @raise Error.E [Unknown_generic_function]. *)
val remove_method : t -> Method_def.Key.t -> t

(** Every method of every generic function, grouped by gf name order. *)
val all_methods : t -> Method_def.t list

val find_method_opt : t -> Method_def.Key.t -> Method_def.t option

(** @raise Error.E if the method does not exist. *)
val find_method : t -> Method_def.Key.t -> Method_def.t

(** [method_applicable_to_type index m ty]: ∃i. ty ⪯ Tⁱ.  The index
    must be compiled from this schema's hierarchy. *)
val method_applicable_to_type : Schema_index.t -> Method_def.t -> Type_name.t -> bool

val methods_applicable_to_type :
  t -> Schema_index.t -> Type_name.t -> Method_def.t list

(** [method_applicable_to_call index m args]: ∀i. Vⁱ ⪯ Uⁱ. *)
val method_applicable_to_call : Schema_index.t -> Method_def.t -> Type_name.t list -> bool

(** Methods of [gf] applicable to a call with the given argument types,
    in definition order.
    @raise Error.E [Unknown_generic_function]. *)
val methods_applicable_to_call :
  t -> Schema_index.t -> gf:string -> arg_types:Type_name.t list -> Method_def.t list

(** Whether every method of [gf] is a writer accessor.  Body calls to
    such a generic function carry one extra syntactic argument (the new
    attribute value) that takes no part in dispatch. *)
val is_writer_gf : t -> string -> bool

(** All accessor methods reading or writing [attr]. *)
val accessors_of_attr : t -> Attr_name.t -> Method_def.t list

(** Structural validation: hierarchy well-formedness, signature types
    exist, accessor attributes are available at their argument type,
    method arities agree with their generic function.
    Method-body checks live in {!Typing.check_method}.  Returns at once
    for a value already recorded {!checked}. *)
val validate_exn : t -> unit

(** The per-method part of {!validate_exn}: the signature's types
    exist, an accessor's attribute is available at its argument type,
    and the arity agrees with the generic function's.
    @raise Error.E on the first violation. *)
val validate_method_exn : t -> Method_def.t -> unit

val validate : t -> (unit, Error.t) result
val pp : t Fmt.t
