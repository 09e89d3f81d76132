(** An interpreter for generic-function calls over stored objects.

    Executes method bodies with full multi-method dispatch on the
    dynamic types of all arguments.  Used by the test suite to verify
    the paper's behavior-preservation claim {e dynamically}: the same
    call on the same objects returns the same value before and after a
    projection refactors the schema. *)

open Tdp_core

type t

exception Runtime_error of string

(** The object store a call runs over: the schema to dispatch against
    and slot access.  Errors from these functions propagate out of
    {!call} unchanged. *)
type store = {
  schema : unit -> Schema.t;
  type_of : Oid.t -> Type_name.t;
  get_attr : Oid.t -> Attr_name.t -> Value.t;
  set_attr : Oid.t -> Attr_name.t -> Value.t -> unit;
}

(** [create ?now ?max_depth db] makes an interpreter over [db]; [now]
    (default 2026) anchors the [years_since] builtin, [max_depth]
    (default 10000) bounds the call-frame stack so runaway recursion
    raises [Runtime_error] instead of crashing. *)
val create : ?now:int -> ?max_depth:int -> Database.t -> t

(** An interpreter over any {!store}, with [create]'s defaults. *)
val of_store : store -> t

(** Rebuild dispatch tables after a schema swap.  Kept for
    explicit control; since generation-stamped invalidation, {!call}
    also detects a swapped schema on its own and rebuilds, so a stale
    interpreter can no longer answer from evolved-away dispatch
    tables. *)
val refresh : t -> t

(** [call t gf args] dispatches and runs a generic function.  A writer
    generic function takes the target object followed by the new value.
    Checks the schema's generation stamp first and transparently
    rebuilds the dispatcher if the store's schema was swapped since.
    @raise Runtime_error on dispatch failure or an ill-typed call. *)
val call : t -> string -> Value.t list -> Value.t

(** [call_on t gf oids] is [call] with object references. *)
val call_on : t -> string -> Oid.t list -> Value.t
