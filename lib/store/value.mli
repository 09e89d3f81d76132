(** Runtime values stored in object slots and passed to methods. *)

open Tdp_core

type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Date of int  (** a year; enough structure for the paper's examples *)
  | Ref of Oid.t
  | Null

val equal : t -> t -> bool

(** The printed form {!pp} writes: [12], [1.5] (["%.6g"]), ["text"]
    (OCaml escapes), [true], [year(1975)], [#3], [null]. *)
val to_string : t -> string

(** {!to_string} appended to a buffer.  A float's ["%.6g"] text comes
    from an exact digit loop for magnitudes in [\[1e-4, 999999.5)],
    and from the C formatter otherwise; both print the same bytes. *)
val add_to_buffer : Buffer.t -> t -> unit

(** [add_escaped_to_buffer b v] appends [String.escaped (to_string v)]
    to [b] without building either string. *)
val add_escaped_to_buffer : Buffer.t -> t -> unit

(** [add_int b i] appends [string_of_int i] to [b]. *)
val add_int : Buffer.t -> int -> unit

(** [add_escaped b s] appends [String.escaped s] to [b]. *)
val add_escaped : Buffer.t -> string -> unit

val pp : t Fmt.t

(** Literal of a method body as a runtime value. *)
val of_literal : Body.literal -> t

(** Shallow conformance to a primitive type; [Null] conforms to
    everything, references are checked by the database. *)
val conforms_prim : t -> Value_type.prim -> bool
