open Tdp_core

type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Date of int  (** a year; enough structure for the paper's examples *)
  | Ref of Oid.t
  | Null

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Date x, Date y -> x = y
  | Ref x, Ref y -> Oid.equal x y
  | Null, Null -> true
  | (Int _ | Float _ | String _ | Bool _ | Date _ | Ref _ | Null), _ -> false

(* [Printf.sprintf "%g"] without the format interpreter, which a
   served extent would pay per value. *)
external format_float : string -> float -> string = "caml_format_float"

let add_to_buffer b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (format_float "%.6g" f)
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Bool b' -> Buffer.add_string b (string_of_bool b')
  | Date y ->
      Buffer.add_string b "year(";
      Buffer.add_string b (string_of_int y);
      Buffer.add_char b ')'
  | Ref o ->
      Buffer.add_char b '#';
      Buffer.add_string b (string_of_int (Oid.to_int o))
  | Null -> Buffer.add_string b "null"

let to_string v =
  let b = Buffer.create 16 in
  add_to_buffer b v;
  Buffer.contents b

let pp ppf v = Fmt.string ppf (to_string v)

let of_literal (l : Body.literal) =
  match l with
  | Int i -> Int i
  | Float f -> Float f
  | String s -> String s
  | Bool b -> Bool b
  | Null -> Null

(* Shallow conformance of a runtime value to a declared type; reference
   conformance is checked by the database, which knows object types. *)
let conforms_prim v (p : Value_type.prim) =
  match (v, p) with
  | Int _, Int | Float _, Float | String _, String | Bool _, Bool | Date _, Date ->
      true
  | Null, _ -> true
  | (Int _ | Float _ | String _ | Bool _ | Date _ | Ref _), _ -> false
