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

(* [string_of_int] without [caml_format_int], which parses its format
   on every call.  The digits are produced on the non-positive side,
   where [min_int] has a magnitude. *)
let add_int b i =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.chr (48 - (n mod 10)))
  in
  if i < 0 then begin
    Buffer.add_char b '-';
    digits i
  end
  else digits (-i)

(* Bytes [String.escaped] rewrites, marked nonzero by code. *)
let escapes =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if c < ' ' || c > '~' || c = '"' || c = '\\' then '\001' else '\000')

(* [String.escaped] in one pass: runs that need no escape are copied
   whole, and nothing is built beside [b]. *)
let add_escaped b s =
  let from = ref 0 in
  for i = 0 to String.length s - 1 do
    (* in bounds: [i] by the loop, a char's code below 256 *)
    let c = String.unsafe_get s i in
    if String.unsafe_get escapes (Char.code c) <> '\000' then begin
      Buffer.add_substring b s !from (i - !from);
      from := i + 1;
      Buffer.add_char b '\\';
      match c with
      | '\n' -> Buffer.add_char b 'n'
      | '\t' -> Buffer.add_char b 't'
      | '\r' -> Buffer.add_char b 'r'
      | '\b' -> Buffer.add_char b 'b'
      | '"' | '\\' -> Buffer.add_char b c
      | c ->
          let a = Char.code c in
          Buffer.add_char b (Char.chr (48 + (a / 100)));
          Buffer.add_char b (Char.chr (48 + (a / 10 mod 10)));
          Buffer.add_char b (Char.chr (48 + (a mod 10)))
    end
  done;
  Buffer.add_substring b s !from (String.length s - !from)

let add_to_buffer b = function
  | Int i -> add_int b i
  | Float f -> Buffer.add_string b (format_float "%.6g" f)
  | String s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | Bool b' -> Buffer.add_string b (string_of_bool b')
  | Date y ->
      Buffer.add_string b "year(";
      add_int b y;
      Buffer.add_char b ')'
  | Ref o ->
      Buffer.add_char b '#';
      add_int b (Oid.to_int o)
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
