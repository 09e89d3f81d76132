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

external format_float : string -> float -> string = "caml_format_float"

(* [string_of_int] without [caml_format_int], which parses its format
   on every call.  The digits are produced on the non-positive side,
   where [min_int] has a magnitude; a top-level [digits] takes [b] as
   an argument, so a call allocates no closure. *)
let rec digits b n =
  if n <= -10 then digits b (n / 10);
  Buffer.add_char b (Char.chr (48 - (n mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    digits b i
  end
  else digits b (-i)

(* [Printf.sprintf "%.6g" x] appended to [b], exact by construction.

   For 1e-4 <= |x| < 999999.5, "%.6g" prints fixed-point: the decimal
   exponent [e] (10^e <= |x| < 10^(e+1)) lies in -4..5, and the digits
   are [n], the nearest integer to s = |x| * 10^(5-e) in
   [100000, 999999], with trailing zeros stripped.  10^(5-e) is an
   exact double, so the computed [s] is within half an ulp of the true
   product: below 2^-34 < 1e-10, since s < 2^20.  Whenever the computed
   fraction of [s] lies at least [tie_margin] from 1/2, the true
   product rounds to the same integer as the computed one, so [n] is
   exactly the integer [format_float] rounds to.  An exponent misjudged
   near a power of ten (the negative ones are inexact doubles) shows
   as a computed [s] outside [100000, 999999.5); the one exception is
   [s] = 100000 exactly from a true product just below it, where
   "%.6g" also rounds up to the power of ten and prints the same text.
   Everything else falls back to [format_float]: zero, NaN, ±inf,
   magnitudes outside the range, a carry to 7 digits and near-ties. *)
let tie_margin = 1e-9

(* 10^-4 .. 10^5, the lower bound of each exponent's decade *)
let decades = [| 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100.; 1e3; 1e4; 1e5 |]
let scales = [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]
let places = [| 100000; 10000; 1000; 100; 10; 1 |]

(* the [j]-th of the six digits of [n], [j] in 0..5 *)
let digit n j = Char.unsafe_chr (48 + (n / Array.unsafe_get places j mod 10))

let add_float b x =
  let a = Float.abs x in
  (* NaN fails both comparisons *)
  if not (a >= 1e-4 && a < 999999.5) then Buffer.add_string b (format_float "%.6g" x)
  else begin
    let e = ref 5 in
    (* in bounds: [a >= decades.(0)] stops the walk at [e = -4] *)
    while a < Array.unsafe_get decades (!e + 4) do
      decr e
    done;
    let e = !e in
    let s = a *. Array.unsafe_get scales (5 - e) in
    let i = truncate s in
    let frac = s -. float_of_int i in
    let n = if frac > 0.5 then i + 1 else i in
    if s < 100000. || n > 999999 || Float.abs (frac -. 0.5) < tie_margin then
      Buffer.add_string b (format_float "%.6g" x)
    else begin
      if x < 0. then Buffer.add_char b '-';
      let last = ref 5 and m = ref n in
      while !m mod 10 = 0 do
        decr last;
        m := !m / 10
      done;
      if e >= 0 then begin
        for j = 0 to e do
          Buffer.add_char b (digit n j)
        done;
        if !last > e then begin
          Buffer.add_char b '.';
          for j = e + 1 to !last do
            Buffer.add_char b (digit n j)
          done
        end
      end
      else begin
        Buffer.add_string b "0.";
        for _ = 2 to -e do
          Buffer.add_char b '0'
        done;
        for j = 0 to !last do
          Buffer.add_char b (digit n j)
        done
      end
    end
  end

(* Bytes [String.escaped] rewrites, marked nonzero by code. *)
let escapes =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if c < ' ' || c > '~' || c = '"' || c = '\\' then '\001' else '\000')

(* [String.escaped s] in one pass, or with [twice] [String.escaped
   (String.escaped s)]: runs that need no escape are copied whole (they
   need none at either level), and nothing is built beside [b].  The
   second level escapes only the backslash of each escape sequence and
   a quote or backslash behind it. *)
let escape ~twice b s =
  let from = ref 0 in
  for i = 0 to String.length s - 1 do
    (* in bounds: [i] by the loop, a char's code below 256 *)
    let c = String.unsafe_get s i in
    if String.unsafe_get escapes (Char.code c) <> '\000' then begin
      Buffer.add_substring b s !from (i - !from);
      from := i + 1;
      Buffer.add_string b (if twice then "\\\\" else "\\");
      match c with
      | '\n' -> Buffer.add_char b 'n'
      | '\t' -> Buffer.add_char b 't'
      | '\r' -> Buffer.add_char b 'r'
      | '\b' -> Buffer.add_char b 'b'
      | '"' | '\\' ->
          if twice then Buffer.add_char b '\\';
          Buffer.add_char b c
      | c ->
          let a = Char.code c in
          Buffer.add_char b (Char.chr (48 + (a / 100)));
          Buffer.add_char b (Char.chr (48 + (a / 10 mod 10)));
          Buffer.add_char b (Char.chr (48 + (a mod 10)))
    end
  done;
  Buffer.add_substring b s !from (String.length s - !from)

let add_escaped b s = escape ~twice:false b s

(* Only a string's text and quotes need escaping: every other printed
   form is printable ASCII without a quote or a backslash. *)
let add_value ~escaped b = function
  | Int i -> add_int b i
  | Float f -> add_float b f
  | String s ->
      let quote = if escaped then "\\\"" else "\"" in
      Buffer.add_string b quote;
      escape ~twice:escaped b s;
      Buffer.add_string b quote
  | Bool b' -> Buffer.add_string b (string_of_bool b')
  | Date y ->
      Buffer.add_string b "year(";
      add_int b y;
      Buffer.add_char b ')'
  | Ref o ->
      Buffer.add_char b '#';
      add_int b (Oid.to_int o)
  | Null -> Buffer.add_string b "null"

let add_to_buffer b v = add_value ~escaped:false b v
let add_escaped_to_buffer b v = add_value ~escaped:true b v

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
