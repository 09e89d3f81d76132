(* Clocks, sample buffers and order statistics. *)

(* Monotonic nanoseconds (clock_gettime), for every latency the
   harness measures itself.  Trace spans keep the program's own clock. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* What one [now_ns] adds to an interval it brackets: the median of
   back-to-back readings. *)
let clock_cost_ns =
  lazy
    (let a =
       Array.init 1001 (fun _ ->
           let t0 = now_ns () in
           now_ns () -. t0)
     in
     Array.sort Float.compare a;
     a.(500))

(* A growable float buffer: one per request class per client, so the
   closed loops never share mutable state. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len

let merge l =
  let out = samples () in
  List.iter (fun s -> for i = 0 to s.len - 1 do add out s.data.(i) done) l;
  out

let sum s =
  let t = ref 0.0 in
  for i = 0 to s.len - 1 do t := !t +. s.data.(i) done;
  !t

let mean s = if s.len = 0 then 0.0 else sum s /. float_of_int s.len

(* Linear interpolation between closest ranks on a sorted copy. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sorted s =
  let a = to_array s in
  Array.sort Float.compare a;
  a

let quantile s q = quantile_sorted (sorted s) q

(* How many samples lie strictly above quantile [q]: the guard that a
   reported tail percentile rests on at least ten observations. *)
let beyond s q = s.len - int_of_float (Float.ceil (q *. float_of_int s.len))

let median_list l =
  match List.sort Float.compare l with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      quantile_sorted a 0.5
