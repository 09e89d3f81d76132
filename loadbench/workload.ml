(* The five workloads: seeded request streams, one per client
   connection, and the expected response of every request. *)

open Tdp_core
module Value = Tdp_store.Value
module Dump = Tdp_store.Dump
module Oid = Tdp_store.Oid
module Mvcc = Tdp_txn.Mvcc
module Session = Tdp_lang.Session

type name = Point_read | Commit | Scan_eval | View_ddl | Mixed_rw

let all = [ Point_read; Commit; Scan_eval; View_ddl; Mixed_rw ]

let to_string = function
  | Point_read -> "point-read"
  | Commit -> "commit"
  | Scan_eval -> "scan-eval"
  | View_ddl -> "view-ddl"
  | Mixed_rw -> "mixed-rw"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* Position of [x] in [l]. *)
let index_of x l =
  let rec go i = function [] -> invalid_arg "index_of" | y :: r -> if y = x then i else go (i + 1) r in
  go 0 l
let fixture = function View_ddl -> Fixture.Synth_ddl | _ -> Fixture.Emp
let writes = function Commit | Mixed_rw -> true | _ -> false

(* Request classes: the unit of service time and of reconciliation. *)
type cls =
  | Get | Typeof | Begin | Set | New | Commit_req
  | Scan | Point | Call | Define | Drop | Type | Project | Mscan

let cls_name = function
  | Get -> "get" | Typeof -> "typeof" | Begin -> "begin" | Set -> "set"
  | New -> "new" | Commit_req -> "commit" | Scan -> "eval_scan"
  | Point -> "eval_point" | Call -> "call" | Define -> "define"
  | Drop -> "drop" | Type -> "type" | Project -> "eval_project"
  | Mscan -> "eval_mscan"

let all_cls =
  [ Get; Typeof; Begin; Set; New; Commit_req; Scan; Point; Call; Define; Drop;
    Type; Project; Mscan ]

type expect =
  | Exact of string
  | Prefix of string
  | Created of { ssn : int; name : string }  (* "ok #<oid>" *)
  | Ack  (* "ok committed <v>", or a conflict (not a failure) *)
  | Extent_oids of int array  (* an extent whose rows are exactly these *)

type req = {
  cls : cls;
  line : string;
  src : string;  (* the statement source of an [eval], else "" *)
  expect : expect;
  write : (int * float) option;  (* a staged pay_rate update *)
}

(* A unit of work is what one closed-loop iteration sends: a single
   request, a begin..commit transaction, or a define+drop pair. *)
type unit_kind =
  | U_get | U_typeof | U_txn | U_scan | U_point | U_call | U_ddl | U_type
  | U_project | U_mscan

let all_units =
  [ U_get; U_typeof; U_txn; U_scan; U_point; U_call; U_ddl; U_type; U_project; U_mscan ]

type work = { kind : unit_kind; reqs : req list }

(* The units a workload's end-to-end latency metrics are over. *)
let headline = function
  | Point_read -> [ U_get; U_typeof ]
  | Commit | Mixed_rw -> [ U_txn ]
  | Scan_eval -> [ U_scan; U_point ]
  | View_ddl -> [ U_ddl ]

(* The end-to-end tail percentile, chosen per workload for the
   steadier of p90 and p99 across seeds: point-read's p90 sits where a
   cross-CPU wakeup does or does not land, so it flips between runs.
   Every default run has far more than ten samples beyond it. *)
let tail_q = function Point_read -> 0.99 | _ -> 0.90

(* ---- expected responses ---------------------------------------------- *)

let ok_text text = Fmt.str "ok %S" text
let eval_req cls src expect = { cls; line = "eval " ^ Dump.value_to_string (Value.String src); src; expect; write = None }
let plain cls line expect = { cls; line; src = ""; expect; write = None }

type emp_ctx = {
  e : Fixture.emp;
  attrs : Attr_name.t list;  (* Employee's row, as Session renders it *)
  scan_resp : string;
  mscan_oids : int array;  (* ssn below the low-paid count *)
}

let emp_value (e : Fixture.emp) oid a =
  match Attr_name.to_string a with
  | "ssn" -> Value.Int e.ssn.(oid)
  | "name" -> Value.String e.name.(oid)
  | "date_of_birth" -> Value.Date e.born.(oid)
  | "pay_rate" -> Value.Float e.pay.(oid)
  | "hrs_worked" -> Value.Float e.hrs.(oid)
  | other -> invalid_arg other

(* Rendered through Session.render itself, so the expected text is
   byte-for-byte what every frontend prints. *)
let extent_text attrs e oids =
  Session.render
    (Session.Extent
       { expr = Tdp_algebra.View.Base (Type_name.of_string "Employee");
         attrs;
         rows = List.map (fun o -> (Oid.of_int o, List.map (emp_value e o) attrs)) oids
       })

let emp_ctx (e : Fixture.emp) =
  let h = Schema.hierarchy (Fixture.employee_schema ()) in
  let attrs = Hierarchy.all_attribute_names h (Type_name.of_string "Employee") in
  let threshold = Array.length e.low in
  { e;
    attrs;
    scan_resp = ok_text (extent_text attrs e (Array.to_list e.low));
    mscan_oids =
      Array.of_list (List.filter (fun o -> e.ssn.(o) < threshold) (List.init e.n succ))
  }

(* view-ddl draws from a fixed template set over the fixed synth-ddl
   schema; each template's responses come from an in-process oracle
   session on the server's own store path (per-object evaluation over
   an MVCC snapshot). *)
type template = { define : req; drop : req; type_ : req; project : req }

let templates scale =
  let _, db = Fixture.synth_db scale in
  let store = Mvcc.of_database db in
  let read () = Mvcc.head store ~branch:Mvcc.main_branch in
  let oracle = Session.create (Ops.store_ops ~read ~write:(fun () -> failwith "read-only") ()) in
  let schema = Tdp_store.Database.schema db in
  let answer cls src =
    let outcomes = Session.eval_string oracle src in
    if List.exists Session.failed outcomes then None
    else
      Some
        (eval_req cls src
           (Exact (ok_text (String.concat "\n" (List.map Session.render outcomes)))))
  in
  List.filter_map
    (fun k ->
      let ty, attrs = Tdp_synth.Synth.gen_projection ~seed:k schema in
      let s = Type_name.to_string ty in
      let a = String.concat ", " (List.map Attr_name.to_string attrs) in
      let first = Attr_name.to_string (List.hd attrs) in
      let v = Fmt.str "V%d" k in
      match
        ( answer Define (Fmt.str "define view %s = project %s on [%s];" v s a),
          answer Drop (Fmt.str "drop view %s;" v),
          answer Type (Fmt.str ":type select project %s on [%s] where %s < 500" s a first),
          answer Project (Fmt.str ":extent project %s on [%s]" s a) )
      with
      | Some define, Some drop, Some type_, Some project -> Some { define; drop; type_; project }
      | _ -> None)
    (List.init 16 Fun.id)
  |> Array.of_list

type ctx = Emp of emp_ctx | Ddl of template array

let context w ~seed scale =
  match fixture w with
  | Fixture.Emp -> Emp (emp_ctx (Fixture.employees ~seed scale))
  | Fixture.Synth_ddl -> Ddl (templates scale)

(* ---- streams --------------------------------------------------------- *)

type slot =
  | S_get | S_typeof | S_txn_set | S_txn_new | S_scan | S_point | S_call
  | S_ddl | S_type | S_project | S_mscan

(* Each connection's mix as exact counts per shuffled block of 20, so
   class proportions never drift with the seed. *)
let mix w ~conn =
  match (w, conn) with
  | Point_read, _ -> [ (S_get, 14); (S_typeof, 6) ]
  | Commit, _ | Mixed_rw, 0 -> [ (S_txn_set, 18); (S_txn_new, 2) ]
  | Scan_eval, _ -> [ (S_scan, 9); (S_point, 9); (S_call, 2) ]
  | View_ddl, _ -> [ (S_ddl, 8); (S_type, 8); (S_project, 4) ]
  | Mixed_rw, _ -> [ (S_get, 13); (S_typeof, 5); (S_mscan, 2) ]

type stream = {
  w : name;
  ctx : ctx;
  conn : int;
  st : Random.State.t;
  mutable block : slot array;
  mutable pos : int;
  mutable made : int;
  decks : (int array * int ref) array;  (* view-ddl: a shuffled template deck per unit kind *)
}

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let stream w ctx ~seed ~conn =
  let templates = match ctx with Ddl ts -> Array.length ts | Emp _ -> 0 in
  { w;
    ctx;
    conn;
    st = Random.State.make [| seed; conn; index_of w all |];
    block = [||];
    pos = 0;
    made = 0;
    decks = Array.init 3 (fun _ -> (Array.init templates Fun.id, ref templates))
  }

(* Deal from a deck, reshuffling when it runs out: every template is
   used equally often, in a seeded order. *)
let deal s (deck, pos) =
  if !pos >= Array.length deck then begin
    shuffle s.st deck;
    pos := 0
  end;
  incr pos;
  deck.(!pos - 1)

let next_slot s =
  if s.pos >= Array.length s.block then begin
    s.block <-
      Array.of_list (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) (mix s.w ~conn:s.conn));
    shuffle s.st s.block;
    s.pos <- 0
  end;
  s.pos <- s.pos + 1;
  s.block.(s.pos - 1)

let value v = Dump.value_to_string v
let begin_req = plain Begin "begin" (Prefix "ok txn ")
let commit_req = plain Commit_req "commit" Ack

let emp_work s c slot =
  let e = c.e in
  let oid () = 1 + Random.State.int s.st e.n in
  let key () = Random.State.int s.st e.n in
  match slot with
  | S_get ->
      let o = oid () in
      let attr, v =
        if Random.State.bool s.st then ("ssn", Value.Int e.ssn.(o))
        else ("name", Value.String e.name.(o))
      in
      { kind = U_get; reqs = [ plain Get (Fmt.str "get #%d %s" o attr) (Exact ("ok " ^ value v)) ] }
  | S_typeof ->
      { kind = U_typeof; reqs = [ plain Typeof (Fmt.str "typeof #%d" (oid ())) (Exact "ok Employee") ] }
  | S_txn_set ->
      let sets =
        List.init
          (1 + Random.State.int s.st 4)
          (fun _ ->
            let o = oid () in
            let v = 10.0 +. (float_of_int (Random.State.int s.st 9000) /. 100.0) in
            { (plain Set (Fmt.str "set #%d pay_rate=%s" o (value (Value.Float v))) (Exact "ok")) with
              write = Some (o, v)
            })
      in
      { kind = U_txn; reqs = (begin_req :: sets) @ [ commit_req ] }
  | S_txn_new ->
      (* SSNs of new employees never collide with the fixture's and never
         fall in a scanned range *)
      let ssn = (10_000_000 * (s.conn + 1)) + s.made in
      let name = Fmt.str "new%d_%d" s.conn s.made in
      let line =
        Fmt.str "new Employee ssn=%d name=%s date_of_birth=year:1990 pay_rate=%s hrs_worked=35.0"
          ssn (value (Value.String name))
          (value (Value.Float (20.0 +. float_of_int (Random.State.int s.st 50))))
      in
      { kind = U_txn; reqs = [ begin_req; plain New line (Created { ssn; name }); commit_req ] }
  | S_scan ->
      { kind = U_scan;
        reqs = [ eval_req Scan ":extent select Employee where pay_rate < 1.0" (Exact c.scan_resp) ]
      }
  | S_point ->
      let k = key () in
      { kind = U_point;
        reqs =
          [ eval_req Point
              (Fmt.str ":extent select Employee where ssn == %d" k)
              (Exact (ok_text (extent_text c.attrs e [ e.oid_of_ssn.(k) ])))
          ]
      }
  | S_call ->
      let k = key () in
      let o = e.oid_of_ssn.(k) in
      let text =
        Session.render
          (Session.Called
             { gf = "income"; results = [ (Oid.of_int o, Value.Float (e.pay.(o) *. e.hrs.(o))) ] })
      in
      { kind = U_call;
        reqs =
          [ eval_req Call (Fmt.str "call income on select Employee where ssn == %d;" k) (Exact (ok_text text)) ]
      }
  | S_mscan ->
      { kind = U_mscan;
        reqs =
          [ eval_req Mscan
              (Fmt.str ":extent select Employee where ssn < %d" (Array.length e.low))
              (Extent_oids c.mscan_oids)
          ]
      }
  | S_ddl | S_type | S_project -> invalid_arg "emp_work"

let ddl_work s (ts : template array) slot =
  match slot with
  | S_ddl ->
      let t = ts.(deal s s.decks.(0)) in
      { kind = U_ddl; reqs = [ t.define; t.drop ] }
  | S_type -> { kind = U_type; reqs = [ ts.(deal s s.decks.(1)).type_ ] }
  | S_project -> { kind = U_project; reqs = [ ts.(deal s s.decks.(2)).project ] }
  | _ -> invalid_arg "ddl_work"

let next s =
  let slot = next_slot s in
  s.made <- s.made + 1;
  match s.ctx with Emp c -> emp_work s c slot | Ddl ts -> ddl_work s ts slot

(* ---- checking -------------------------------------------------------- *)

type verdict = Pass | Fail of string | Committed of int | Conflict | New_oid of int

let int_after ~prefix s =
  if String.starts_with ~prefix s then
    int_of_string_opt (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

(* The OIDs of an extent response's rows ("#<oid> {...}" per line). *)
let extent_oids resp =
  if not (String.starts_with ~prefix:"ok " resp) then None
  else
    match Dump.value_of_string 0 (String.sub resp 3 (String.length resp - 3)) with
    | exception Dump.Parse_error _ -> None
    | Value.String text -> (
        match String.split_on_char '\n' text with
        | header :: rows ->
            let oids =
              List.filter_map
                (fun row ->
                  match String.index_opt row ' ' with
                  | Some i when i > 1 && row.[0] = '#' -> int_of_string_opt (String.sub row 1 (i - 1))
                  | _ -> None)
                rows
            in
            if header = Fmt.str "extent: %d" (List.length rows) && List.length oids = List.length rows
            then Some (Array.of_list oids)
            else None
        | [] -> None)
    | _ -> None

let check req resp =
  let fail () =
    let shown = if String.length resp > 200 then String.sub resp 0 200 ^ "..." else resp in
    Fail (Fmt.str "%s -> %s" req.line shown)
  in
  match req.expect with
  | Exact s -> if String.equal s resp then Pass else fail ()
  | Prefix p -> if String.starts_with ~prefix:p resp then Pass else fail ()
  | Created _ -> (
      match int_after ~prefix:"ok #" resp with Some o when o > 0 -> New_oid o | _ -> fail ())
  | Ack -> (
      match int_after ~prefix:"ok committed " resp with
      | Some v -> Committed v
      | None -> if String.starts_with ~prefix:"conflict " resp then Conflict else fail ())
  | Extent_oids want -> (
      match extent_oids resp with Some got when got = want -> Pass | _ -> fail ())
