(* The socket run: closed-loop clients against a spawned `odb serve`,
   then a restart that reads every acknowledged write back. *)

module Server = Tdp_txn.Server
module W = Workload

let ncls = List.length W.all_cls
let cls_index c = W.index_of c W.all_cls
let nunits = List.length W.all_units
let unit_index u = W.index_of u W.all_units

(* Everything one client connection records; owned by its domain. *)
type conn = {
  req_lat : Stats.samples array;  (* ns, by request class, in the window *)
  unit_lat : Stats.samples array array;  (* ns, by unit kind and second of the window *)
  resp_bytes : float array;  (* by request class, in the window *)
  mutable in_window : int;
  per_second : int array;  (* requests completed in each second of the window *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* the first few failures *)
  mutable commits : int;
  mutable conflicts : int;
  acked : (int, int * float) Hashtbl.t;  (* oid -> (version, pay_rate) *)
  touched : (int, unit) Hashtbl.t;  (* every OID a commit attempt wrote *)
  mutable news : (int * int * string) list;  (* acknowledged (oid, ssn, name) *)
}

let max_seconds = 64

let second ~warm_end t = min (max_seconds - 1) (int_of_float ((t -. warm_end) /. 1e9))

let new_conn () =
  { req_lat = Array.init ncls (fun _ -> Stats.samples ());
    unit_lat = Array.init nunits (fun _ -> Array.init max_seconds (fun _ -> Stats.samples ()));
    resp_bytes = Array.make ncls 0.0;
    in_window = 0;
    per_second = Array.make max_seconds 0;
    attempted = 0;
    failed = 0;
    errors = [];
    commits = 0;
    conflicts = 0;
    acked = Hashtbl.create 1024;
    touched = Hashtbl.create 1024;
    news = []
  }

let fail c msg =
  c.failed <- c.failed + 1;
  if List.length c.errors < 5 then c.errors <- msg :: c.errors

exception Lost

(* One closed loop: the next unit only after the previous reply. *)
let client cl ~stream ~warm_end ~stop_at =
  let c = new_conn () in
  let in_window t = t >= warm_end && t <= stop_at in
  (match cl with
  | Error msg -> fail c msg
  | Ok cl ->
      let sets = ref [] and fresh = ref [] in
      let send (r : W.req) =
        c.attempted <- c.attempted + 1;
        let t0 = Stats.now_ns () in
        let resp =
          try Server.request cl r.line
          with End_of_file | Sys_error _ | Unix.Unix_error _ ->
            fail c ("connection lost at " ^ r.line);
            raise Lost
        in
        let t1 = Stats.now_ns () in
        if in_window t1 then begin
          let i = cls_index r.cls in
          c.in_window <- c.in_window + 1;
          let sec = second ~warm_end t1 in
          c.per_second.(sec) <- c.per_second.(sec) + 1;
          Stats.add c.req_lat.(i) (t1 -. t0);
          c.resp_bytes.(i) <- c.resp_bytes.(i) +. float_of_int (String.length resp + 1)
        end;
        match W.check r resp with
        | W.Pass -> (
            match (r.cls, r.write) with
            | W.Begin, _ ->
                sets := [];
                fresh := []
            | W.Set, Some w -> sets := w :: !sets
            | _ -> ())
        | W.Fail m -> fail c m
        | W.New_oid o -> (
            match r.expect with
            | W.Created { ssn; name } -> fresh := (o, ssn, name) :: !fresh
            | _ -> ())
        | W.Committed v ->
            c.commits <- c.commits + 1;
            List.iter
              (fun (o, pay) ->
                Hashtbl.replace c.touched o ();
                match Hashtbl.find_opt c.acked o with
                | Some (v', _) when v' > v -> ()
                | _ -> Hashtbl.replace c.acked o (v, pay))
              (List.rev !sets);
            c.news <- List.rev_append !fresh c.news
        | W.Conflict ->
            c.conflicts <- c.conflicts + 1;
            List.iter (fun (o, _) -> Hashtbl.replace c.touched o ()) !sets
      in
      (try
         while Stats.now_ns () < stop_at do
           let w = W.next stream in
           let u0 = Stats.now_ns () in
           List.iter send w.reqs;
           let u1 = Stats.now_ns () in
           if in_window u1 then Stats.add c.unit_lat.(unit_index w.kind).(second ~warm_end u1) (u1 -. u0)
         done;
         ignore (Server.request cl "quit")
       with Lost | End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
      Server.close_client cl);
  c

type result = {
  conns : conn list;
  seconds : float;
  setup : float list;  (* spawn-to-ready of each cycle *)
  rss_kb : int;
  server_cpu_s : float;  (* server CPU inside the window *)
  gen_cpu_s : float;  (* this process's CPU inside the window *)
  clean_stop : bool;
  durability_attempted : int;
  durability_failed : int;
  durability_errors : string list;
}

let sum_conns f r = List.fold_left (fun a c -> a + f c) 0 r.conns
let lat_cls r cls = Stats.merge (List.map (fun c -> c.req_lat.(cls_index cls)) r.conns)
let lat_unit r u = Stats.merge (List.concat_map (fun c -> Array.to_list c.unit_lat.(unit_index u)) r.conns)

(* Per second of the window: units of the given kinds completed, and
   requests completed. *)
let slices r us =
  List.init (int_of_float (Float.ceil r.seconds)) (fun sec ->
      ( Stats.merge (List.concat_map (fun c -> List.map (fun u -> c.unit_lat.(unit_index u).(sec)) us) r.conns),
        List.fold_left (fun a c -> a + c.per_second.(sec)) 0 r.conns ))

let proc_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Restart the server on the run's directory and read every written
   OID back: the acknowledged value with the highest commit version,
   or the fixture's value when no commit writing it was acknowledged
   (a lost write and a phantom write both fail).  New objects must all
   be there with their fields, and no others. *)
let durability ~odb ~dir ~sock (e : Fixture.emp) conns =
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let fail m =
    incr failed;
    if List.length !errors < 5 then errors := m :: !errors
  in
  let acked = Hashtbl.create 4096 and touched = Hashtbl.create 4096 in
  List.iter
    (fun c ->
      Hashtbl.iter (fun o () -> Hashtbl.replace touched o ()) c.touched;
      Hashtbl.iter
        (fun o (v, pay) ->
          match Hashtbl.find_opt acked o with
          | Some (v', _) when v' > v -> ()
          | _ -> Hashtbl.replace acked o (v, pay))
        c.acked)
    conns;
  let news = List.concat_map (fun c -> c.news) conns in
  let p = Proc.spawn ~odb ~dir ~sock in
  Proc.with_server p @@ fun () ->
  let objects = e.n + List.length news in
  if p.objects <> objects then fail (Fmt.str "restart recovered %d objects, expected %d" p.objects objects);
  (match Server.connect (Unix.ADDR_UNIX sock) with
  | exception Unix.Unix_error (err, _, _) -> fail ("reconnect: " ^ Unix.error_message err)
  | cl ->
      let expect line want =
        incr attempted;
        match Server.request cl line with
        | resp when resp = want -> ()
        | resp -> fail (Fmt.str "%s -> %s, expected %s" line resp want)
        | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> fail ("connection lost at " ^ line)
      in
      let v x = "ok " ^ Tdp_store.Dump.value_to_string x in
      expect "count" (Fmt.str "ok %d" objects);
      Hashtbl.iter
        (fun o () ->
          let pay = match Hashtbl.find_opt acked o with Some (_, pay) -> pay | None -> e.pay.(o) in
          expect (Fmt.str "get #%d pay_rate" o) (v (Tdp_store.Value.Float pay)))
        touched;
      List.iter
        (fun (o, ssn, name) ->
          expect (Fmt.str "get #%d ssn" o) (v (Tdp_store.Value.Int ssn));
          expect (Fmt.str "get #%d name" o) (v (Tdp_store.Value.String name)))
        news;
      (try ignore (Server.request cl "quit") with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
      Server.close_client cl);
  if not (Proc.stop p) then fail "restarted server did not stop within 10 s of SIGTERM";
  (!attempted, !failed, List.rev !errors)

(* One workload's socket run in [dir] (a fresh fixture copy). *)
let run ~odb ~dir ~objects ~setup_cycles ~warmup ~seconds w ctx ~seed =
  let sock = Filename.concat dir "odb.sock" in
  let addr = Unix.ADDR_UNIX sock in
  let spawn () =
    let p = Proc.spawn ~odb ~dir ~sock in
    if p.objects <> objects then begin
      ignore (Proc.stop p);
      raise (Proc.Failed (Fmt.str "server recovered %d objects, expected %d" p.objects objects))
    end;
    p
  in
  (* set-up: spawn to readiness, [setup_cycles] times; the last server
     stays up and is measured *)
  let setup =
    List.init (setup_cycles - 1) (fun _ ->
        let p = spawn () in
        if not (Proc.stop p) then raise (Proc.Failed "server did not stop during set-up");
        p.ready_s)
  in
  let p = spawn () in
  let setup = setup @ [ p.ready_s ] in
  Proc.with_server p @@ fun () ->
  (* connect one client at a time, each confirmed by a round trip, so
     the two sessions land on the server's accepter domains the same
     way on every run *)
  let clients =
    List.init 2 (fun _ ->
        match Server.connect addr with
        | exception Unix.Unix_error (e, _, _) -> Error ("connect: " ^ Unix.error_message e)
        | cl -> (
            match Server.request cl "ping" with
            | "ok pong" -> Ok cl
            | resp ->
                Server.close_client cl;
                Error ("ping -> " ^ resp)
            | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
                Server.close_client cl;
                Error "connection lost at ping"))
  in
  let t0 = Stats.now_ns () in
  let warm_end = t0 +. (warmup *. 1e9) in
  let stop_at = warm_end +. (seconds *. 1e9) in
  let domains =
    List.mapi
      (fun conn cl ->
        let stream = W.stream w ctx ~seed ~conn in
        Domain.spawn (fun () -> client cl ~stream ~warm_end ~stop_at))
      clients
  in
  let wait_until t = let d = (t -. Stats.now_ns ()) /. 1e9 in if d > 0.0 then Unix.sleepf d in
  wait_until warm_end;
  let srv0 = Proc.cpu_s p.pid and gen0 = proc_cpu () in
  wait_until stop_at;
  let srv1 = Proc.cpu_s p.pid and gen1 = proc_cpu () in
  let conns = List.map Domain.join domains in
  (* every client has sent quit and closed: SIGTERM can take effect *)
  let rss_kb = Proc.vm_hwm_kb p.pid in
  let clean_stop = Proc.stop p in
  let durability_attempted, durability_failed, durability_errors =
    match ctx with
    | W.Emp c when W.writes w -> durability ~odb ~dir ~sock c.e conns
    | _ -> (0, 0, [])
  in
  { conns;
    seconds;
    setup;
    rss_kb;
    server_cpu_s = srv1 -. srv0;
    gen_cpu_s = gen1 -. gen0;
    clean_stop;
    durability_attempted;
    durability_failed;
    durability_errors
  }
