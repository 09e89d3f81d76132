(* The `odb serve` child process: spawn to readiness, /proc sampling,
   and shutdown.

   `odb serve` does not exit on SIGTERM while a client connection is
   open (it exits promptly once the last one closes), so [stop] must
   only be called after every client has closed; it waits at most
   [stop_timeout] seconds before SIGKILL and reports that as a failure. *)

type t = {
  pid : int;
  out : Unix.file_descr;  (* the server's stdout: readiness line, then "shut down." *)
  ready_s : float;  (* spawn to readiness line *)
  objects : int;  (* as the readiness line reports them *)
  mutable reaped : bool;
}

let stop_timeout = 10.0
let ready_timeout = 120.0

exception Failed of string

let failf fmt = Fmt.kstr (fun m -> raise (Failed m)) fmt

(* One line from [fd], waiting at most until [deadline]. *)
let read_line fd ~deadline =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then failf "odb serve: no readiness line within %.0f s" ready_timeout;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> failf "odb serve exited before readiness (%S)" (Buffer.contents buf)
        | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
        | _ ->
            Buffer.add_char buf (Bytes.get byte 0);
            go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_proc path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* The readiness line is printed just before `odb serve` installs its
   SIGTERM handler; a SIGTERM in between kills it outright.  Wait until
   /proc shows the signal caught (SigCgt bit 15). *)
let wait_for_sigterm_handler pid =
  let caught () =
    match read_proc (Fmt.str "/proc/%d/status" pid) with
    | None -> true
    | Some s ->
        List.exists
          (fun l ->
            match Scanf.sscanf l "SigCgt: %Lx" Fun.id with
            | mask -> Int64.logand mask (Int64.shift_left 1L 14) <> 0L
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> false)
          (String.split_on_char '\n' s)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (caught ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done

let spawn ~odb ~dir ~sock =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Stats.now_ns () in
  let pid =
    Unix.create_process odb
      [| odb; "serve"; dir; "--socket"; sock; "--domains"; "2" |]
      null w Unix.stderr
  in
  Unix.close w;
  Unix.close null;
  match read_line r ~deadline:(Unix.gettimeofday () +. ready_timeout) with
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close r;
      raise e
  | line ->
      let ready_s = (Stats.now_ns () -. t0) /. 1e9 in
      wait_for_sigterm_handler pid;
      (* "serving DIR on SOCK (N object(s), version V, T txn(s) replayed)" *)
      let objects =
        match String.index_opt line '(' with
        | Some i -> (
            try Scanf.sscanf (String.sub line i (String.length line - i)) "(%d object(s)" Fun.id
            with Scanf.Scan_failure _ | End_of_file | Failure _ -> -1)
        | None -> -1
      in
      { pid; out = r; ready_s; objects; reaped = false }

(* SIGTERM, then wait; [false] when it took SIGKILL or exited non-zero. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. stop_timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () < deadline then (
          Unix.sleepf 0.005;
          wait ())
        else begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid);
          false
        end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let clean = wait () in
  t.reaped <- true;
  Unix.close t.out;
  clean

(* [f p], and a server [f] did not stop is killed and reaped. *)
let with_server p f =
  Fun.protect f ~finally:(fun () ->
      if not p.reaped then begin
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
        p.reaped <- true;
        Unix.close p.out
      end)

(* ---- /proc ----------------------------------------------------------- *)

(* Peak resident set (VmHWM), in kB. *)
let vm_hwm_kb pid =
  match read_proc (Fmt.str "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc l ->
          try Scanf.sscanf l "VmHWM: %d kB" Fun.id with Scanf.Scan_failure _ | End_of_file | Failure _ -> acc)
        0 (String.split_on_char '\n' s)

(* utime + stime in seconds (USER_HZ = 100 on Linux). *)
let cpu_s pid =
  match read_proc (Fmt.str "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> 0.0
      | Some i -> (
          let fields = String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) in
          match (List.nth_opt fields 11, List.nth_opt fields 12) with
          | Some u, Some k -> float_of_string (u ^ ".") /. 100.0 +. (float_of_string (k ^ ".") /. 100.0)
          | _ -> 0.0))
