(* The load benchmark's command line.  See README.md.

     load.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
              [--spans FILE] [--out FILE] [--odb PATH] [--work DIR] [--smoke]

   The last line of stdout is one JSON object: correct, attempted,
   failed, and the end-to-end metrics (--trace 0) or the per-layer
   metrics of a traced replay (--trace 1). *)

open Loadbench
module W = Workload
module J = Tdp_obs.Json

let usage = "load.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [options]"

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and spans = ref "" and out = ref "" and smoke = ref false in
  let odb = ref "_build/default/bin/odb.exe" and work = ref ".loadbench" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  one of point-read, commit, scan-eval, view-ddl, mixed-rw, or all");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1; seed 2 is held out for gain claims)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  also run the traced replay and report per-layer metrics");
      ("--spans", Arg.Set_string spans, "FILE  JSONL span file of the traced replay");
      ("--out", Arg.Set_string out, "FILE  write every metric, with sample counts, as JSON");
      ("--odb", Arg.Set_string odb, "PATH  the odb binary (default _build/default/bin/odb.exe)");
      ("--work", Arg.Set_string work, "DIR  fixtures and run directories (default .loadbench)");
      ("--smoke", Arg.Set smoke, " all workloads, 1 s each, reduced fixtures, traced")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (* warm-up seconds and spawn-to-ready cycles for setup_s *)
  let scale, warmup, cycles =
    if !smoke then begin
      workload := "all";
      seconds := 1.0;
      trace := 1;
      (Fixture.smoke, 0.3, 1)
    end
    else (Fixture.full, 3.0, 5)
  in
  let workloads =
    if !workload = "all" then W.all
    else
      match W.of_string !workload with
      | Some w -> [ w ]
      | None ->
          prerr_endline ("unknown workload " ^ !workload);
          exit 2
  in
  if not (!seconds > 0.0 && !seconds <= float_of_int (Drive.max_seconds - 1)) then begin
    prerr_endline (Fmt.str "--seconds must lie in (0, %d]" (Drive.max_seconds - 1));
    exit 2
  end;
  if not (Sys.file_exists !odb) then begin
    prerr_endline ("odb binary not found: " ^ !odb);
    exit 2
  end;
  Fixture.mkdir_p !work;
  let tag w suffix = Filename.concat !work (Fmt.str "%s-%s-%d" suffix (W.to_string w) (Unix.getpid ())) in
  (* traced requests per workload: enough for ~90 of the rarest class
     (`new`, 2%); scan-eval's requests each walk the whole store *)
  let replay_n w =
    match (w, !smoke) with W.Scan_eval, false -> 200 | _, false -> 4000 | _, true -> 200
  in
  let run w =
    let ctx = W.context w ~seed:!seed scale in
    let fixture = Fixture.ensure ~work:!work (W.fixture w) ~seed:!seed scale in
    let with_copy suffix f =
      let dir = tag w suffix in
      Fixture.rm_rf dir;
      Fixture.copy_dir fixture dir;
      Fun.protect ~finally:(fun () -> Fixture.rm_rf dir) (fun () -> f dir)
    in
    let r =
      with_copy "run" (fun dir ->
          let objects =
            match W.fixture w with
            | Fixture.Emp -> scale.employees
            | Fixture.Synth_ddl -> scale.synth_objects
          in
          Drive.run ~odb:!odb ~dir ~objects ~setup_cycles:cycles ~warmup ~seconds:!seconds w ctx ~seed:!seed)
    in
    let t =
      if !trace = 0 then None
      else
        with_copy "a" (fun dir_a ->
            with_copy "b" (fun dir_b ->
                let t = Replay.run ~dir_a ~dir_b w ctx ~seed:!seed ~n:(replay_n w) in
                let path =
                  if !spans <> "" && List.length workloads = 1 then !spans
                  else Filename.concat !work (Fmt.str "spans-%s.jsonl" (W.to_string w))
                in
                Fixture.write_file path t.Replay.jsonl;
                Some t))
    in
    let rep = Report.make w r t in
    List.iter print_string rep.tables;
    List.iter (fun x -> print_endline (Report.line w x)) (rep.end_to_end @ rep.detail @ rep.per_layer);
    List.iter (fun e -> prerr_endline (W.to_string w ^ ": " ^ e)) rep.errors;
    List.iter
      (fun g -> prerr_endline (Fmt.str "%s: %s has fewer than %d samples beyond it" (W.to_string w) g Report.min_beyond))
      rep.guard;
    flush stdout;
    rep
  in
  let reps =
    List.map
      (fun w ->
        try run w
        with Proc.Failed msg ->
          prerr_endline (W.to_string w ^ ": " ^ msg);
          exit 1)
      workloads
  in
  if !out <> "" then
    Out_channel.with_open_bin !out (fun oc ->
        output_string oc (J.to_string ~pretty:true (J.List (List.map Report.detail_json reps)));
        output_char oc '\n');
  let chosen (r : Report.t) = if !trace = 0 then r.end_to_end else r.per_layer in
  let metrics =
    match reps with
    | [ r ] -> List.map Report.metric_json (chosen r)
    | _ ->
        List.concat_map
          (fun (r : Report.t) ->
            List.map (fun (k, v) -> (W.to_string r.workload ^ "/" ^ k, v)) (List.map Report.metric_json (chosen r)))
          reps
  in
  let correct = List.for_all (Report.correct ~guarded:(not !smoke)) reps in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int (List.fold_left (fun a (r : Report.t) -> a + r.attempted) 0 reps));
            ("failed", J.Int (List.fold_left (fun a (r : Report.t) -> a + r.failed) 0 reps));
            ("metrics", J.Obj metrics)
          ]));
  exit (if correct then 0 else 1)
