(* olfu_perf: the OLFU benchmark.  See README.md for the workloads and
   metrics.

     olfu_perf --workload W --seed N --seconds S --trace 0|1
     olfu_perf record      re-record the reference digests (--jobs 1)
     olfu_perf smoke       every workload at minimal length, both modes
     olfu_perf compare BASE_DIR CHANGE_DIR

   Run from the repository root; perfbench/run.sh builds and runs it. *)

open Olfu_perfbench
module J = Olfu_obs.Json
module W = Workloads

let workloads = [ "oneshot-t32"; "oneshot-t16-seq"; "daemon-mix" ]

let oneshot_detail (run : W.oneshot_run) =
  let walls =
    W.group (List.map (fun (_, s, (r : Proc.result)) -> (Spec.label s, r.Proc.wall)) run.W.requests)
  in
  J.Obj
    (List.map
       (fun (label, ws) ->
         ( label,
           J.Obj
             [
               ("median_s", J.Float (Stats.median ws));
               ("walls_s", J.List (List.map (fun w -> J.Float w) ws));
             ] ))
       walls)

let daemon_detail (run : W.daemon_run) =
  let groups unit_ g =
    J.Obj
      (List.map
         (fun (k, xs) ->
           ( k,
             J.Obj
               [
                 ("n", J.Int (List.length xs));
                 ("median_" ^ unit_, J.Float (Stats.median xs));
                 ("p99_" ^ unit_, J.Float (Stats.percentile 99. xs));
               ] ))
         g)
  in
  J.Obj
    [
      ("hits", groups "us" (W.hit_groups run));
      ("misses", groups "s" (W.miss_groups run));
      ("makespan_s", J.Float run.W.makespan);
    ]

let traced_detail replays =
  J.Obj
    (List.map
       (fun (s, (r : Layers.replay), wall) ->
         ( Spec.label s,
           J.Obj
             [
               ("wall_s", J.Float wall);
               ("replay_s", J.Float r.Layers.total);
               ("layers_s", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) r.Layers.layers));
             ] ))
       replays)

(* The attribution bound: the replay's layers must account for the
   request's wall within this share. *)
let attribution_bound = 0.10

let measure env ~workload ~trace =
  let work = env.W.work in
  match (workload, trace) with
  | "oneshot-t32", false ->
    let setups, () = W.repeat_setup W.setups (W.setup_t32 env) in
    let run = W.oneshot_loop env ~jobs:1 ~min_cycles:2 ~seconds:env.W.seconds Plan.oneshot_t32 in
    (W.oneshot_metrics run setups, oneshot_detail run)
  | "oneshot-t16-seq", false ->
    let setups, () = W.repeat_setup W.setups (W.setup_t16 env) in
    let run =
      W.oneshot_loop env ~jobs:2 ~min_cycles:2 ~seconds:env.W.seconds (Plan.oneshot_t16 ~work)
    in
    (W.oneshot_metrics run setups, oneshot_detail run)
  | "daemon-mix", false ->
    let text_seen = Hashtbl.create 16 in
    let setups, d = W.daemon_setups env text_seen in
    let run = W.daemon_measure env d text_seen in
    (W.daemon_metrics run setups, daemon_detail run)
  | "oneshot-t32", true ->
    W.setup_t32 env ();
    let m, r = Traced.oneshot env ~jobs:1 Plan.oneshot_t32 in
    (m, traced_detail r)
  | "oneshot-t16-seq", true ->
    W.setup_t16 env ();
    let m, r = Traced.oneshot env ~jobs:2 (Plan.oneshot_t16 ~work) in
    (m, traced_detail r)
  | "daemon-mix", true ->
    let m, r = Traced.daemon env in
    (m, traced_detail r)
  | w, _ -> invalid_arg ("unknown workload " ^ w)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let run_one ~cli ~work ~workload ~seed ~seconds ~trace =
  ensure_dir work;
  let env = W.create ~cli ~work ~seed ~seconds in
  let metrics, detail = measure env ~workload ~trace in
  let path = Results.write env ~workload ~trace ~metrics ~detail in
  Results.print metrics;
  (if trace then
     match List.find_opt (fun m -> m.W.name = "attrib.coverage") metrics with
     | Some m when Float.abs (m.W.value -. 1.) > attribution_bound ->
       Printf.printf "note: layers account for %.1f%% of wall (bound +/-%.0f%%)\n"
         (100. *. m.W.value) (100. *. attribution_bound)
     | _ -> ());
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev env.W.errors);
  Printf.printf "results: %s\n" path;
  (env, metrics)

(* Re-record every reference digest from one-shot runs at --jobs 1. *)
let record ~cli ~work =
  ensure_dir work;
  let r =
    Proc.run ~log:(Filename.concat work "olfu.log")
      [| cli; "generate"; "-c"; "tcore16"; "-o"; Plan.t16_file work |]
  in
  if r.Proc.code <> 0 then failwith "generate tcore16 failed";
  let seen = Hashtbl.create 64 in
  let digests =
    List.filter_map
      (fun s ->
        let label = Spec.label s in
        if Hashtbl.mem seen label then None
        else begin
          Hashtbl.add seen label ();
          let r = Proc.run ~log:(Filename.concat work "olfu.log") (Spec.argv ~cli ~jobs:1 s) in
          if r.Proc.code <> 0 && r.Proc.code <> 1 then
            failwith (Printf.sprintf "%s: exit %d" label r.Proc.code);
          Printf.printf "%-60s %6.2f s\n%!" label r.Proc.wall;
          Some (label, Reference.digest r.Proc.out)
        end)
      (Plan.all_specs ~work)
  in
  Reference.save digests;
  Printf.printf "wrote %s (%d digests)\n" Reference.path (List.length digests)

(* Every workload, untraced and traced, at minimal length: each run
   must be correct and report finite metrics. *)
let smoke ~cli ~work =
  let ok =
    List.for_all
      (fun (workload, trace) ->
        Printf.printf "== %s trace=%b\n%!" workload trace;
        let env, metrics = run_one ~cli ~work ~workload ~seed:1 ~seconds:1 ~trace in
        let good =
          env.W.failed = 0 && env.W.attempted > 0
          && List.for_all (fun m -> Float.is_finite m.W.value) metrics
        in
        if not good then Printf.printf "SMOKE FAILED: %s trace=%b\n" workload trace;
        good)
      (List.concat_map (fun w -> [ (w, false); (w, true) ]) workloads)
  in
  exit (if ok then 0 else 1)

let usage () =
  prerr_endline
    "usage: olfu_perf [--cli EXE] [--work DIR] --workload W --seed N --seconds S --trace 0|1\n\
    \       olfu_perf [--cli EXE] [--work DIR] record | smoke\n\
    \       olfu_perf compare [--bench BENCHMARK.json] BASE_DIR CHANGE_DIR\n\
     workloads: oneshot-t32 oneshot-t16-seq daemon-mix";
  exit 2

let () =
  let cli = ref "_build/default/bin/olfu_cli.exe" and work = ref ".perfbench" in
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref false in
  let bench = ref "BENCHMARK.json" and rest = ref [] in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | "--cli" :: v :: r -> cli := v; parse r
    | "--work" :: v :: r -> work := v; parse r
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int v; parse r
    | "--seconds" :: v :: r -> seconds := int v; parse r
    | "--trace" :: v :: r -> trace := int v <> 0; parse r
    | "--bench" :: v :: r -> bench := v; parse r
    | x :: r -> rest := x :: !rest; parse r
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* a daemon that dies mid-run must show as failed requests, not kill
     the benchmark on its next write *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let need_cli () =
    if not (Sys.file_exists !cli) then begin
      prerr_endline ("olfu_perf: no executable at " ^ !cli ^ " (build it first)");
      exit 2
    end
  in
  try
    match List.rev !rest with
    | [ "record" ] -> need_cli (); record ~cli:!cli ~work:!work
    | [ "smoke" ] -> need_cli (); smoke ~cli:!cli ~work:!work
    | [ "replay"; index; jobs; traced ] ->
      let s = List.nth (Plan.all_specs ~work:!work) (int index) in
      let r =
        if traced = "1" then Layers.replay ~jobs:(int jobs) s
        else Layers.untraced ~jobs:(int jobs) s
      in
      print_endline (J.to_string (Layers.to_json r))
    | [ "compare"; base_dir; head_dir ] ->
      exit (if Compare.run ~bench:!bench ~base_dir ~head_dir then 0 else 1)
    | [] when List.mem !workload workloads && !seconds >= 1 ->
      need_cli ();
      let env, metrics =
        run_one ~cli:!cli ~work:!work ~workload:!workload ~seed:!seed ~seconds:!seconds
          ~trace:!trace
      in
      print_endline (Results.line env metrics)
    | _ -> usage ()
  with e ->
    prerr_endline ("olfu_perf: " ^ Printexc.to_string e);
    exit 3
