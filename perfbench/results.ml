(* The results envelope (one file per run) and the result line. *)

module J = Olfu_obs.Json
open Workloads

let metric_json m =
  let summary =
    match m.samples with
    | [] -> []
    | xs ->
      let q1, q2, q3 = Stats.quartiles xs in
      [
        ("n", J.Int (List.length xs));
        ("median", J.Float q2);
        ("q1", J.Float q1);
        ("q3", J.Float q3);
        ("samples", J.List (List.map (fun x -> J.Float x) xs));
      ]
  in
  J.Obj ([ ("unit", J.Str m.unit_); ("value", J.Float m.value) ] @ summary)

let envelope env ~workload ~trace ~metrics ~detail =
  J.Obj
    [
      ("benchmark", J.Str "olfu-perfbench");
      ("schema", J.Int 1);
      ("workload", J.Str workload);
      ("seed", J.Int env.seed);
      ("seconds", J.Int env.seconds);
      ("trace", J.Bool trace);
      ("finished_at", J.Float (Unix.gettimeofday ()));
      ("git", J.Str (Olfu_obs.Manifest.git_describe ()));
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("correct", J.Bool (env.failed = 0));
      ("attempted", J.Int env.attempted);
      ("failed", J.Int env.failed);
      ( "error_rate",
        J.Float (float_of_int env.failed /. float_of_int (max 1 env.attempted)) );
      ("errors", J.List (List.rev_map (fun e -> J.Str e) env.errors));
      ("metrics", J.Obj (List.map (fun m -> (m.name, metric_json m)) metrics));
      ("detail", detail);
    ]

(* The last line of stdout. *)
let line env metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (env.failed = 0));
         ("attempted", J.Int env.attempted);
         ("failed", J.Int env.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
                metrics) );
       ])

let write env ~workload ~trace ~metrics ~detail =
  let dir = Filename.concat env.work "results" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-trace%d.json" workload env.seed (Bool.to_int trace))
  in
  J.to_file ~indent:true path (envelope env ~workload ~trace ~metrics ~detail);
  path

(* Human-readable lines, one per metric, before the result line. *)
let print metrics =
  List.iter
    (fun m ->
      let n = match m.samples with [] -> "" | xs -> Printf.sprintf "  (n=%d)" (List.length xs) in
      Printf.printf "%-32s %14.6g %-6s%s\n" m.name m.value m.unit_ n)
    metrics
