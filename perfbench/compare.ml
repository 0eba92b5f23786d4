(* Comparing two result sets of the same workloads: a parent commit's
   runs against a change's runs, metric by metric.

   - gain: at least 10 pairs (i-th parent run with i-th change run, in
     the order they finished), the change better in at least 9 of 10,
     and the medians further apart than the parent's own quartile
     spread;
   - unresolved: either side's spread (interquartile distance over
     median) exceeds the metric's bound, unless every change run beats
     every parent run;
   - regression: the change's median worse than the parent's by more
     than the bound;
   - otherwise no regression. *)

module J = Olfu_obs.Json

type verdict = Gain | Regression | Unresolved | No_regression

let verdict_name = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | No_regression -> "no-regression"

type judged = {
  verdict : verdict;
  base_median : float;
  head_median : float;
  worse_by : float;  (** share of the parent median; negative = better *)
  wins : int;
  pairs : int;
}

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

let judge ~lower ~bound ~base ~head =
  let better h b = if lower then h < b else h > b in
  let n = min (List.length base) (List.length head) in
  let pairs = List.combine (take n base) (take n head) in
  let wins = List.length (List.filter (fun (b, h) -> better h b) pairs) in
  let mb = Stats.median base and mh = Stats.median head in
  let q1, _, q3 = Stats.quartiles base in
  let worse_by = (if lower then mh -. mb else mb -. mh) /. Float.abs mb in
  let all_better = List.for_all (fun h -> List.for_all (better h) base) head in
  let verdict =
    if n >= 10 && wins * 10 >= 9 * n && better mh mb && Float.abs (mh -. mb) > q3 -. q1
    then Gain
    else if Stats.spread base > bound || Stats.spread head > bound then
      if all_better then No_regression else Unresolved
    else if worse_by > bound then Regression
    else No_regression
  in
  { verdict; base_median = mb; head_median = mh; worse_by; wins; pairs = n }

let parse_file path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let field k j = match J.member k j with Some v -> v | None -> failwith ("missing " ^ k)
let str k j = Option.get (J.to_string_opt (field k j))
let num k j = Option.get (J.to_float_opt (field k j))

(* End-to-end metrics and bounds from BENCHMARK.json. *)
let bounds bench =
  match J.to_list_opt (field "end_to_end" (parse_file bench)) with
  | Some l -> List.map (fun m -> (str "name" m, (str "better" m = "lower", num "bound" m))) l
  | None -> failwith (bench ^ ": end_to_end is not a list")

(* Untraced runs in [dir], by workload, in the order they finished. *)
let load_set dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f -> parse_file (Filename.concat dir f))
  |> List.filter (fun j -> J.member "trace" j = Some (J.Bool false))
  |> List.sort (fun a b -> compare (num "finished_at" a) (num "finished_at" b))
  |> List.fold_left
       (fun acc j ->
         let w = str "workload" j in
         (w, j :: Option.value ~default:[] (List.assoc_opt w acc)) :: List.remove_assoc w acc)
       []
  |> List.map (fun (w, runs) -> (w, List.rev runs))

let values name runs =
  List.map (fun j -> num "value" (field name (field "metrics" j))) runs

(* Prints one row per (workload, metric); true when nothing regressed. *)
let run ~bench ~base_dir ~head_dir =
  let bounds = bounds bench in
  let base = load_set base_dir and head = load_set head_dir in
  let ok = ref true in
  Printf.printf "%-16s %-20s %12s %12s %8s %6s  %s\n" "workload" "metric" "parent" "change"
    "worse" "wins" "verdict";
  List.iter
    (fun (w, bruns) ->
      match List.assoc_opt w head with
      | None -> Printf.printf "%-16s (no change runs)\n" w
      | Some hruns ->
        List.iter
          (fun (name, (lower, bound)) ->
            let r = judge ~lower ~bound ~base:(values name bruns) ~head:(values name hruns) in
            if r.verdict = Regression then ok := false;
            Printf.printf "%-16s %-20s %12.6g %12.6g %+7.1f%% %2d/%-3d  %s\n" w name
              r.base_median r.head_median (100. *. r.worse_by) r.wins r.pairs
              (verdict_name r.verdict))
          bounds)
    (List.sort compare base);
  !ok
