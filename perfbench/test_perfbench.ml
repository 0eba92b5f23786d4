(* The benchmark's own tests: order statistics (checked against
   Python's statistics.quantiles), the comparison rule on synthetic
   samples, span attribution, the seeded daemon plan and the result
   line.  The workloads themselves are exercised by
   [bash perfbench/run.sh smoke]. *)

open Olfu_perfbench
module J = Olfu_obs.Json
module Trace = Olfu_obs.Trace

let floats = Alcotest.(list (float 1e-9))

let test_quantiles () =
  (* expected values: Python 3 statistics.quantiles(data, n=4) *)
  Alcotest.check floats "two" [ 0.5; 2.0; 3.5 ] (Stats.quantiles [ 1.; 3. ]);
  Alcotest.check floats "four, unsorted" [ 1.25; 2.5; 3.75 ]
    (Stats.quantiles [ 4.; 1.; 3.; 2. ]);
  Alcotest.check floats "ten" [ 2.75; 5.5; 8.25 ]
    (Stats.quantiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "seven" [ 0.9; 1.0; 1.1 ]
    (Stats.quantiles [ 0.9; 1.1; 1.0; 1.05; 0.97; 1.2; 0.8 ]);
  Alcotest.check floats "one" [ 5.; 5.; 5. ] (Stats.quantiles [ 5. ])

let test_order_stats () =
  let f = Alcotest.float 1e-9 in
  Alcotest.check f "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check f "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check f "spread" 0.4 (Stats.spread [ 0.9; 1.1; 1.0; 1.05; 0.97; 1.2; 0.8 ] *. 2.);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check f "p99 nearest rank" 99. (Stats.percentile 99. xs);
  Alcotest.check f "p50 nearest rank" 50. (Stats.percentile 50. xs);
  Alcotest.check f "geomean" 4. (Stats.geomean [ 2.; 8. ])

(* Ten parent runs around 1.0 with a 2% quartile spread. *)
let parent = [ 1.00; 1.02; 0.99; 1.01; 0.98; 1.00; 1.03; 0.97; 1.01; 0.99 ]
let scaled k = List.map (fun x -> x *. k) parent

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v))
    ( = )

let judge ?(lower = true) ?(bound = 0.10) base head =
  (Compare.judge ~lower ~bound ~base ~head).Compare.verdict

let test_compare () =
  Alcotest.check verdict "20% faster is a gain" Compare.Gain (judge parent (scaled 0.8));
  Alcotest.check verdict "same code" Compare.No_regression (judge parent parent);
  Alcotest.check verdict "20% slower regresses" Compare.Regression
    (judge parent (scaled 1.2));
  Alcotest.check verdict "5% slower is within a 10% bound" Compare.No_regression
    (judge parent (scaled 1.05));
  Alcotest.check verdict "higher is better" Compare.Gain
    (judge ~lower:false parent (scaled 1.2));
  Alcotest.check verdict "higher is better, dropped" Compare.Regression
    (judge ~lower:false parent (scaled 0.8));
  (* a wide parent spread cannot show a 5% change either way *)
  let noisy = [ 0.7; 1.3; 0.8; 1.2; 1.0; 0.9; 1.1; 0.75; 1.25; 1.0 ] in
  Alcotest.check verdict "spread above bound" Compare.Unresolved
    (judge noisy (List.map (fun x -> x *. 1.05) noisy));
  (* 8 wins of 10 pairs is short of nine tenths *)
  let head = List.mapi (fun i x -> if i < 2 then x *. 1.01 else x *. 0.9) parent in
  Alcotest.check verdict "8/10 wins" Compare.No_regression (judge parent head);
  (* fewer than 10 pairs never claims a gain *)
  Alcotest.check verdict "9 pairs" Compare.No_regression
    (judge (List.tl parent) (List.tl (scaled 0.8)))

let span ?(parent = -1) ?(cat = "engine") id name t0 dur =
  { Trace.id; parent; name; cat; tid = 0; t0; dur }

let test_attribute () =
  let spans =
    [
      span ~cat:"bench" 0 "bench.glue" 0. 10.;
      span ~parent:0 1 "flist" 1. 3.;
      span ~parent:0 ~cat:"step" 2 "Scan" 5. 4.;
      span ~parent:2 3 "classify" 6. 2.;
      (* recorded after the fact, no parent: hangs under the root *)
      span 4 "tally" 9.2 0.3;
      (* parallel pool lanes stay out of the tree *)
      { (span 5 "w" 1. 8.) with Trace.cat = "worker"; tid = 1 };
    ]
  in
  let got = Layers.attribute spans in
  let f = Alcotest.float 1e-9 in
  Alcotest.check f "root self" 2.7 (List.assoc "bench.glue" got);
  Alcotest.check f "engine" 3. (List.assoc "fault.flist" got);
  Alcotest.check f "step self" 2. (List.assoc "flow.steps" got);
  Alcotest.check f "tally" 0.3 (List.assoc "flow.tally" got);
  Alcotest.check f "adds up to the root" 10. (List.fold_left (fun a (_, v) -> a +. v) 0. got)

let test_plan () =
  let misses plan =
    Array.map
      (fun items ->
        List.sort compare
          (List.filter_map
             (function Plan.Miss (_, s) -> Some (Spec.label s) | Plan.Hit _ -> None)
             items))
      plan
  in
  let a = Plan.daemon_plan ~seed:7 ~seconds:30 and b = Plan.daemon_plan ~seed:8 ~seconds:30 in
  Alcotest.(check bool) "seeded" true (a = Plan.daemon_plan ~seed:7 ~seconds:30);
  Alcotest.(check bool) "seed changes the order" true (a <> b);
  Alcotest.(check bool) "same misses under any seed" true (misses a = misses b);
  let m = misses a in
  Alcotest.(check int) "balanced connections" (List.length m.(0)) (List.length m.(1));
  let all = List.concat (Array.to_list m) in
  Alcotest.(check int) "every miss fresh" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "no miss repeats a primed request" true
    (List.for_all
       (fun s -> not (List.mem (Spec.label s) all))
       Plan.daemon_base)

let test_result_line () =
  let env =
    {
      Workloads.cli = "";
      work = "";
      seed = 1;
      seconds = 1;
      refs = Hashtbl.create 1;
      m = Mutex.create ();
      attempted = 3;
      failed = 1;
      errors = [];
    }
  in
  let line =
    Results.line env [ Workloads.metric "op_wall_s" "s" 1.2034; Workloads.metric "setup_s" "s" 0.8 ]
  in
  match J.parse line with
  | Error e -> Alcotest.fail e
  | Ok (J.Obj fields as j) ->
    Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields);
    Alcotest.(check bool) "incorrect when an op failed" true
      (J.member "correct" j = Some (J.Bool false));
    let m = Option.get (J.member "metrics" j) in
    Alcotest.(check (option (float 1e-12))) "value" (Some 1.2034)
      (Option.bind (J.member "op_wall_s" m) (J.member "value") |> fun v -> Option.bind v J.to_float_opt)
  | Ok _ -> Alcotest.fail "not an object"

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles match Python" `Quick test_quantiles;
          Alcotest.test_case "median, percentile, geomean" `Quick test_order_stats;
        ] );
      ("compare", [ Alcotest.test_case "gain/regression/unresolved" `Quick test_compare ]);
      ("layers", [ Alcotest.test_case "self time partitions the tree" `Quick test_attribute ]);
      ("plan", [ Alcotest.test_case "seeded daemon plan" `Quick test_plan ]);
      ("results", [ Alcotest.test_case "result line" `Quick test_result_line ]);
    ]
