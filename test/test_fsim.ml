open Olfu_logic
open Olfu_netlist
open Olfu_fault
open Olfu_atpg
open Olfu_fsim
module B = Netlist.Builder

(* --- combinational PPSFP --- *)

let test_adder_high_coverage () =
  let nl = Test_support.full_adder () in
  let fl = Flist.full nl in
  let pats = Comb_fsim.random_patterns ~seed:7 nl 64 in
  let r = Comb_fsim.run nl fl pats in
  (* every adder fault is detectable and 64 random patterns cover the whole
     8-entry input space with overwhelming probability *)
  Alcotest.(check int) "all detected" (Flist.size fl) r.Comb_fsim.detected;
  Alcotest.(check (float 0.001)) "coverage 100%" 1.0 (Flist.fault_coverage fl)

let test_podem_tests_detect () =
  (* PODEM's patterns, replayed through the fault simulator, must detect. *)
  let nl = Test_support.full_adder () in
  let srcs = Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl) in
  Array.iter
    (fun f ->
      match Podem.run nl f with
      | Podem.Test asg ->
        let pat =
          Array.map
            (fun s ->
              match List.assoc_opt s asg with
              | Some b -> Logic4.of_bool b
              | None -> Logic4.L0)
            srcs
        in
        Alcotest.(check bool)
          (Printf.sprintf "fsim confirms %s" (Fault.to_string nl f))
          true
          (Comb_fsim.detects nl f pat)
      | _ -> Alcotest.fail "adder fault not tested")
    (Fault.universe nl)

let test_redundant_never_detected () =
  let nl = Test_support.redundant_circuit () in
  let bnode = Netlist.find_exn nl "b" in
  let fl = Flist.create nl [| Fault.sa0 bnode Cell.Pin.Out |] in
  let r = Comb_fsim.run nl fl (Comb_fsim.random_patterns ~seed:3 nl 256) in
  Alcotest.(check int) "no detection" 0 r.Comb_fsim.detected

let prop_untestable_never_detected =
  QCheck2.Test.make ~count:20
    ~name:"implication-untestable faults never detected by fsim"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:20 in
      let t = Untestable.analyze ~ff_mode:Ternary.Cut nl in
      let fl = Flist.full nl in
      ignore
        (Comb_fsim.run nl fl (Comb_fsim.random_patterns ~seed nl 128)
          : Comb_fsim.report);
      let ok = ref true in
      Flist.iteri
        (fun _ f st ->
          if Status.equal st Status.Detected then
            match Untestable.fault_verdict t f with
            | Some _ -> ok := false  (* engine called a detected fault dead *)
            | None -> ())
        fl;
      !ok)

(* batching edge: more than 64 patterns, non-multiple of 64 *)
let test_batching () =
  let nl = Test_support.full_adder () in
  let fl = Flist.full nl in
  let r = Comb_fsim.run nl fl (Comb_fsim.random_patterns ~seed:1 nl 100) in
  Alcotest.(check int) "patterns counted" 100 r.Comb_fsim.patterns;
  Alcotest.(check bool) "detected all" true
    (Flist.count_status fl Status.Detected = Flist.size fl)

(* --- cone engine vs full-settle oracle, parallel determinism --- *)

let statuses fl = Array.init (Flist.size fl) (Flist.status fl)

let prop_cone_engine_matches_full =
  QCheck2.Test.make ~count:15
    ~name:"cone engine = full-settle baseline, statuses identical any jobs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        if seed mod 2 = 0 then
          Test_support.random_comb_netlist rng ~inputs:4 ~gates:25
        else Test_support.random_seq_netlist rng ~inputs:3 ~gates:18 ~flops:3
      in
      (* 100 patterns: two batches, the second partial *)
      let pats = Comb_fsim.random_patterns ~seed nl 100 in
      let run engine jobs =
        let fl = Flist.full nl in
        let r = Comb_fsim.run ~engine ~jobs nl fl pats in
        (statuses fl, r)
      in
      let reference = run Comb_fsim.Full_settle 1 in
      List.for_all
        (fun jobs -> run Comb_fsim.Cone jobs = reference)
        [ 1; 2; 4 ])

let prop_cone_matches_detects_oracle =
  QCheck2.Test.make ~count:25
    ~name:"cone run agrees with the single-fault detects oracle"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_comb_netlist rng ~inputs:4 ~gates:20 in
      let universe = Fault.universe nl in
      let f = universe.(Random.State.int rng (Array.length universe)) in
      if f.Fault.site.Fault.pin = Cell.Pin.Clk then true
      else begin
        let pat = (Comb_fsim.random_patterns ~seed nl 1).(0) in
        let fl = Flist.create nl [| f |] in
        ignore
          (Comb_fsim.run ~engine:Comb_fsim.Cone ~jobs:1 nl fl [| pat |]
            : Comb_fsim.report);
        Bool.equal
          (Status.equal (Flist.status fl 0) Status.Detected)
          (Comb_fsim.detects nl f pat)
      end)

(* --- sequential, fault-parallel --- *)

let shift3 () =
  let b = B.create () in
  let d = B.input b "d" in
  let f1 = B.dff b ~name:"f1" ~d in
  let f2 = B.dff b ~name:"f2" ~d:f1 in
  let f3 = B.dff b ~name:"f3" ~d:f2 in
  let _ = B.output b "q" f3 in
  B.freeze_exn b

let drive nl name v = (Netlist.find_exn nl name, v)

let test_seq_shift_detection () =
  let nl = shift3 () in
  let fl = Flist.full nl in
  (* walk 1 then 0 through the register, strobing every cycle *)
  let stim =
    Array.init 10 (fun i ->
        {
          Seq_fsim.assign =
            [ drive nl "d" (Logic4.of_bool (i mod 4 < 2)) ];
          strobe = true;
        })
  in
  let r = Seq_fsim.run ~init:Logic4.L0 nl fl stim in
  Alcotest.(check int) "cycles" 10 r.Seq_fsim.cycles;
  (* every stuck-at on the d path shows at q *)
  let d = Netlist.find_exn nl "d" in
  let idx f = Option.get (Flist.find fl f) in
  Alcotest.(check bool) "d s@0 detected" true
    (Status.equal (Flist.status fl (idx (Fault.sa0 d Cell.Pin.Out))) Status.Detected);
  Alcotest.(check bool) "d s@1 detected" true
    (Status.equal (Flist.status fl (idx (Fault.sa1 d Cell.Pin.Out))) Status.Detected);
  let f2 = Netlist.find_exn nl "f2" in
  Alcotest.(check bool) "f2 out s@1 detected" true
    (Status.equal (Flist.status fl (idx (Fault.sa1 f2 Cell.Pin.Out))) Status.Detected)

let test_seq_clock_fault () =
  let nl = shift3 () in
  let f1 = Netlist.find_exn nl "f1" in
  let fl = Flist.create nl [| Fault.sa0 f1 Cell.Pin.Clk |] in
  (* with init 0 and a walking 1, a frozen f1 never passes the 1 along *)
  let stim =
    Array.init 8 (fun i ->
        {
          Seq_fsim.assign = [ drive nl "d" (Logic4.of_bool (i mod 2 = 0)) ];
          strobe = true;
        })
  in
  let r = Seq_fsim.run ~init:Logic4.L0 nl fl stim in
  Alcotest.(check int) "clock fault detected" 1 r.Seq_fsim.detected

let test_seq_unobserved_output () =
  let nl = shift3 () in
  let fl = Flist.full nl in
  let stim =
    Array.init 8 (fun i ->
        {
          Seq_fsim.assign = [ drive nl "d" (Logic4.of_bool (i mod 2 = 0)) ];
          strobe = true;
        })
  in
  (* observing nothing detects nothing *)
  let r = Seq_fsim.run ~init:Logic4.L0 ~observe:(fun _ -> false) nl fl stim in
  Alcotest.(check int) "no observation, no detection" 0 r.Seq_fsim.detected

let test_seq_scan_faults_undetected () =
  (* mission stimulus (se = 0) never detects SI faults: the empirical
     confirmation of the paper's scan rule *)
  let b = B.create () in
  let d = B.input b "d" in
  let si = B.input b ~roles:[ Netlist.Scan_in ] "si" in
  let se = B.input b ~roles:[ Netlist.Scan_enable ] "se" in
  let ff = B.sdff b ~name:"ff" ~d ~si ~se in
  let _ = B.output b "q" ff in
  let nl = B.freeze_exn b in
  let fl = Flist.full nl in
  let stim =
    Array.init 8 (fun i ->
        {
          Seq_fsim.assign =
            [
              drive nl "d" (Logic4.of_bool (i mod 2 = 0));
              drive nl "si" (Logic4.of_bool (i mod 3 = 0));
              drive nl "se" Logic4.L0;
            ];
          strobe = true;
        })
  in
  ignore (Seq_fsim.run ~init:Logic4.L0 nl fl stim : Seq_fsim.report);
  let idx f = Option.get (Flist.find fl f) in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s undetected" (Fault.to_string nl f))
        false
        (Status.equal (Flist.status fl (idx f)) Status.Detected))
    [
      Fault.sa0 ff (Cell.Pin.In 1); Fault.sa1 ff (Cell.Pin.In 1);
      Fault.sa0 ff (Cell.Pin.In 2);
    ];
  (* while SE s@1 IS detected: it swaps the captured value to si *)
  Alcotest.(check bool) "SE s@1 detected" true
    (Status.equal
       (Flist.status fl (idx (Fault.sa1 ff (Cell.Pin.In 2))))
       Status.Detected)

(* fault-parallel = serial scalar: spot-check against a scalar rerun *)
let prop_seq_matches_scalar =
  QCheck2.Test.make ~count:10 ~name:"fault-parallel = scalar sequential"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Test_support.random_seq_netlist rng ~inputs:3 ~gates:12 ~flops:3 in
      let fl = Flist.full nl in
      let ins = Netlist.inputs nl in
      let stim =
        Array.init 12 (fun _ ->
            {
              Seq_fsim.assign =
                Array.to_list ins
                |> List.map (fun i ->
                       (i, Logic4.of_bool (Random.State.bool rng)));
              strobe = true;
            })
      in
      ignore (Seq_fsim.run ~init:Logic4.L0 nl fl stim : Seq_fsim.report);
      (* re-run a few faults alone (their own batch) and compare verdicts *)
      let ok = ref true in
      let check_lone fi =
        let f = Flist.fault fl fi in
        let fl1 = Flist.create nl [| f |] in
        ignore (Seq_fsim.run ~init:Logic4.L0 nl fl1 stim : Seq_fsim.report);
        let lone = Status.equal (Flist.status fl1 0) Status.Detected in
        let batched = Status.equal (Flist.status fl fi) Status.Detected in
        if lone <> batched then ok := false
      in
      let n = Flist.size fl in
      check_lone 0;
      check_lone (n / 2);
      check_lone (n - 1);
      check_lone (n / 3);
      !ok)

let prop_seq_jobs_deterministic =
  QCheck2.Test.make ~count:10
    ~name:"seq fsim statuses identical for any jobs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist rng ~inputs:3 ~gates:15 ~flops:4
      in
      let ins = Netlist.inputs nl in
      let stim =
        Array.init 10 (fun _ ->
            {
              Seq_fsim.assign =
                Array.to_list ins
                |> List.map (fun i ->
                       (i, Logic4.of_bool (Random.State.bool rng)));
              strobe = true;
            })
      in
      let run jobs =
        let fl = Flist.full nl in
        let r = Seq_fsim.run ~init:Logic4.L0 ~jobs nl fl stim in
        (statuses fl, r)
      in
      let reference = run 1 in
      List.for_all (fun jobs -> run jobs = reference) [ 2; 4 ])

(* --- random pattern source --- *)

let prop_random_patterns_shape =
  QCheck2.Test.make ~count:20
    ~name:"one binary value per source, n patterns"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 100))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist rng ~inputs:3 ~gates:12 ~flops:3
      in
      let width =
        Array.length (Netlist.inputs nl) + Array.length (Netlist.seq_nodes nl)
      in
      let pats = Comb_fsim.random_patterns ~seed nl n in
      Array.length pats = n
      && Array.for_all
           (fun p -> Array.length p = width && Array.for_all Logic4.is_binary p)
           pats)

let test_random_patterns_seeded () =
  let nl = Test_support.full_adder () in
  let pats seed = Comb_fsim.random_patterns ~seed nl 64 in
  Alcotest.(check bool) "same seed, same patterns" true (pats 11 = pats 11);
  Alcotest.(check bool) "other seed, other patterns" false (pats 11 = pats 12)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fsim"
    [
      ( "comb",
        [
          Alcotest.test_case "adder coverage" `Quick test_adder_high_coverage;
          Alcotest.test_case "podem tests detect" `Quick test_podem_tests_detect;
          Alcotest.test_case "redundant undetected" `Quick
            test_redundant_never_detected;
          Alcotest.test_case "batching" `Quick test_batching;
          qt prop_untestable_never_detected;
          qt prop_cone_engine_matches_full;
          qt prop_cone_matches_detects_oracle;
        ] );
      ( "patterns",
        [
          qt prop_random_patterns_shape;
          Alcotest.test_case "seeded" `Quick test_random_patterns_seeded;
        ] );
      ( "seq",
        [
          Alcotest.test_case "shift detection" `Quick test_seq_shift_detection;
          Alcotest.test_case "clock fault" `Quick test_seq_clock_fault;
          Alcotest.test_case "unobserved" `Quick test_seq_unobserved_output;
          Alcotest.test_case "scan faults" `Quick test_seq_scan_faults_undetected;
          qt prop_seq_matches_scalar;
          qt prop_seq_jobs_deterministic;
        ] );
    ]
