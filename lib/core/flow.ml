open Olfu_netlist
open Olfu_fault
open Olfu_atpg
open Olfu_manip
module Trace = Olfu_obs.Trace

type source = Scan | Baseline | Debug_control | Debug_observe | Memory

let source_name = function
  | Scan -> "Scan"
  | Baseline -> "Baseline (reset/steady)"
  | Debug_control -> "Debug (control)"
  | Debug_observe -> "Debug (observation)"
  | Memory -> "Memory"

type step_report = {
  source : source;
  classified : int;
  by_verdict : (Status.undetectable * int) list;
  seconds : float;
}

let undet_classes =
  [|
    Status.Unused; Status.Tied; Status.Blocked; Status.Conflict;
    Status.Redundant; Status.Software; Status.Invariant;
  |]

let class_index = function
  | Status.Unused -> 0
  | Status.Tied -> 1
  | Status.Blocked -> 2
  | Status.Conflict -> 3
  | Status.Redundant -> 4
  | Status.Software -> 5
  | Status.Invariant -> 6

let unstamped = '\255'

(* One sweep after step [k]: stamp every undetectable fault no earlier
   step stamped and tally it by verdict class.  The flow only ever moves
   a status from Not_analyzed to Undetectable, so these are exactly the
   step's newly classified faults. *)
let stamp_step fl stamps k =
  let a = Array.make (Array.length undet_classes) 0 in
  Flist.iteri
    (fun i _ st ->
      match st with
      | Status.Undetectable u when Bytes.get stamps i = unstamped ->
        Bytes.set stamps i (Char.chr k);
        let c = class_index u in
        a.(c) <- a.(c) + 1
      | _ -> ())
    fl;
  let acc = ref [] in
  for c = Array.length undet_classes - 1 downto 0 do
    if a.(c) <> 0 then acc := (undet_classes.(c), a.(c)) :: !acc
  done;
  !acc

type report = {
  universe : int;
  collapsed : int;
  dominance_pruned : int;
  steps : step_report list;
  prep : (string * float) list;
  total_olfu : int;
  fraction : float;
  flist : Flist.t;
  stamps : Bytes.t;
  mission_netlist : Netlist.t;
  seconds : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let verify_scan_rule nl =
  match Netlist.find nl "scan_en" with
  | None -> true
  | Some se ->
    let tied = Tie.input nl se Olfu_logic.Logic4.L0 in
    let t =
      Untestable.analyze tied
        ~observable_output:(fun o ->
          not (Netlist.has_role tied o Netlist.Scan_out))
    in
    List.for_all
      (fun f ->
        (* faults on the SE fanout branches now sit on a tie and are
           excluded from the comparison (the rule keeps SE s@1 anyway) *)
        let { Fault.node; pin } = f.Fault.site in
        let on_se_branch =
          match pin with
          | Cell.Pin.In 2 -> Cell.is_seq (Netlist.kind tied node)
          | _ -> false
        in
        on_se_branch || Untestable.fault_verdict t f <> None)
      (Scan_trace.untestable_faults tied)

let analysis (cfg : Run_config.t) ?observable_output nl =
  Untestable.analyze ~ff_mode:cfg.Run_config.ff_mode ?observable_output
    ~implic:cfg.Run_config.implic ~trace:cfg.Run_config.trace nl

(* Classify all still-unclassified faults that the engine proves
   untestable in the given circuit model. *)
let classify (cfg : Run_config.t) t fl =
  Untestable.classify ~jobs:cfg.Run_config.jobs ~trace:cfg.Run_config.trace t
    fl

let run (cfg : Run_config.t) nl mission =
  let trace = cfg.Run_config.trace in
  let t0 = Unix.gettimeofday () in
  let fl, flist_t =
    timed (fun () ->
        Trace.span trace ~cat:"engine" "flist" (fun () -> Flist.full nl))
  in
  (* structural collapsing on the untouched universe: the prime count
     is what an ATPG tool would target, the dominance prune what a
     target list additionally sheds; run on a scratch copy so the
     flow's own classification never sees the implicit verdicts *)
  let (collapsed, dominance_pruned), collapse_t =
    timed (fun () ->
        Trace.span trace ~cat:"engine" "collapse" (fun () ->
            let prime = Collapse.num_classes (Collapse.compute fl) in
            let scratch = Flist.full nl in
            (prime, Collapse.dominance_prune scratch)))
  in
  (* each step is followed by one stamping sweep that attributes its
     newly classified faults to the verdict class (UT/UB/UC/...) that
     proved them; the sweeps run outside the step spans and are
     accounted as prep *)
  let stamps = Bytes.make (Flist.size fl) unstamped in
  let tally_s = ref 0. and next = ref 0 in
  let stepped source f =
    let classified, seconds =
      timed (fun () -> Trace.span trace ~cat:"step" (source_name source) f)
    in
    let by_verdict, st = timed (fun () -> stamp_step fl stamps !next) in
    incr next;
    tally_s := !tally_s +. st;
    Trace.record trace ~cat:"engine" ~dur:st "tally";
    { source; classified; by_verdict; seconds }
  in
  (* 1. scan rule *)
  let scan =
    stepped Scan (fun () ->
        Trace.span trace ~cat:"engine" "scan_trace" (fun () ->
            Scan_trace.prune nl fl))
  in
  (* 1b. baseline: untestable before any manipulation (reset network,
     steady-state constants of the mission circuit itself) *)
  let baseline = stepped Baseline (fun () -> classify cfg (analysis cfg nl) fl) in
  let tied_controls, tied_t =
    timed (fun () ->
        Trace.span trace ~cat:"engine" "manip" (fun () ->
            Script.apply nl (Mission.tie_controls_script mission)))
  in
  (* 2. debug control ties; the analysis is built inside the step and
     reused by step 3 *)
  let tied = lazy (analysis cfg tied_controls) in
  let control =
    stepped Debug_control (fun () -> classify cfg (Lazy.force tied) fl)
  in
  (* 3. debug observation: stop observing the debug buses (and scan-outs).
     Same netlist as step 2 — only observability changes. *)
  let observable, mission_obs_t =
    timed (fun () ->
        Trace.span trace ~cat:"engine" "mission" (fun () ->
            Mission.observed_in_field mission tied_controls))
  in
  let observe =
    stepped Debug_observe (fun () ->
        classify cfg
          (Untestable.with_observable ~trace (Lazy.force tied) observable)
          fl)
  in
  (* 4. memory map: tie forced address registers and ports *)
  let mission_nl, mission_nl_t =
    timed (fun () ->
        let forced =
          Trace.span trace ~cat:"engine" "mission" (fun () ->
              Mission.address_forcing mission)
        in
        Trace.span trace ~cat:"engine" "manip" (fun () ->
            Const_regs.tie_address_ports
              (Const_regs.tie_address_registers tied_controls ~forced)
              ~forced))
  in
  let memory =
    stepped Memory (fun () ->
        classify cfg (analysis cfg ~observable_output:observable mission_nl) fl)
  in
  let steps = [ scan; baseline; control; observe; memory ] in
  let total = List.fold_left (fun acc s -> acc + s.classified) 0 steps in
  {
    universe = Flist.size fl;
    collapsed;
    dominance_pruned;
    steps;
    prep =
      [
        ("fault universe", flist_t);
        ("fault collapsing", collapse_t);
        ("tied netlist", tied_t);
        ("mission observability", mission_obs_t);
        ("mission netlist", mission_nl_t);
        ("verdict accounting", !tally_s);
      ];
    total_olfu = total;
    fraction = float_of_int total /. float_of_int (max 1 (Flist.size fl));
    flist = fl;
    stamps;
    mission_netlist = mission_nl;
    seconds = Unix.gettimeofday () -. t0;
  }

let step_count r src =
  List.fold_left
    (fun acc s -> if s.source = src then acc + s.classified else acc)
    0 r.steps

let paper_total r =
  List.fold_left
    (fun acc s ->
      match s.source with
      | Baseline -> acc
      | Scan | Debug_control | Debug_observe | Memory -> acc + s.classified)
    0 r.steps

(* Reference numbers of Table I in the paper. *)
let paper_table1 =
  [ ("Scan", 19_142, 8.9); ("Debug", 6_905, 3.2); ("Memory", 3_610, 1.7) ]

let pp_table1 ?(paper = false) ppf r =
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 r.universe) in
  let scan = step_count r Scan in
  let dbg = step_count r Debug_control + step_count r Debug_observe in
  let mem = step_count r Memory in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "Table I: on-line functionally untestable faults (universe %d)@,"
    r.universe;
  Format.fprintf ppf
    "  (collapsed: %d prime faults, %d more dominance-prunable)@,"
    r.collapsed r.dominance_pruned;
  let row name n =
    Format.fprintf ppf "  %-8s %8d  %5.1f%%" name n (pct n);
    if paper then begin
      match List.assoc_opt name (List.map (fun (a, b, c) -> (a, (b, c))) paper_table1) with
      | Some (pn, ppct) ->
        Format.fprintf ppf "   (paper: %6d  %4.1f%%)" pn ppct
      | None -> ()
    end;
    Format.pp_print_cut ppf ()
  in
  row "Scan" scan;
  Format.fprintf ppf "  %-8s %8d  %5.1f%%  (%d control + %d observation)"
    "Debug" dbg (pct dbg)
    (step_count r Debug_control)
    (step_count r Debug_observe);
  if paper then Format.fprintf ppf "   (paper: 4,548+2,357 = 6,905  3.2%%)";
  Format.pp_print_cut ppf ();
  row "Memory" mem;
  let ptot = paper_total r in
  Format.fprintf ppf "  %-8s %8d  %5.1f%%" "TOTAL" ptot (pct ptot);
  if paper then Format.fprintf ppf "   (paper: 29,657  13.8%%)";
  Format.pp_print_cut ppf ();
  Format.fprintf ppf
    "  (+ %d reset/steady-state faults outside the paper's accounting;      grand total %d = %.1f%%)"
    (step_count r Baseline) r.total_olfu (100. *. r.fraction);
  Format.pp_print_cut ppf ();
  let tally = Array.make (Array.length undet_classes) 0 in
  List.iter
    (fun s ->
      List.iter
        (fun (u, n) ->
          let k = class_index u in
          tally.(k) <- tally.(k) + n)
        s.by_verdict)
    r.steps;
  Format.fprintf ppf "  by verdict:";
  Array.iteri
    (fun k n ->
      if n > 0 then
        Format.fprintf ppf " %s=%d"
          (Status.code (Status.Undetectable undet_classes.(k)))
          n)
    tally;
  Format.fprintf ppf "@,analysis time: %.3f s@]" r.seconds
