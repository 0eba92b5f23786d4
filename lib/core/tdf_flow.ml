open Olfu_fault

type report = {
  universe : int;
  scan : int;
  baseline : int;
  debug_control : int;
  debug_observe : int;
  memory : int;
  total : int;
  fraction : float;
  seconds : float;
}

let of_flow (r : Flow.report) =
  let t0 = Unix.gettimeofday () in
  let fl = r.Flow.flist in
  let steps = Array.of_list r.Flow.steps in
  let stamp i = Char.code (Bytes.get r.Flow.stamps i) in
  let by_step = Array.make (Array.length steps) 0 and sites = ref 0 in
  (* one pass over the sa0 faults, i.e. over the transition sites: a
     site falls at the earlier of its sa0 and sa1 stamps, with both its
     polarities *)
  Flist.iteri
    (fun i (f : Fault.t) _ ->
      if not f.Fault.stuck then begin
        incr sites;
        let k =
          match Flist.find fl { f with Fault.stuck = true } with
          | Some j -> min (stamp i) (stamp j)
          | None -> stamp i
        in
        if k < Array.length steps then by_step.(k) <- by_step.(k) + 2
      end)
    fl;
  let count src =
    let n = ref 0 in
    Array.iteri
      (fun k s -> if s.Flow.source = src then n := !n + by_step.(k))
      steps;
    !n
  in
  let universe = 2 * !sites and total = Array.fold_left ( + ) 0 by_step in
  {
    universe;
    scan = count Flow.Scan;
    baseline = count Flow.Baseline;
    debug_control = count Flow.Debug_control;
    debug_observe = count Flow.Debug_observe;
    memory = count Flow.Memory;
    total;
    fraction = float_of_int total /. float_of_int (max 1 universe);
    seconds = r.Flow.seconds +. (Unix.gettimeofday () -. t0);
  }

let pp ppf r =
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 r.universe) in
  Format.fprintf ppf
    "@[<v>Transition-delay faults (universe %d)@,\
     \  Scan     %8d  %5.1f%%@,\
     \  Debug    %8d  %5.1f%%  (%d control + %d observation)@,\
     \  Memory   %8d  %5.1f%%@,\
     \  TOTAL    %8d  %5.1f%%  (+ %d baseline)@,\
     analysis time: %.3f s@]"
    r.universe r.scan (pct r.scan)
    (r.debug_control + r.debug_observe)
    (pct (r.debug_control + r.debug_observe))
    r.debug_control r.debug_observe r.memory (pct r.memory)
    (r.scan + r.debug_control + r.debug_observe + r.memory)
    (pct (r.scan + r.debug_control + r.debug_observe + r.memory))
    r.baseline r.seconds
