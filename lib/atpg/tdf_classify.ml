open Olfu_fault
module Pool = Olfu_pool.Pool

let verdict_with t w (f : Tdf.t) =
  let sa0, sa1 = Tdf.as_stuck_pair f in
  match Untestable.verdict_with t w sa0 with
  | Some v -> Some v
  | None -> Untestable.verdict_with t w sa1

let verdict t (f : Tdf.t) =
  let sa0, sa1 = Tdf.as_stuck_pair f in
  match Untestable.fault_verdict t sa0 with
  | Some v -> Some v
  | None -> Untestable.fault_verdict t sa1

let count ?jobs t nl =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let u = Tdf.universe nl in
  let nu = Array.length u in
  let n = ref 0 in
  Pool.with_pool ~jobs (fun pool ->
      let nw = Pool.jobs pool in
      (* verdicts are pure in (t, fault) and every index is counted by
         exactly one worker, so the total is independent of [jobs] *)
      let walkers = Array.init nw (fun _ -> Untestable.make_walker t) in
      let wcount = Array.make nw 0 in
      Pool.parallel_chunks pool ~n:nu ~chunk:512 (fun ~worker ~lo ~hi ->
          let w = walkers.(worker) in
          for i = lo to hi - 1 do
            if verdict_with t w u.(i) <> None then
              wcount.(worker) <- wcount.(worker) + 1
          done);
      Array.iter (fun c -> n := !n + c) wcount);
  (!n, nu)

let count_of_stuck fl =
  let site_untestable = ref 0 and sites = ref 0 in
  Flist.iteri
    (fun _ (f : Fault.t) st ->
      if not f.Fault.stuck then begin
        incr sites;
        let sa1 = { f with Fault.stuck = true } in
        let untestable =
          Status.is_undetectable st
          ||
          match Flist.find fl sa1 with
          | Some j -> Status.is_undetectable (Flist.status fl j)
          | None -> false
        in
        if untestable then incr site_untestable
      end)
    fl;
  (* both polarities of a site share its stuck-at pair *)
  (2 * !site_untestable, 2 * !sites)
