(* The traced run: per-layer metrics.  Every workload reports the same
   list; a layer the workload does not reach reads 0. *)

open Workloads
module Req = Olfu_service.Request
module Resp = Olfu_service.Response

(* Layers with a self time, as Layers names them.  Anything else lands
   in [other_s]. *)
let time_layers =
  [
    "soc.generate"; "verilog.parse"; "verilog.elaborate"; "netlist.analysis";
    "netlist.digest"; "manip.mission"; "manip.tie"; "manip.scan_trace";
    "atpg.ternary"; "atpg.observe"; "atpg.implic_build"; "atpg.untestable";
    "atpg.implic_query"; "atpg.classify"; "atpg.tdf"; "fault.flist";
    "fault.collapse"; "core.flow"; "flow.steps"; "flow.tally";
    "lint.ctx.ternary"; "lint.ctx.mission_ternary"; "lint.ctx.scoap";
    "lint.ctx.observe"; "lint.ctx.chains"; "lint.ctx.slice";
    "lint.ctx.dead_nodes"; "lint.rules"; "invar.mine"; "invar.filter";
    "invar.prove"; "invar.run"; "safety.machine"; "slice.build"; "slice.stats";
    "absint.programs"; "absint.facts"; "safety.classify"; "safety.seu";
    "sbst.sample"; "sbst.testbench"; "sbst.grade"; "fsim.sim"; "service.render";
    "service.session";
    "bench.glue";
  ]

(* Layers the daemon has already paid for when a request arrives: the
   netlist is loaded once, at set-up. *)
let load_layers =
  [ "soc.generate"; "verilog.parse"; "verilog.elaborate"; "netlist.digest"; "manip.mission" ]

type service = {
  decode_us : float;
  encode_us : float;
  overhead_us : float;
  hit_p99_us : float;
  session : (int * int * int * int) option;  (** hits, misses, evictions, bytes *)
}

let no_service =
  { decode_us = 0.; encode_us = 0.; overhead_us = 0.; hit_p99_us = 0.; session = None }

(* [replays]: (replay, wall it should add up to, whether the load
   layers are excluded from that wall). *)
let metrics ~replays ~overhead ~service =
  let sums = Hashtbl.create 64 in
  let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k)) in
  List.iter (fun ((r : Layers.replay), _, _) -> List.iter (fun (k, v) -> add k v) r.Layers.layers) replays;
  let get k = Option.value ~default:0. (Hashtbl.find_opt sums k) in
  let other =
    Hashtbl.fold (fun k v a -> if List.mem k time_layers then a else a +. v) sums 0.
  in
  let counter name =
    List.fold_left
      (fun a ((r : Layers.replay), _, _) ->
        a + Option.value ~default:0 (List.assoc_opt name r.Layers.counters))
      0 replays
  in
  let fsum f = List.fold_left (fun a x -> a +. f x) 0. replays in
  let ratio a b = if b > 0. then a /. b else 0. in
  let examined = counter "classify.examined" and classified = counter "classify.classified" in
  let worker_s = fsum (fun (r, _, _) -> r.Layers.worker_s) in
  let pool_capacity = fsum (fun (r, _, _) -> r.Layers.pool_s *. float_of_int r.Layers.pool_workers) in
  (* the replay time comparable to each wall *)
  let replay_s =
    fsum (fun ((r : Layers.replay), _, daemon) ->
        if daemon then
          r.Layers.total
          -. List.fold_left
               (fun a k -> a +. Option.value ~default:0. (List.assoc_opt k r.Layers.layers))
               0. load_layers
        else r.Layers.total)
  in
  let wall_s = fsum (fun (_, w, _) -> w) in
  let hits, misses, evictions, bytes =
    Option.value ~default:(0, 0, 0, 0) service.session
  in
  let s n v = metric n "s" v and c n v = metric n "count" (float_of_int v) in
  List.map (fun k -> s (k ^ "_s") (get k)) time_layers
  @ [
      s "other_s" other;
      c "classify.examined" examined;
      c "classify.classified" classified;
      metric "classify.yield" "ratio" (ratio (float_of_int classified) (float_of_int examined));
      c "slice.edges" (List.fold_left (fun a (r, _, _) -> max a r.Layers.slice_edges) 0 replays);
      c "seu.flops_checked" (counter "seu.checked");
      metric "fsim.evals_per_s" "1/s"
        (ratio (float_of_int (counter "fsim.fault_evals")) (get "fsim.sim"));
      metric "pool.utilization" "ratio" (ratio worker_s pool_capacity);
      c "pool.items" (counter "pool.items");
      metric "service.decode_us" "us" service.decode_us;
      metric "service.encode_us" "us" service.encode_us;
      metric "server.overhead_us" "us" service.overhead_us;
      metric "daemon.hit_p99_us" "us" service.hit_p99_us;
      c "session.hits" hits;
      c "session.misses" misses;
      metric "session.hit_ratio" "ratio"
        (ratio (float_of_int hits) (float_of_int (hits + misses)));
      metric "session.bytes" "B" (float_of_int bytes);
      c "session.evictions" evictions;
      s "attrib.replay_s" replay_s;
      s "attrib.wall_s" wall_s;
      metric "attrib.coverage" "ratio" (ratio replay_s wall_s);
      metric "trace.overhead_share" "ratio" overhead;
    ]

(* Tracing overhead: one request replayed alternately with tracing on
   and off, three times each, as a ratio of medians. *)
let overhead replay =
  let pairs = List.init 3 (fun _ -> ((replay true).Layers.total, (replay false).Layers.total)) in
  (Stats.median (List.map fst pairs) /. Stats.median (List.map snd pairs)) -. 1.

(* Each request once as a CLI process, immediately followed by its
   replay in a fresh process (so both start from an empty heap and see
   the same host conditions). *)
let oneshot env ~jobs specs =
  let child s traced =
    Layers.in_child ~work:env.work ~index:(Plan.index ~work:env.work s) ~jobs ~traced
  in
  let replays =
    List.map
      (fun s ->
        let r = Workloads.oneshot env ~jobs s in
        (s, child s true, r.Proc.wall))
      (Plan.shuffle (Random.State.make [| env.seed |]) specs)
  in
  ( metrics
      ~replays:(List.map (fun (_, r, w) -> (r, w, false)) replays)
      ~overhead:(overhead (child (List.hd specs))) ~service:no_service,
    replays )

(* Mean time of [f] over [xs], microseconds. *)
let mean_us f xs =
  match xs with
  | [] -> 0.
  | _ ->
    let t0 = now () in
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    1e6 *. (now () -. t0) /. float_of_int (List.length xs)

(* The daemon plan once, then one replay per miss kind whose handler
   does not read the session (so the replay does what the miss did).
   These replays run in this process, whose heap is warm like the
   daemon's. *)
let daemon env =
  let text_seen = Hashtbl.create 16 in
  let d = start_daemon env text_seen in
  let run = daemon_measure env d text_seen in
  let hits =
    List.filter (fun a -> match a.item with Plan.Hit _ -> true | _ -> false) run.answers
  in
  let lat = List.map (fun a -> a.latency *. 1e6) hits in
  let served = List.map (fun a -> a.resp.Resp.seconds *. 1e6) hits in
  let med = function [] -> 0. | xs -> Stats.median xs in
  let service =
    {
      decode_us = mean_us Req.of_string (List.map (fun a -> a.line) hits);
      encode_us = mean_us Resp.to_line (List.map (fun a -> a.resp) hits);
      overhead_us = med (List.map2 ( -. ) lat served);
      hit_p99_us = (match lat with [] -> 0. | _ -> Stats.percentile 99. lat);
      session = run.stats_after;
    }
  in
  (* the daemon's own time for the miss: the client's round trip also
     holds the wire transfer, measured on the hits instead *)
  let served_of s =
    List.find_map
      (fun a ->
        match a.item with Plan.Miss (_, m) when m = s -> Some a.resp.Resp.seconds | _ -> None)
      run.answers
  in
  let replays =
    List.filter_map
      (fun (kind, pool) ->
        let s = List.hd pool in
        match (kind, served_of s) with
        | ("safety" | "implic" | "lint"), Some wall -> Some (s, Layers.replay ~jobs:1 s, wall)
        | _ -> None)
      Plan.miss_pools
  in
  let probe = List.hd (List.assoc "implic" Plan.miss_pools) in
  ( metrics
      ~replays:(List.map (fun (_, r, w) -> (r, w, true)) replays)
      ~overhead:
        (overhead (fun traced ->
             if traced then Layers.replay ~jobs:1 probe else Layers.untraced ~jobs:1 probe))
      ~service,
    replays )
