(* Running the workloads: set-up, the measured loop, correctness checks
   and the metrics of one run. *)

module J = Olfu_obs.Json
module Req = Olfu_service.Request
module Resp = Olfu_service.Response
module Client = Olfu_service.Client

type env = {
  cli : string;  (** the olfu_cli executable *)
  work : string;  (** scratch directory for inputs, sockets, logs *)
  seed : int;
  seconds : int;
  refs : (string, string) Hashtbl.t;
  m : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first, capped *)
}

let create ~cli ~work ~seed ~seconds =
  {
    cli;
    work;
    seed;
    seconds;
    refs = Reference.load ();
    m = Mutex.create ();
    attempted = 0;
    failed = 0;
    errors = [];
  }

let log env = Filename.concat env.work "olfu.log"
let locked env f = Mutex.protect env.m f

(* Count one operation; [error] is [Some reason] when it failed. *)
let count env error =
  locked env (fun () ->
      env.attempted <- env.attempted + 1;
      match error with
      | None -> ()
      | Some e ->
        env.failed <- env.failed + 1;
        if List.length env.errors < 50 then env.errors <- e :: env.errors)

(* A JSON answer must match the digest recorded at --jobs 1. *)
let check_json env label out =
  match Hashtbl.find_opt env.refs label with
  | None -> Some (label ^ ": no reference digest")
  | Some d when d = Reference.digest out -> None
  | Some _ -> Some (label ^ ": answer differs from the reference")

(* One CLI process.  Exit codes 0 and 1 are answers (1 = findings); 2
   is a rejected request and anything else a crash. *)
let oneshot env ~jobs spec =
  let label = Spec.label spec in
  let r = Proc.run ~log:(log env) (Spec.argv ~cli:env.cli ~jobs spec) in
  count env
    (if r.Proc.code <> 0 && r.Proc.code <> 1 then
       Some (Printf.sprintf "%s: exit %d" label r.Proc.code)
     else check_json env label r.Proc.out);
  r

let now = Unix.gettimeofday

(* --- metrics of a run ---------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; samples : float list }

let metric ?(samples = []) name unit_ value = { name; unit_; value; samples }

(* Median of the run's set-ups. *)
let setup_metric times = metric ~samples:times "setup_s" "s" (Stats.median times)

let group pairs =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace t k (v :: Option.value ~default:[] (Hashtbl.find_opt t k)))
    pairs;
  List.sort compare (Hashtbl.fold (fun k vs a -> (k, List.rev vs) :: a) t [])

(* Per-kind medians and their geometric mean, so each request kind
   weighs the same whatever its size. *)
let geo_of_medians groups = Stats.geomean (List.map (fun (_, vs) -> Stats.median vs) groups)

(* --- one-shot workloads --------------------------------------------- *)

type oneshot_run = {
  requests : (int * Spec.t * Proc.result) list;  (** cycle, request, result *)
  elapsed : float;
}

(* Whole seeded cycles until [seconds] is reached (to the nearest cycle
   boundary), and at least [min_cycles]. *)
let oneshot_loop env ~jobs ~min_cycles ~seconds specs =
  let rng = Random.State.make [| env.seed |] in
  let t0 = now () in
  let rec go cycle acc =
    let acc =
      List.fold_left
        (fun acc s -> (cycle, s, oneshot env ~jobs s) :: acc)
        acc (Plan.shuffle rng specs)
    in
    let el = now () -. t0 in
    let per_cycle = el /. float_of_int (cycle + 1) in
    if cycle + 1 < min_cycles || el +. (0.5 *. per_cycle) < float_of_int seconds
    then go (cycle + 1) acc
    else { requests = List.rev acc; elapsed = el }
  in
  go 0 []

(* The CLI keeps nothing between processes: a repeated request costs a
   whole run, so [repeat_latency_us] reads the same samples as
   [op_wall_s]; next to daemon-mix it shows what the cache saves. *)
let oneshot_metrics run setups =
  let by_label =
    group (List.map (fun (_, s, r) -> (Spec.label s, r.Proc.wall)) run.requests)
  in
  let walls = List.concat_map snd by_label in
  let rss = List.map (fun (_, _, r) -> float_of_int r.Proc.rss_kb /. 1024.) run.requests in
  [
    setup_metric setups;
    metric ~samples:walls "op_wall_s" "s" (geo_of_medians by_label);
    metric
      ~samples:(List.map (fun w -> w *. 1e6) walls)
      "repeat_latency_us" "us"
      (1e6 *. geo_of_medians by_label);
    metric "req_per_s" "1/s" (float_of_int (List.length run.requests) /. run.elapsed);
    metric ~samples:rss "peak_mem_mb" "MB" (List.fold_left max 0. rss);
  ]

(* Set-up repeated [n] times; returns the times and the last result. *)
let repeat_setup n f =
  let rec go i times =
    let t0 = now () in
    let v = f () in
    let times = (now () -. t0) :: times in
    if i + 1 >= n then (List.rev times, v) else go (i + 1) times
  in
  go 0 []

let setups = 3

(* Set-up warms the executable and the page cache with one request of
   the workload; oneshot-t32 has no input to prepare. *)
let setup_t32 env () = ignore (oneshot env ~jobs:1 (List.hd Plan.oneshot_t32))

(* oneshot-t16-seq emits tcore16 as structural Verilog, then warms up
   on it. *)
let setup_t16 env () =
  let path = Plan.t16_file env.work in
  let r =
    Proc.run ~log:(log env) [| env.cli; "generate"; "-c"; "tcore16"; "-o"; path |]
  in
  count env
    (if r.Proc.code = 0 && Sys.file_exists path then None
     else Some (Printf.sprintf "generate tcore16: exit %d" r.Proc.code));
  ignore (oneshot env ~jobs:2 (List.hd (Plan.oneshot_t16 ~work:env.work)))

(* --- daemon ------------------------------------------------------- *)

type daemon = { pid : int; conns : Client.t array }

(* One round trip; the latency is the client-side send-to-reply time. *)
let rpc conn req =
  let t0 = now () in
  match Client.rpc_line conn (Req.to_line req) with
  | Error e -> Error e
  | Ok line -> (
    let dt = now () -. t0 in
    match Resp.of_string line with
    | Ok r -> Ok (dt, r)
    | Error e -> Error ("bad response: " ^ e))

let in_threads n f =
  let ts = List.init n (fun i -> Thread.create f i) in
  List.iter Thread.join ts

(* Check one analysis answer: status, cache flag and bytes.  [text_seen]
   holds the first text/summary rendering of each (request, format);
   repeats must return it byte for byte. *)
let check_answer env text_seen ~label ~fmt ~hit (r : Resp.t) =
  let err =
    if r.Resp.status = Resp.Bad_input then
      Some (label ^ ": rejected: " ^ Option.value ~default:"" r.Resp.error)
    else if r.Resp.cache_hit <> hit then
      Some (Printf.sprintf "%s: cache_hit=%b, plan says %b" label r.Resp.cache_hit hit)
    else
      match fmt with
      | Req.Json -> check_json env label r.Resp.output
      | Req.Text | Req.Summary -> (
        let key = (label, fmt) in
        locked env (fun () ->
            match Hashtbl.find_opt text_seen key with
            | None ->
              Hashtbl.replace text_seen key r.Resp.output;
              None
            | Some o when o = r.Resp.output -> None
            | Some _ -> Some (label ^ ": repeated answer changed")))
  in
  count env err

(* The state letter of /proc/PID/stat ('Z' once exited, unreaped). *)
let proc_state pid =
  match
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
  with
  | s -> (
    match String.rindex_opt s ')' with
    | Some i when i + 2 < String.length s -> Some s.[i + 2]
    | _ -> None)
  | exception Sys_error _ -> None

(* Block until [pid] has exited (zombie), killing it after [grace]. *)
let await_exit pid grace =
  let deadline = now () +. grace in
  let rec poll () =
    match proc_state pid with
    | Some 'Z' | None -> ()
    | Some _ when now () > deadline ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    | Some _ ->
      Unix.sleepf 0.02;
      poll ()
  in
  poll ()

(* Start a daemon, connect both clients, answer the base requests
   once.  The daemon serves one connection per worker, so everything,
   Stats included, goes over these two connections. *)
let start_daemon env text_seen =
  let socket = Filename.concat env.work (Printf.sprintf "olfu-%d.sock" (Unix.getpid ())) in
  let pid =
    Proc.spawn ~log:(log env)
      [| env.cli; "serve"; "--socket"; socket; "--workers"; string_of_int Plan.connections |]
  in
  let conns =
    Array.init Plan.connections (fun _ ->
        match Client.connect ~wait_seconds:30. socket with
        | Ok c -> c
        | Error e ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Proc.reap pid);
          failwith ("daemon: " ^ e))
  in
  let base = Array.of_list Plan.daemon_base in
  in_threads Plan.connections (fun c ->
      Array.iteri
        (fun i s ->
          if i mod Plan.connections = c then
            match rpc conns.(c) (Spec.request ~id:i ~fmt:Req.Json ~jobs:1 s) with
            | Ok (_, r) ->
              check_answer env text_seen ~label:(Spec.label s) ~fmt:Req.Json ~hit:false r
            | Error e -> count env (Some e))
        base);
  { pid; conns }

(* Shut down and reap; returns the daemon's peak RSS in KiB. *)
let stop_daemon d =
  Array.iteri (fun i c -> if i > 0 then Client.close c) d.conns;
  ignore (Client.rpc_line d.conns.(0) (Req.to_line { Req.id = 0; body = Req.Shutdown }));
  Client.close d.conns.(0);
  await_exit d.pid 10.;
  snd (Proc.reap d.pid)

let stats conn =
  match rpc conn { Req.id = 0; body = Req.Stats } with
  | Error _ -> None
  | Ok (_, r) -> (
    match J.parse r.Resp.output with
    | Ok j ->
      let get k = Option.bind (J.member k j) J.to_int_opt |> Option.value ~default:0 in
      Some (get "hits", get "misses", get "evictions", get "bytes")
    | Error _ -> None)

type answer = {
  item : Plan.item;
  latency : float;  (** client-side round trip, seconds *)
  resp : Resp.t;
  line : string;  (** the request as sent *)
}

type daemon_run = {
  answers : answer list;
  makespan : float;
  stats_after : (int * int * int * int) option;  (** hits, misses, evictions, bytes *)
  rss_kb : int;
}

let daemon_measure env d text_seen =
  let plan = Plan.daemon_plan ~seed:env.seed ~seconds:env.seconds in
  let stats_before = stats d.conns.(0) in
  let out = Array.make Plan.connections [] in
  let t0 = now () in
  in_threads Plan.connections (fun c ->
      List.iteri
        (fun i item ->
          let spec, fmt, hit =
            match item with
            | Plan.Hit (s, f) -> (s, f, true)
            | Plan.Miss (_, s) -> (s, Req.Json, false)
          in
          let req = Spec.request ~id:i ~fmt ~jobs:1 spec in
          match rpc d.conns.(c) req with
          | Ok (latency, resp) ->
            check_answer env text_seen ~label:(Spec.label spec) ~fmt ~hit resp;
            out.(c) <- { item; latency; resp; line = Req.to_line req } :: out.(c)
          | Error e -> count env (Some e))
        plan.(c));
  let makespan = now () -. t0 in
  let stats_after = stats d.conns.(0) in
  let answers = List.concat_map List.rev (Array.to_list out) in
  (* each answered request is at least one session lookup; the
     per-response cache flags were checked exactly above *)
  let hits =
    List.length (List.filter (fun a -> match a.item with Plan.Hit _ -> true | _ -> false) answers)
  in
  let misses = List.length answers - hits in
  count env
    (match (stats_before, stats_after) with
    | Some (h0, m0, e0, _), Some (h1, m1, e1, _) ->
      if h1 - h0 < hits || m1 - m0 < misses || e1 <> e0 then
        Some
          (Printf.sprintf "stats: +%d hits +%d misses +%d evictions, plan %d/%d/0"
             (h1 - h0) (m1 - m0) (e1 - e0) hits misses)
      else None
    | _ -> Some "stats: no answer");
  let rss_kb = stop_daemon d in
  { answers; makespan; stats_after; rss_kb }

let fmt_name = function Req.Text -> "text" | Req.Json -> "json" | Req.Summary -> "summary"

let hit_groups run =
  group
    (List.filter_map
       (fun a ->
         match a.item with
         | Plan.Hit (s, f) ->
           Some (Spec.label s ^ " /" ^ fmt_name f, a.latency *. 1e6)
         | Plan.Miss _ -> None)
       run.answers)

let miss_groups run =
  group
    (List.filter_map
       (fun a -> match a.item with Plan.Miss (k, _) -> Some (k, a.latency) | _ -> None)
       run.answers)

let daemon_metrics run setups =
  let hits = hit_groups run and misses = miss_groups run in
  [
    setup_metric setups;
    metric ~samples:(List.concat_map snd misses) "op_wall_s" "s" (geo_of_medians misses);
    metric ~samples:(List.concat_map snd hits) "repeat_latency_us" "us" (geo_of_medians hits);
    metric "req_per_s" "1/s" (float_of_int (List.length run.answers) /. run.makespan);
    metric "peak_mem_mb" "MB" (float_of_int run.rss_kb /. 1024.);
  ]

(* [setups] timed daemon set-ups; all but the last are stopped again. *)
let daemon_setups env text_seen =
  let rec go i times =
    let t0 = now () in
    let d = start_daemon env text_seen in
    let times = (now () -. t0) :: times in
    if i + 1 >= setups then (List.rev times, d)
    else begin
      ignore (stop_daemon d);
      go (i + 1) times
    end
  in
  go 0 []
