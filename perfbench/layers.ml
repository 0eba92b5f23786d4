(* Per-layer attribution for the traced run.

   Each request is replayed as the sequence of public layer calls its
   service handler makes, with a span around every call (the "bench"
   category); one-shot requests are replayed in a child process of
   their own ({!in_child}).  The engines' own existing spans nest inside, so
   one span tree covers the request; a layer's self time is the time of
   its spans minus the time of their child spans, and the self times of
   the tree add up to the replay's wall by construction.  No probe is
   added to the library: the spans come from this file and from the
   trace sink the engines already accept. *)

module Trace = Olfu_obs.Trace
module Netlist = Olfu_netlist.Netlist
module Flow = Olfu.Flow
module Flist = Olfu_fault.Flist
module U = Olfu_atpg.Untestable
module I = Olfu_atpg.Implic
module L = Olfu_lint
module Inv = Olfu_invar.Invar
module Sl = Olfu_slice.Slice
module Sc = Olfu_safety.Classify
module A = Olfu_absint.Absint
module P = Olfu_sbst.Programs
module Session = Olfu_service.Session

type replay = {
  total : float;  (** wall of the whole replay, seconds *)
  layers : (string * float) list;  (** self seconds per layer *)
  counters : (string * int) list;
  worker_s : float;  (** summed busy time of pool workers *)
  pool_s : float;  (** summed wall of pool dispatch regions *)
  pool_workers : int;  (** distinct worker lanes seen *)
  slice_edges : int;  (** mission flop-to-flop edges, when sliced *)
}

(* The engines' span names, as layers. *)
let engine_layer = function
  | "graph" -> "netlist.analysis"
  | "ternary" -> "atpg.ternary"
  | "observe" -> "atpg.observe"
  | "implic" -> "atpg.implic_build"
  | "classify" -> "atpg.classify"
  | "flist" -> "fault.flist"
  | "collapse" -> "fault.collapse"
  | "tally" -> "flow.tally"
  | "scan_trace" -> "manip.scan_trace"
  | "manip" -> "manip.tie"
  | "mission" -> "manip.mission"
  | "seu" -> "safety.seu"
  | "invar" -> "invar.run"
  | "testbench" -> "sbst.testbench"
  | "fsim" -> "fsim.sim"
  | n -> "engine." ^ n

let layer_of (s : Trace.span) =
  match s.Trace.cat with
  | "bench" -> s.Trace.name
  | "engine" -> engine_layer s.Trace.name
  | "step" -> "flow.steps"
  | c -> "other." ^ c

(* Self time per layer over the caller-lane span tree.  Pool spans run
   in parallel with the tree and are kept out of it.  A span recorded
   after the fact (no parent, e.g. the flow's accumulated "tally") is
   hung under the innermost span open at its end. *)
let attribute spans =
  let tree =
    List.filter
      (fun (s : Trace.span) ->
        s.Trace.tid = 0 && s.Trace.cat <> "worker" && s.Trace.cat <> "pool")
      spans
  in
  let nested =
    List.filter
      (fun (s : Trace.span) -> s.Trace.parent >= 0 || s.Trace.cat = "bench")
      tree
  in
  let parent_of (s : Trace.span) =
    if s.Trace.parent >= 0 then Some s.Trace.parent
    else if s.Trace.cat = "bench" then None
    else
      let t_end = s.Trace.t0 +. s.Trace.dur in
      List.fold_left
        (fun best (c : Trace.span) ->
          if c.Trace.t0 <= t_end && t_end <= c.Trace.t0 +. c.Trace.dur +. 1e-6
          then
            match best with
            | Some (b : Trace.span) when b.Trace.t0 >= c.Trace.t0 -> best
            | _ -> Some c
          else best)
        None nested
      |> Option.map (fun (c : Trace.span) -> c.Trace.id)
  in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match parent_of s with
      | Some p ->
        Hashtbl.replace child_time p
          (s.Trace.dur +. Option.value ~default:0. (Hashtbl.find_opt child_time p))
      | None -> ())
    tree;
  let self = Hashtbl.create 32 in
  List.iter
    (fun (s : Trace.span) ->
      let c = Option.value ~default:0. (Hashtbl.find_opt child_time s.Trace.id) in
      let k = layer_of s in
      Hashtbl.replace self k
        (Float.max 0. (s.Trace.dur -. c)
        +. Option.value ~default:0. (Hashtbl.find_opt self k)))
    tree;
  List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) self [])

let span sink name f = Trace.span sink ~cat:"bench" name f

type loaded = {
  nl : Netlist.t;
  mission : Olfu.Mission.t;
  cfg : Olfu_soc.Soc.config option;
  session : Session.t;
}

(* The service stores the netlist, the flow report and the outcome in
   its session, which sizes each value's reachable graph on insertion:
   a cost every request pays, one-shot included. *)
let remember sink l key v = span sink "service.session" (fun () -> Session.add l.session key v)

(* What the service's netlist loader does, call by call. *)
let load sink (s : Spec.t) =
  let session = Session.create () in
  let l =
    match s.Spec.target with
    | Spec.Config name ->
      let cfg = Option.get (Olfu_service.Service.soc_of_name name) in
      let nl = span sink "soc.generate" (fun () -> Olfu_soc.Soc.generate cfg) in
      let mission = span sink "manip.mission" (fun () -> Olfu.Mission.of_soc cfg nl) in
      ignore (span sink "netlist.digest" (fun () -> Olfu_netlist.Analysis.digest_of nl));
      { nl; mission; cfg = Some cfg; session }
    | Spec.File path ->
      let src =
        span sink "verilog.parse" (fun () ->
            In_channel.with_open_bin path In_channel.input_all)
      in
      let design =
        span sink "verilog.parse" (fun () -> Olfu_verilog.Parser.design_of_string src)
      in
      let nl =
        span sink "verilog.elaborate" (fun () ->
            Olfu_verilog.Elaborate.to_netlist
              ~roles:(Olfu_verilog.Elaborate.roles_of_source src)
              design)
      in
      let mission =
        span sink "manip.mission" (fun () ->
            Olfu.Mission.of_roles
              ~memmap:(Olfu_manip.Memmap.paper_case_study ())
              ~address_width:32 nl)
      in
      ignore (span sink "netlist.digest" (fun () -> Olfu_netlist.Analysis.digest_of nl));
      { nl; mission; cfg = None; session }
  in
  remember sink l "netlist"
    (Session.Loaded { Session.nl = l.nl; mission = l.mission; digest = ""; cfg = l.cfg });
  l

(* Renders through the public printers, then stores the rendering as
   the request's outcome. *)
let render sink l f =
  let text = span sink "service.render" (fun () -> Format.asprintf "%t" f) in
  remember sink l "outcome"
    (Session.Outcome
       { Session.json = text; text; summary = text; status = Olfu_service.Response.Success; aux = [] })

let flow sink rc l =
  let r = span sink "core.flow" (fun () -> Flow.run rc l.nl l.mission) in
  remember sink l "flow" (Session.Flow r);
  r

let edge_count (e : Sl.edges) =
  Array.fold_left (fun a s -> a + Array.length s) 0 e.Sl.supports

(* The lint context's artifacts, each forced on a fresh context: the
   cost each would add to a lint run that needs it first.  Returned in
   the order forced. *)
let lint_ctx nl =
  let ctx = L.Ctx.create nl in
  let time name f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    ("lint.ctx." ^ name, Unix.gettimeofday () -. t0)
  in
  [
    time "ternary" (fun () -> ignore (L.Ctx.ternary ctx));
    time "mission_ternary" (fun () -> ignore (L.Ctx.mission_ternary ctx));
    time "scoap" (fun () -> ignore (L.Ctx.scoap ctx));
    time "observe" (fun () -> ignore (L.Ctx.observe ctx));
    time "chains" (fun () -> ignore (L.Ctx.chains ctx));
    time "slice" (fun () -> ignore (L.Ctx.slice ctx));
    time "dead_nodes" (fun () -> ignore (L.Ctx.dead_nodes ctx));
  ]

(* One request's handler, replayed.  Returns the mission flop-to-flop
   edge count when the request builds a slice graph. *)
let run_op sink ~jobs (s : Spec.t) l =
  let rc =
    { Olfu.Run_config.default with Olfu.Run_config.jobs; trace = sink }
  in
  let cfg () = Option.get l.cfg in
  match s.Spec.op with
  | Spec.Analyze ->
    let r = flow sink rc l in
    render sink l (fun ppf ->
        Format.fprintf ppf "%a@.%a@.%a@." Netlist.pp_summary l.nl
          (Flow.pp_table1 ~paper:false) r Flist.pp_summary r.Flow.flist);
    0
  | Spec.Lint disabled ->
    let config = { L.Config.default with L.Config.disabled } in
    let o = span sink "lint.run" (fun () -> L.Lint.run ~config l.nl) in
    render sink l (fun ppf ->
        Format.fprintf ppf "%a%a%a" L.Render.json o L.Render.text o
          L.Render.summary o);
    0
  | Spec.Implic { depth; budget } ->
    let t =
      span sink "atpg.untestable" (fun () ->
          U.analyze ~ff_mode:rc.Olfu.Run_config.ff_mode ~learn_depth:depth
            ~learn_budget:budget ~trace:sink l.nl)
    in
    span sink "atpg.implic_query" (fun () ->
        match U.implication_db t with
        | Some db ->
          ignore (I.stats db);
          ignore (I.conflict_nets ~limit:10 db (I.Scratch.create db))
        | None -> ());
    let fl = span sink "fault.flist" (fun () -> Flist.full l.nl) in
    ignore (U.classify ~jobs ~trace:sink t fl);
    ignore (span sink "atpg.tdf" (fun () -> Olfu_atpg.Tdf_classify.count ~jobs t l.nl));
    render sink l (fun _ -> ());
    0
  | Spec.Invar { k; no_prove } ->
    let r = flow sink rc l in
    let m = span sink "safety.machine" (fun () -> Sc.bmc_machine r.Flow.mission_netlist) in
    (* Invar.run's defaults, phase by phase *)
    let seed = 0x11A8 in
    let mined =
      span sink "invar.mine" (fun () ->
          Inv.mine ~seed ~cycles:96 ~hold:[] ~max_candidates:512 m)
    in
    let survivors, killed =
      span sink "invar.filter" (fun () ->
          Inv.filter ~seed:(seed + 1) ~cycles:256 ~hold:[] m mined)
    in
    let proved, unproved =
      if no_prove then ([], survivors)
      else
        span sink "invar.prove" (fun () ->
            Inv.prove ~k ~conflict_limit:100_000 ~jobs ~trace:sink ~hold:[] m survivors)
    in
    let report =
      { Inv.total_ffs = Array.length (Netlist.seq_nodes m); mined; killed; unproved; proved; k;
        seconds = 0. }
    in
    render sink l (fun ppf -> Inv.pp m ppf report);
    0
  | Spec.Slice ->
    let r = flow sink rc l in
    let m = span sink "safety.machine" (fun () -> Sc.bmc_machine r.Flow.mission_netlist) in
    let g = span sink "slice.build" (fun () -> Sl.get m) in
    span sink "slice.stats" (fun () ->
        List.iter
          (fun e -> ignore (Sl.dist_of (Sl.backward_sizes g e)))
          [ g.Sl.structural; g.Sl.hard_edges; g.Sl.mission_edges ];
        ignore (Sl.scc g.Sl.mission_edges (Array.length g.Sl.flops));
        ignore (Sl.condensation_dot g g.Sl.mission_edges));
    render sink l (fun ppf -> Sl.pp_stats ppf g);
    edge_count g.Sl.mission_edges
  | Spec.Safety { window; seu_limit } ->
    let cfg = cfg () in
    let named =
      span sink "absint.programs" (fun () ->
          List.map (fun p -> (p.P.pname, A.of_program cfg p)) (P.suite cfg))
    in
    let facts =
      span sink "absint.facts" (fun () ->
          A.activation_facts ~label:(cfg.Olfu_soc.Soc.name ^ "-suite") cfg named)
    in
    let res =
      span sink "safety.classify" (fun () ->
          Sc.run ~config:{ Sc.default with Sc.rc; window; seu_limit } ~facts l.nl
            l.mission)
    in
    render sink l (fun ppf -> Sc.pp ppf res);
    0
  | Spec.Coverage { sample } ->
    let cfg = cfg () in
    let r = flow sink rc l in
    let sub =
      span sink "sbst.sample" (fun () ->
          (* the service's fixed-seed fault sample *)
          let fl = r.Flow.flist in
          let rng = Random.State.make [| 42 |] in
          let n = Flist.size fl in
          let chosen = Hashtbl.create sample in
          while Hashtbl.length chosen < min sample n do
            Hashtbl.replace chosen (Random.State.int rng n) ()
          done;
          let idx = List.sort compare (Hashtbl.fold (fun i () a -> i :: a) chosen []) in
          let sub = Flist.create l.nl (Array.of_list (List.map (Flist.fault fl) idx)) in
          List.iteri (fun k i -> Flist.set_status sub k (Flist.status fl i)) idx;
          sub)
    in
    let g =
      span sink "sbst.grade" (fun () ->
          Olfu_sbst.Coverage.grade ~jobs ~trace:sink cfg l.nl sub (P.suite cfg))
    in
    render sink l (fun ppf ->
        Format.fprintf ppf "%a@.%a@." (Flow.pp_table1 ~paper:false) r
          Olfu_sbst.Coverage.pp_summary g);
    0

(* Replay [s] with tracing on and attribute its time.  The lint context
   probe runs after the replay, outside its wall, and splits the lint
   run's self time into context artifacts and rule evaluation. *)
let replay ~jobs (s : Spec.t) =
  Gc.full_major ();
  let sink = Trace.create () in
  let t0 = Unix.gettimeofday () in
  let l, edges =
    span sink "bench.glue" (fun () ->
        let l = load sink s in
        (l, run_op sink ~jobs s l))
  in
  let total = Unix.gettimeofday () -. t0 in
  let spans = Trace.spans sink in
  let layers = attribute spans in
  let layers =
    match (s.Spec.op, List.assoc_opt "lint.run" layers) with
    | Spec.Lint _, Some run ->
      let ctx = lint_ctx l.nl in
      let sum = List.fold_left (fun a (_, t) -> a +. t) 0. ctx in
      let scale = if sum > run then run /. sum else 1. in
      List.remove_assoc "lint.run" layers
      @ List.map (fun (k, t) -> (k, t *. scale)) ctx
      @ [ ("lint.rules", Float.max 0. (run -. sum)) ]
    | _ -> layers
  in
  let sum_cat cat =
    List.fold_left
      (fun a (sp : Trace.span) -> if sp.Trace.cat = cat then a +. sp.Trace.dur else a)
      0. spans
  in
  let lanes =
    List.sort_uniq compare
      (List.filter_map
         (fun (sp : Trace.span) ->
           if sp.Trace.cat = "worker" then Some sp.Trace.tid else None)
         spans)
  in
  {
    total;
    layers;
    counters = Trace.counters sink;
    worker_s = sum_cat "worker";
    pool_s = sum_cat "pool";
    pool_workers = max 1 (List.length lanes);
    slice_edges = edges;
  }

(* The same handler with tracing off: the untraced side of the tracing
   overhead. *)
let untraced ~jobs (s : Spec.t) =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let l = load Trace.null s in
  ignore (run_op Trace.null ~jobs s l);
  { total = Unix.gettimeofday () -. t0; layers = []; counters = []; worker_s = 0.;
    pool_s = 0.; pool_workers = 1; slice_edges = 0 }

module J = Olfu_obs.Json

let to_json r =
  let obj f l = J.Obj (List.map (fun (k, v) -> (k, f v)) l) in
  J.Obj
    [
      ("total", J.Float r.total);
      ("layers", obj (fun v -> J.Float v) r.layers);
      ("counters", obj (fun v -> J.Int v) r.counters);
      ("worker_s", J.Float r.worker_s);
      ("pool_s", J.Float r.pool_s);
      ("pool_workers", J.Int r.pool_workers);
      ("slice_edges", J.Int r.slice_edges);
    ]

let of_json j =
  let get k = match J.member k j with Some v -> v | None -> failwith ("replay: no " ^ k) in
  let num k = Option.get (J.to_float_opt (get k)) and int k = Option.get (J.to_int_opt (get k)) in
  let obj f k = match get k with J.Obj l -> List.map (fun (n, v) -> (n, Option.get (f v))) l | _ -> [] in
  {
    total = num "total";
    layers = obj J.to_float_opt "layers";
    counters = obj J.to_int_opt "counters";
    worker_s = num "worker_s";
    pool_s = num "pool_s";
    pool_workers = int "pool_workers";
    slice_edges = int "slice_edges";
  }

(* A replay in a fresh child process ([olfu_perf replay]), so it starts
   from the same empty heap as the one-shot process it is compared
   with. *)
let in_child ~work ~index ~jobs ~traced =
  let r =
    Proc.run ~log:(Filename.concat work "olfu.log")
      [| Sys.executable_name; "--work"; work; "replay"; string_of_int index;
         string_of_int jobs; (if traced then "1" else "0") |]
  in
  if r.Proc.code <> 0 then failwith (Printf.sprintf "replay %d: exit %d" index r.Proc.code);
  match J.parse r.Proc.out with
  | Ok j -> of_json j
  | Error e -> failwith ("replay: " ^ e)
