open Olfu_netlist
module Trace = Olfu_obs.Trace

type outcome = {
  netlist : Netlist.t;
  findings : Rule.finding list;
  waived : (Rule.finding * Config.waiver) list;
  baselined : Rule.finding list;
  unused_waivers : Config.waiver list;
  rules : Rule.t list;
}

let registry = Builtin.all
let find_rule code = List.find_opt (fun r -> r.Rule.code = code) registry

type context = {
  ctx : Ctx.t;
  raws : (string, Rule.raw list Once.t) Hashtbl.t;
  m : Mutex.t;
}

let context ?thresholds ?software ?invariants nl =
  {
    ctx = Ctx.create ?thresholds ?software ?invariants nl;
    raws = Hashtbl.create 64;
    m = Mutex.create ();
  }

(* A rule's raw findings depend on the context alone, so each rule runs
   at most once per context, whichever request enables it first. *)
let raw_findings c (r : Rule.t) =
  let cell =
    Mutex.protect c.m (fun () ->
        match Hashtbl.find_opt c.raws r.Rule.code with
        | Some cell -> cell
        | None ->
          let cell = Once.make (fun () -> r.Rule.run c.ctx) in
          Hashtbl.add c.raws r.Rule.code cell;
          cell)
  in
  Once.force cell

let apply ?(config = Config.default) ?(trace = Trace.null) c =
  let nl = Ctx.nl c.ctx in
  let rules = List.filter (Config.rule_enabled config) registry in
  let all =
    Trace.span trace ~cat:"engine" "lint" @@ fun () ->
    List.concat_map
      (fun (r : Rule.t) ->
        let severity = Config.effective_severity config r in
        List.map
          (fun (raw : Rule.raw) ->
            {
              Rule.code = r.Rule.code;
              severity;
              message = raw.Rule.r_message;
              node = raw.Rule.r_node;
              path = raw.Rule.r_path;
            })
          (raw_findings c r))
      rules
  in
  let used = Hashtbl.create 7 in
  let waived, rest =
    List.fold_left
      (fun (waived, rest) f ->
        match
          List.find_opt
            (fun w -> Config.waiver_matches nl w f)
            config.Config.waivers
        with
        | Some w ->
          Hashtbl.replace used w ();
          ((f, w) :: waived, rest)
        | None -> (waived, f :: rest))
      ([], []) all
  in
  let waived = List.rev waived and rest = List.rev rest in
  let baselined, findings =
    List.partition
      (fun f -> List.mem (Config.fingerprint nl f) config.Config.baseline)
      rest
  in
  let unused_waivers =
    List.filter (fun w -> not (Hashtbl.mem used w)) config.Config.waivers
  in
  { netlist = nl; findings; waived; baselined; unused_waivers; rules }

let run ?(config = Config.default) ?software ?invariants nl =
  apply ~config
    (context ~thresholds:config.Config.thresholds ?software ?invariants nl)

let findings ?config ?software ?invariants nl =
  (run ?config ?software ?invariants nl).findings
let errors =
  List.filter (fun (f : Rule.finding) -> f.Rule.severity = Rule.Error)

let max_severity o =
  List.fold_left
    (fun acc (f : Rule.finding) ->
      match acc with
      | None -> Some f.Rule.severity
      | Some s ->
        if Rule.severity_rank f.Rule.severity > Rule.severity_rank s then
          Some f.Rule.severity
        else acc)
    None o.findings

let fails ~fail_on o =
  List.exists
    (fun (f : Rule.finding) ->
      Rule.severity_rank f.Rule.severity >= Rule.severity_rank fail_on)
    o.findings
