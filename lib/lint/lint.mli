open Olfu_netlist

(** The lint engine: run the rule registry over a netlist under a
    configuration, applying waivers and baseline suppression. *)

type outcome = {
  netlist : Netlist.t;
  findings : Rule.finding list;  (** live findings, registry order *)
  waived : (Rule.finding * Config.waiver) list;
  baselined : Rule.finding list;
  unused_waivers : Config.waiver list;
      (** waivers that matched no finding — stale suppressions *)
  rules : Rule.t list;  (** the rules that ran (enabled ones) *)
}

val registry : Rule.t list
(** {!Builtin.all}. *)

val find_rule : string -> Rule.t option

type context
(** A {!Ctx.t} plus each rule's raw findings, memoized: whatever a rule
    emits depends on the context alone, while severities, waivers and
    baselines are applied per run.  Safe to share across domains. *)

val context :
  ?thresholds:Ctx.thresholds ->
  ?software:Ctx.software ->
  ?invariants:Ctx.invariants ->
  Netlist.t ->
  context
(** Builds nothing yet: every analysis and rule runs when a run first
    needs it. *)

val apply : ?config:Config.t -> ?trace:Olfu_obs.Trace.sink -> context -> outcome
(** Runs the rules [config] enables on the context — each rule's first
    run is memoized — and applies severities, waivers and the baseline.
    [config.thresholds] is ignored: the context fixed them.  A recording
    [trace] gets one ["lint"] engine span. *)

val run :
  ?config:Config.t ->
  ?software:Ctx.software ->
  ?invariants:Ctx.invariants ->
  Netlist.t ->
  outcome
(** Runs every enabled rule over one shared {!Ctx.t}.  Each raw finding
    gets the rule's code and effective severity; findings matching a
    waiver or a baseline fingerprint are moved to [waived]/[baselined].
    [software] supplies program-side facts to the SW-* rules and to
    {!Ctx.mission_ternary}; [invariants] supplies proved state facts to
    the INV-* rules (each family stays silent without its facts).
    [apply] over a fresh {!context}. *)

val findings :
  ?config:Config.t ->
  ?software:Ctx.software ->
  ?invariants:Ctx.invariants ->
  Netlist.t ->
  Rule.finding list
(** [(run nl).findings] — convenience for callers that only want the
    live findings. *)

val errors : Rule.finding list -> Rule.finding list
val max_severity : outcome -> Rule.severity option

val fails : fail_on:Rule.severity -> outcome -> bool
(** True when some live finding is at least as severe as [fail_on]. *)
