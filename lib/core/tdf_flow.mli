(** The identification flow read for transition-delay faults — the
    fault-model extension the paper's conclusion announces.

    No engine runs here.  A transition fault is untestable in a circuit
    model iff its site's stuck-at-0 or stuck-at-1 fault is
    ({!Olfu_atpg.Tdf_classify}), and {!Flow.run} records in
    [Flow.report.stamps] which step classified each stuck-at fault.
    Each step only claims faults no earlier step claimed and verdicts
    are pure per fault, so a transition site falls at the earlier of its
    two stuck-at steps, with both polarities.  The scan rule comes first
    and stamps every {!Olfu_manip.Scan_trace.untestable_faults} fault,
    so a site carrying any of them — the SE pins whose stuck-at-1 the
    stuck-at flow keeps included — loses both transition faults to
    Scan: the SE net never toggles in mission mode. *)

type report = {
  universe : int;  (** two transition faults per stuck-at site *)
  scan : int;
  baseline : int;
  debug_control : int;
  debug_observe : int;
  memory : int;
  total : int;
  fraction : float;
  seconds : float;  (** the flow it reads plus the derivation *)
}

val of_flow : Flow.report -> report
(** One linear pass over the flow's fault list and step stamps.  The
    counts inherit the flow's [ff_mode] and [implic] and, like the flow,
    do not depend on [jobs]. *)

val pp : Format.formatter -> report -> unit
