open Olfu_netlist
open Olfu_fault

(** On-line untestability for transition-delay faults.

    A transition fault needs its pin driven to {e both} values (launch)
    and the late transition propagated (capture).  Hence it is provably
    untestable whenever either same-site stuck-at fault is: a tied pin
    cannot launch, a blocked pin cannot capture.  This reduction keeps the
    verdicts sound and reuses the whole stuck-at engine — exactly the
    extension route the paper's conclusion sketches. *)

val verdict : Untestable.t -> Tdf.t -> Status.t option
(** [Some (Undetectable _)] when provably untestable in the analyzed
    configuration. *)

val verdict_with : Untestable.t -> Untestable.walker -> Tdf.t -> Status.t option
(** {!verdict} through an explicit walker — the multi-domain entry point. *)

val count : ?jobs:int -> Untestable.t -> Netlist.t -> int * int
(** [(untestable, universe)] over {!Tdf.universe}.  [jobs] (default
    {!Olfu_pool.Pool.default_jobs}) shards the universe across a domain
    pool with per-worker walkers; verdicts are pure per fault, so the
    count is identical for any [jobs]. *)

val count_of_stuck : Flist.t -> int * int
(** {!count}, read off a classified stuck-at list instead of re-running
    every verdict: [fl] must be [Flist.full nl] after [Untestable.classify
    t], whose statuses are then exactly the per-fault verdicts of [t].  A
    transition fault is untestable iff its site's sa0 or sa1 fault is,
    both polarities share that pair, and {!Olfu_fault.Tdf.universe} is the
    stuck-at site set — so this equals [count t nl] in linear time. *)
