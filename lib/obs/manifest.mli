(** Flat JSON run manifest.

    One self-contained document per run: what was run (config,
    [git describe] of the working tree), how long it took (wall seconds,
    per-engine seconds aggregated from the sink's ["engine"] spans,
    per-step seconds with verdict breakdowns), and what it counted
    (merged counter totals, gauges).  The [tools/check.sh] gate and
    [bench -- obs] strict-parse manifests and assert the per-engine and
    per-step attributions each cover wall time to within 5%. *)

type step = {
  name : string;
  seconds : float;
  classified : int;
  verdicts : (string * int) list;
      (** per-verdict-class counts of the step's newly classified faults *)
}

val git_describe : unit -> string
(** [git describe --always --dirty] of the current directory, or
    ["unknown"] when git or the repository is unavailable.  Memoized. *)

val make :
  ?config:(string * Json.t) list ->
  ?steps:step list ->
  ?prep:(string * float) list ->
  ?extra:(string * Json.t) list ->
  wall_seconds:float ->
  Trace.sink ->
  Json.t
(** Build the manifest object.  [config] renders under ["config"];
    [steps] under ["steps"]; [prep] lists named setup phases that belong
    to no step (e.g. netlist manipulations) and participate in the
    step-coverage sum; [extra] fields are appended verbatim at top
    level.  ["engines"], ["engine_seconds_total"], ["counters"] and
    ["gauges"] come from the sink; ["peak_heap_bytes"] records the
    process's GC [top_heap_words] (in bytes) at manifest time. *)

val to_file : Json.t -> string -> unit

val append_line : Json.t -> string -> unit
(** Append the value as one compact JSON line (creating the file when
    absent) — the daemon's per-request audit record: one {!make}
    manifest per served request, written under the server's audit
    lock. *)
