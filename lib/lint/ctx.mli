open Olfu_logic
open Olfu_netlist

(** Shared analysis context for the lint rule registry.

    Every expensive whole-netlist analysis a rule may want (ternary
    implication, SCOAP, X-path observability, dead-cone reachability,
    scan-path tracing) is computed lazily and memoized — the ternary
    fixpoints by {!Olfu_atpg.Ternary.run} itself, per netlist, the rest
    here — so a run of the full registry performs each analysis at most
    once no matter how many rules consume it.  Each artifact here is a
    {!Olfu_netlist.Once.t}, so
    one context may serve rule runs on several domains at once (the
    analysis service shares a context across requests).

    The scan tracer is deliberately richer than
    [Olfu_manip.Scan_trace.trace] (which this library must not depend on —
    [olfu_manip] sits above [olfu_lint] in the dependency order): it
    records the buffers/inverters of every shift-path hop, which feeds
    the polarity, census and loop rules. *)

(** Tunable limits consumed by the structural rules. *)
type thresholds = {
  max_fanout : int;  (** STRUCT-001: data-fanout ceiling per net *)
  max_depth : int;  (** STRUCT-002: combinational depth ceiling *)
  chain_imbalance : int;
      (** SCAN-007: max/min chain length, in percent (300 = 3x) *)
  scoap_top : int;  (** TEST-001: how many SCOAP hotspots to report *)
}

val default_thresholds : thresholds

(** One shift-path hop: the mux-scan cell reached and the buffers or
    inverters crossed since the previous cell (or the scan-in port), in
    shift order. *)
type hop = { cell : int; path : int list }

type chain = {
  scan_in : int;  (** the scan-in input port *)
  hops : hop list;  (** cells in shift order, with their entry paths *)
  scan_out : int option;  (** terminating output marker, if any *)
  tail_path : int list;  (** buffers between the last cell and scan-out *)
}

(** Result of walking a net backward through buffers/inverters. *)
type trace = {
  origin : int;  (** first non-buffer node reached *)
  inverted : bool;  (** odd number of inverters crossed *)
  through : int list;  (** crossed buffers/inverters, origin side first *)
}

(** Facts proven about the mission software by an external analysis
    (in practice {!Olfu_absint} over the SBST suite; this library stays
    below [olfu_absint] in the dependency order, so the facts arrive as
    plain data).  Consumed by the SW-* rules and folded into
    {!mission_ternary}. *)
type software = {
  sw_label : string;  (** provenance, e.g. ["sbst-suite"] *)
  sw_width : int;  (** address width the bit indices refer to *)
  sw_const_addr_bits : (int * bool) list;
      (** address bits never toggled by any analysed program *)
  sw_assume : (int * Logic4.t) list;
      (** netlist nodes (address-register flops, constant [bus_rdata]
          input bits) forced by the software, for [Ternary.run ?assume] *)
  sw_dead_code : (string * int list) list;
      (** per program: instruction word addresses proven unreachable *)
  sw_store_total : int;  (** store sites across the analysed programs *)
  sw_ram_stores : bool;
      (** some store provably lands in data RAM (the on-line observation
          point of the paper) *)
  sw_unmapped : string list;
      (** accesses that may escape every mapped region *)
}

(** Facts proven about the reachable state space by an external
    invariant engine (in practice {!Olfu_invar} mine/filter/prove over
    the mission-held machine; this library stays below [olfu_invar] in
    the dependency order, so — exactly like {!software} — the proofs
    arrive as plain data).  Consumed by the INV-* rules.  Soundness is
    the producer's responsibility: only certificate-carrying proved
    invariants may be handed over. *)
type invariants = {
  inv_label : string;  (** provenance, e.g. ["invar k=1"] *)
  inv_consts : (int * bool) list;
      (** flops proved constant in every reachable state *)
  inv_mutex : (int * int) list;
      (** flop pairs proved never simultaneously 1 *)
  inv_ranges : (int array * int list) list;
      (** register bit-groups (LSB first) with their proved reachable
          value sets — gaps are unreachable encodings *)
}

type t

val create :
  ?thresholds:thresholds ->
  ?software:software ->
  ?invariants:invariants ->
  Netlist.t ->
  t
val nl : t -> Netlist.t
val limits : t -> thresholds

val software : t -> software option

val invariants : t -> invariants option

val assumptions : t -> (int * Logic4.t) list
(** Everything {!mission_ternary} assumes: {!mission_assume} plus the
    software [sw_assume] facts when present. *)

val node_label : Netlist.t -> int -> string
(** Hierarchical name of the net, or ["n<id>"]. *)

val name : t -> int -> string

val back_trace : Netlist.t -> int -> trace
(** Walk a net backward through [Buf]/[Not] cells to its origin. *)

val reset_roots : Netlist.t -> int -> int list
(** Reset-role inputs backward-reachable from the net through the reset
    gating idioms (buffers, inverters, and/nand/or/nor gates), sorted.
    Empty = an orphan reset; more than one = mixed domains; a non-trivial
    path through gates = a gated reset. *)

val ternary : t -> Olfu_atpg.Ternary.t
(** Steady-state ternary implication on the netlist as given. *)

val mission_assume : Netlist.t -> (int * Logic4.t) list
(** The §3.2 tie script as implication assumptions: every
    [Debug_control] input still present as a free input, tied to 0. *)

val mission_ternary : t -> Olfu_atpg.Ternary.t
(** Ternary implication with {!assumptions} applied. *)

val scoap : t -> Olfu_atpg.Scoap.t
val observe : t -> Olfu_atpg.Observe.t

val dead_nodes : t -> int list
(** Nodes with no structural path to any output marker (inputs exempt). *)

val chains : t -> chain list
val chain_cells : t -> (int, unit) Hashtbl.t
(** The set of mux-scan cells reached by some chain. *)

val slice : t -> Olfu_slice.Slice.t
(** Constant-severed flop dependency graph, with the mission edges
    strengthened by {!assumptions} (so software-held constants sever
    too).  Without software facts this is {!Olfu_slice.Slice.get}, the
    graph every consumer of the netlist shares.  Feeds the SLICE-*
    rules. *)

val si_cycles : t -> int list list
(** Shift-path cycles: each is the full cycle path in shift order (scan
    cells and the buffers between them).  A cycle is never reachable from
    a scan-in port (an SI pin has a single driver), so these are exactly
    the closed shift loops a chain tracer would never terminate on. *)

val data_fanout : Netlist.t -> int -> int
(** Fanout branches excluding scan/reset wiring pins (SI/SE of scan
    cells, rstn of resettable cells): the mission-logic load of a net. *)
