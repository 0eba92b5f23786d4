open Olfu_logic
open Olfu_netlist

(** Ternary (0/1/X) constant propagation.

    Computes, for every net, whether the mission configuration forces it to
    a constant.  Tie cells and the structure itself are the only sources of
    constants; free primary inputs are X.

    Sequential handling is selectable because it is precisely the knob the
    paper discusses (Sec. 3.3: tools "stop the untestable identification
    process at flip flops", so the authors tie FF outputs manually): *)

type ff_mode =
  | Cut
      (** flip-flop outputs are X: per-combinational-block analysis, the
          behaviour of a plain structural tool *)
  | Reset_join
      (** sound always-constant analysis: flip-flops start from their
          post-reset value, values are joined across all reachable cycles
          (a net is reported constant only if it holds that value in every
          post-reset cycle) *)
  | Steady_state
      (** mission steady state: iterate the deterministic ternary
          trajectory from reset to a fixed point; nets binary in the fixed
          point are reported constant.  This matches the paper's reading
          ("registers will always show a constant logic value") and may
          claim nets that differ for a few cycles right after reset. *)

type t = {
  values : Logic4.t array;  (** per net: [L0]/[L1] if constant, else [X] *)
  iterations : int;
  converged : bool;  (** [false] if [max_iters] was hit (Steady_state) *)
}

val run :
  ?ff_mode:ff_mode ->
  ?assume:(int * Logic4.t) list ->
  ?max_iters:int ->
  Netlist.t ->
  t
(** [max_iters] (default 64) bounds the sequential fixed point.  Inputs
    with the {!Netlist.Reset} role are held at their active-low asserted
    value (0) to compute the post-reset state, then released to constant
    inactive (1) — mission mode cannot toggle reset (Sec. 2).

    [assume] forces the listed nodes to constants throughout the
    analysis (both during and after reset) — the mission tie script, or
    software-derived facts, expressed as implication assumptions without
    editing the netlist.  Input nodes are forced in the environment;
    sequential nodes are pinned in state space every iteration (the
    paper's "tie the flip flops the mission holds constant").  Assumed
    combinational non-sequential nodes are overwritten by evaluation and
    have no effect.

    Memoized per netlist ({!Olfu_netlist.Analysis.memo}) on the exact
    ([ff_mode], [assume], [max_iters]) key: equal arguments on the same
    netlist return the same physical result, so every engine asking the
    same question shares one fixpoint.  The [values] array is therefore
    shared and must never be mutated. *)

val const_of : t -> int -> Logic4.t
val is_const : t -> int -> bool
val num_const : t -> int
