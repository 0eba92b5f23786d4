open Olfu_logic
open Olfu_netlist
open Olfu_sim

type ff_mode = Cut | Reset_join | Steady_state

type t = {
  values : Logic4.t array;
  iterations : int;
  converged : bool;
}

(* Join with X absorbing: once a flip-flop has been seen holding both
   binary values over the mission, it is not constant. *)
let join a b = if Logic4.equal a b then a else Logic4.X

let fixpoint ~ff_mode ~assume ~max_iters nl =
  let env = Comb_sim.init nl Logic4.X in
  let seqs = Netlist.seq_nodes nl in
  let resets = Netlist.nodes_with_role nl Netlist.Reset in
  (* Assumptions split by target: inputs are forced in [set_inputs];
     sequential nodes are forced in state space, pinning the slot in
     every iteration so the fixed point respects the assumption. *)
  let seq_slot = Hashtbl.create 17 in
  Array.iteri (fun k i -> Hashtbl.replace seq_slot i k) seqs;
  let assume_in, assume_seq =
    List.partition_map
      (fun (i, v) ->
        match Hashtbl.find_opt seq_slot i with
        | Some k -> Either.Right (k, v)
        | None -> Either.Left (i, v))
      assume
  in
  let forced = Array.make (Array.length seqs) None in
  List.iter (fun (k, v) -> forced.(k) <- Some v) assume_seq;
  let force_state state =
    Array.iteri (fun k f -> Option.iter (fun v -> state.(k) <- v) f) forced
  in
  let force_seq_env () =
    Array.iteri
      (fun k f -> Option.iter (fun v -> env.(seqs.(k)) <- v) f)
      forced
  in
  let set_inputs ~reset_active =
    Array.iter (fun i -> env.(i) <- Logic4.X) (Netlist.inputs nl);
    Array.iter
      (fun i ->
        if Cell.equal_kind (Netlist.kind nl i) Cell.Input then
          env.(i) <- (if reset_active then Logic4.L0 else Logic4.L1))
      resets;
    List.iter (fun (i, v) -> env.(i) <- v) assume_in
  in
  match ff_mode with
  | Cut ->
    set_inputs ~reset_active:false;
    Array.iter (fun i -> env.(i) <- Logic4.X) seqs;
    force_seq_env ();
    Comb_sim.settle nl env;
    { values = env; iterations = 1; converged = true }
  | Reset_join | Steady_state ->
    (* Post-reset state: one settle with reset asserted. *)
    set_inputs ~reset_active:true;
    Array.iter (fun i -> env.(i) <- Logic4.X) seqs;
    force_seq_env ();
    Comb_sim.settle nl env;
    let state = Array.map (fun (_, v) -> v) (Comb_sim.next_states nl env) in
    force_state state;
    set_inputs ~reset_active:false;
    let iterations = ref 0 in
    let converged = ref false in
    while (not !converged) && !iterations < max_iters do
      incr iterations;
      Array.iteri (fun k i -> env.(i) <- state.(k)) seqs;
      Comb_sim.settle nl env;
      let next = Comb_sim.next_states nl env in
      let changed = ref false in
      Array.iteri
        (fun k (_, v) ->
          (* an assumed slot never moves, so it can't block convergence *)
          if forced.(k) = None then begin
            let v' =
              match ff_mode with
              | Steady_state -> v
              | Reset_join | Cut -> join state.(k) v
            in
            if not (Logic4.equal v' state.(k)) then begin
              state.(k) <- v';
              changed := true
            end
          end)
        next;
      if not !changed then converged := true
    done;
    if not !converged then begin
      (* Non-convergent steady state (e.g. a free-running toggle): fall
         back to the sound all-X sequential cut. *)
      Array.iter (fun i -> env.(i) <- Logic4.X) seqs;
      force_seq_env ()
    end
    else Array.iteri (fun k i -> env.(i) <- state.(k)) seqs;
    Comb_sim.settle nl env;
    { values = env; iterations = !iterations; converged = !converged }

(* One fixpoint per netlist and exact key, shared by every caller: the
   flow steps, the safety relabel passes, lint, slice and the service all
   ask the same few questions of the same netlists. *)
type Analysis.cache +=
  | Fixpoint of (ff_mode * (int * Logic4.t) list * int) * t Once.t

let run ?(ff_mode = Steady_state) ?(assume = []) ?(max_iters = 64) nl =
  let key = (ff_mode, assume, max_iters) in
  Analysis.memo (Analysis.get nl)
    (function Fixpoint (k, c) when k = key -> Some c | _ -> None)
    (fun c -> Fixpoint (key, c))
    (fun () -> fixpoint ~ff_mode ~assume ~max_iters nl)

let const_of t i = t.values.(i)
let is_const t i = Logic4.is_binary t.values.(i)

let num_const t =
  Array.fold_left
    (fun acc v -> if Logic4.is_binary v then acc + 1 else acc)
    0 t.values
