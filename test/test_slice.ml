open Olfu_logic
open Olfu_netlist
module B = Netlist.Builder
module Slice = Olfu_slice.Slice
module Bmc = Olfu_atpg.Bmc
module Fault = Olfu_fault.Fault
module Seq_sim = Olfu_sim.Seq_sim

(* --- severing on the paper's mission cells --- *)

(* Fig. 2 scan cell in mission: SE tied 0 means the flop never reads SI,
   so the hard slice keeps only FI while the structural one keeps both *)
let test_scan_severing () =
  let nl, ff = Test_support.scan_cell_mission () in
  let g = Slice.build nl in
  let fi = Netlist.find_exn nl "FI" and si = Netlist.find_exn nl "SI" in
  let k = g.Slice.ford.(ff) in
  Alcotest.(check (list int))
    "structural reads FI and SI" [ fi; si ]
    (Array.to_list g.Slice.structural.Slice.in_deps.(k));
  Alcotest.(check (list int))
    "hard slice reads FI only" [ fi ]
    (Array.to_list g.Slice.hard_edges.Slice.in_deps.(k));
  Alcotest.(check (list int))
    "mission slice reads FI only" [ fi ]
    (Array.to_list g.Slice.mission_edges.Slice.in_deps.(k))

(* Fig. 4 debug mux in mission: DE tied 0 selects FI, so the DI branch
   of the mux disappears from the severed slice *)
let test_mux_severing () =
  let nl, _mux, ff = Test_support.debug_cell_mission () in
  let g = Slice.build nl in
  let fi = Netlist.find_exn nl "FI" and di = Netlist.find_exn nl "DI" in
  let k = g.Slice.ford.(ff) in
  Alcotest.(check (list int))
    "structural reads FI and DI" [ fi; di ]
    (Array.to_list g.Slice.structural.Slice.in_deps.(k));
  Alcotest.(check (list int))
    "hard slice reads FI only" [ fi ]
    (Array.to_list g.Slice.hard_edges.Slice.in_deps.(k))

(* --- reduced machines --- *)

let test_backward_machine () =
  let nl, ff = Test_support.scan_cell_mission () in
  let g = Slice.build nl in
  let r = Slice.backward g ~targets:[ ff ] in
  let rnl = r.Slice.rnl in
  (* SI is dead logic in the slice *)
  Alcotest.(check bool) "SI dropped" true (Netlist.find rnl "SI" = None);
  let nff = r.Slice.new_of_old.(ff) in
  Alcotest.(check bool) "ff kept" true (nff >= 0);
  Alcotest.(check string) "kind preserved" "SDFF"
    (Cell.kind_name (Netlist.kind rnl nff));
  (* d mapped, si severed to a fresh X, se rewired to its constant *)
  let fi = Netlist.fanin rnl nff in
  Alcotest.(check string) "d pin is the mapped FI" "INPUT"
    (Cell.kind_name (Netlist.kind rnl fi.(0)));
  Alcotest.(check string) "si pin severed to Tiex" "TIEX"
    (Cell.kind_name (Netlist.kind rnl fi.(1)));
  Alcotest.(check string) "se pin tied to 0" "TIE0"
    (Cell.kind_name (Netlist.kind rnl fi.(2)));
  Slice.certify g r

let test_get_memoized () =
  let nl, _ = Test_support.scan_cell_mission () in
  Alcotest.(check bool) "same graph" true (Slice.get nl == Slice.get nl)

(* ring walker: three flops in one feedback loop form one SCC *)
let ring3 () =
  let b = B.create () in
  let rstn = B.input ~roles:[ Netlist.Reset ] b "rstn" in
  let ph = B.tie b Logic4.L0 in
  let st =
    Array.init 3 (fun i ->
        B.dffr b ~name:(Printf.sprintf "st[%d]" i) ~d:ph ~rstn)
  in
  let idle = B.nor2 b (B.or2 b st.(0) st.(1)) st.(2) in
  B.set_fanin b st.(0) [| idle; rstn |];
  B.set_fanin b st.(1) [| st.(0); rstn |];
  B.set_fanin b st.(2) [| st.(1); rstn |];
  let _ = B.output b "FO" (B.or2 b st.(2) st.(0)) in
  B.freeze_exn b

let test_scc_ring () =
  let nl = ring3 () in
  let g = Slice.build nl in
  let c = Slice.scc g.Slice.hard_edges (Array.length g.Slice.flops) in
  Alcotest.(check int) "one component" 1 (Array.length c.Slice.comps);
  Alcotest.(check int) "of size 3" 3 (Array.length c.Slice.comps.(0));
  let sizes = Slice.backward_sizes g g.Slice.hard_edges in
  Array.iter (fun s -> Alcotest.(check int) "slice size 3" 3 s) sizes;
  let dot = Slice.condensation_dot g g.Slice.hard_edges in
  Alcotest.(check bool) "dot mentions the component" true
    (String.length dot > 0)

let test_forward_isolates () =
  let b = B.create () in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let ffa = B.dff b ~name:"ffa" ~d:a in
  let ffb = B.dff b ~name:"ffb" ~d:bb in
  let _ = B.output b "oA" ffa in
  let _ = B.output b "oB" ffb in
  let nl = B.freeze_exn b in
  let g = Slice.build nl in
  let r = Slice.forward g ~sources:[ ffa ] in
  Alcotest.(check bool) "oA kept" true (Netlist.find r.Slice.rnl "oA" <> None);
  Alcotest.(check bool) "ffb dropped" true
    (Netlist.find r.Slice.rnl "ffb" = None);
  Alcotest.(check bool) "oB dropped" true
    (Netlist.find r.Slice.rnl "oB" = None)

(* --- sliced BMC oracle --- *)

let same_ctor a b =
  match (a, b) with
  | Bmc.Test _, Bmc.Test _ -> true
  | Bmc.No_test_within _, Bmc.No_test_within _ -> true
  | Bmc.Unknown, Bmc.Unknown -> true
  | _ -> false

let check_oracle ?(cycles = 4) nl =
  let g = Slice.build nl in
  let faults =
    Array.to_list (Fault.universe nl)
    |> List.filter (fun f -> f.Fault.site.Fault.pin <> Cell.Pin.Clk)
  in
  List.for_all
    (fun f ->
      let full = Bmc.run ~cycles nl f in
      let sliced = Slice.oracle ~cycles g f in
      let ctor = function
        | Bmc.Test _ -> "test"
        | Bmc.No_test_within _ -> "no-test"
        | Bmc.Unknown -> "unknown"
      in
      let ok = same_ctor full sliced in
      (if ok then
         (* a sliced stimulus must replay on the FULL machine whenever the
            full machine's own stimulus does (replay of either can fail
            legitimately when detection leans on a free power-up state
            the L0-init simulator cannot reach) *)
         match (sliced, full) with
         | Bmc.Test stim, Bmc.Test fstim ->
           Bmc.confirm_test nl f stim
           || (not (Bmc.confirm_test nl f fstim))
           ||
           (Format.printf "oracle replay failed on %a@." (Fault.pp nl) f;
            false)
         | _ -> true
       else begin
         Format.printf "oracle mismatch on %a: full %s, sliced %s@."
           (Fault.pp nl) f (ctor full) (ctor sliced);
         false
       end)
      || false)
    faults

let test_oracle_redundant () =
  let nl = Test_support.redundant_circuit () in
  Alcotest.(check bool) "verdicts match" true (check_oracle nl)

let test_oracle_scan_cell () =
  let nl, _ = Test_support.scan_cell_mission () in
  Alcotest.(check bool) "verdicts match" true (check_oracle nl)

(* --- properties on random sequential machines --- *)

(* sliced and full BMC agree fault-by-fault, and sliced witnesses replay *)
let prop_oracle_equiv =
  QCheck2.Test.make ~count:8 ~name:"sliced oracle = full BMC"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist rng ~inputs:3 ~gates:10 ~flops:3
      in
      let g = Slice.build nl in
      let faults =
        Array.to_list (Fault.universe nl)
        |> List.filter (fun f -> f.Fault.site.Fault.pin <> Cell.Pin.Clk)
      in
      (* cap the per-case fault count to keep the property quick *)
      let faults = List.filteri (fun i _ -> i mod 7 = 0) faults in
      List.for_all
        (fun f ->
          let full = Bmc.run ~cycles:3 nl f in
          let sliced = Slice.oracle ~cycles:3 g f in
          same_ctor full sliced
          &&
          match (sliced, full) with
          | Bmc.Test stim, Bmc.Test fstim ->
            Bmc.confirm_test nl f stim
            || not (Bmc.confirm_test nl f fstim)
          | _ -> true)
        faults)

(* the reduced machine is a stuttering-free projection: with reset held
   inactive and identical inputs, every kept output matches cycle by
   cycle (hard constants hold in any such run) *)
let prop_backward_sim_equiv =
  QCheck2.Test.make ~count:20 ~name:"backward slice simulates identically"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist rng ~inputs:3 ~gates:12 ~flops:3
      in
      let g = Slice.build nl in
      let r =
        Slice.backward g ~targets:(Array.to_list (Netlist.outputs nl))
      in
      let rnl = r.Slice.rnl in
      let sim = Seq_sim.create ~init:Logic4.L0 nl in
      let rsim = Seq_sim.create ~init:Logic4.L0 rnl in
      let ok = ref true in
      for _cycle = 0 to 5 do
        (* same named input gets the same value in both machines *)
        Array.iter
          (fun i ->
            let v =
              if Netlist.has_role nl i Netlist.Reset then Logic4.L1
              else if Random.State.bool rng then Logic4.L1
              else Logic4.L0
            in
            Seq_sim.set_input sim i v;
            match Netlist.name nl i with
            | Some n when Netlist.find rnl n <> None ->
              Seq_sim.set_input_name rsim n v
            | _ -> ())
          (Netlist.inputs nl);
        Seq_sim.settle sim;
        Seq_sim.settle rsim;
        Array.iter
          (fun o ->
            match Netlist.name rnl o with
            | Some n ->
              if Seq_sim.value_name sim n <> Seq_sim.value_name rsim n then
                ok := false
            | None -> ())
          (Netlist.outputs rnl);
        Seq_sim.step sim;
        Seq_sim.step rsim
      done;
      !ok)

(* per-flop SEU verdicts on the slice match the full-machine encoding *)
let prop_seu_sliced_equiv =
  QCheck2.Test.make ~count:10 ~name:"sliced SEU = full SEU"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist rng ~inputs:3 ~gates:12 ~flops:4
      in
      let full = Olfu_safety.Seu.run ~window:3 ~jobs:1 ~sliced:false nl in
      let sliced = Olfu_safety.Seu.run ~window:3 ~jobs:1 ~sliced:true nl in
      Array.for_all2
        (fun (a : Olfu_safety.Seu.ff_result) (b : Olfu_safety.Seu.ff_result) ->
          a.Olfu_safety.Seu.ff = b.Olfu_safety.Seu.ff
          && a.Olfu_safety.Seu.cls = b.Olfu_safety.Seu.cls
          && a.Olfu_safety.Seu.structural = b.Olfu_safety.Seu.structural)
        full.Olfu_safety.Seu.results sliced.Olfu_safety.Seu.results)

(* --- one-sweep kernels against their per-flop definitions --- *)

(* The reference is the definition itself: one backward DFS from each
   flop's (and each output marker's) live fanins, stopping at constant
   nets, flops, primary inputs and ties; a decided mux select or scan
   enable makes the un-selected pin unreadable. *)
let ref_dead_pin consts nl d =
  let fi = Netlist.fanin nl d in
  match Netlist.kind nl d with
  | Cell.Mux2 -> (
      match consts.(fi.(0)) with Logic4.L0 -> 2 | Logic4.L1 -> 1 | _ -> -1)
  | Cell.Sdff | Cell.Sdffr -> (
      match consts.(fi.(2)) with Logic4.L0 -> 1 | Logic4.L1 -> 0 | _ -> -1)
  | _ -> -1

let ref_live_fanins consts nl d =
  let dead = ref_dead_pin consts nl d in
  Array.to_list (Netlist.fanin nl d) |> List.filteri (fun p _ -> p <> dead)

let ref_cone nl ford consts seeds =
  let seen = Array.make (Netlist.length nl) false in
  let sup = ref [] and ins = ref [] in
  let rec visit e =
    if not seen.(e) then begin
      seen.(e) <- true;
      if not (Logic4.is_binary consts.(e)) then
        match Netlist.kind nl e with
        | k when Cell.is_seq k -> sup := ford.(e) :: !sup
        | Cell.Input -> ins := e :: !ins
        | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> ()
        | _ -> List.iter visit (ref_live_fanins consts nl e)
    end
  in
  List.iter visit seeds;
  let norm l = Array.of_list (List.sort_uniq compare l) in
  (norm !sup, norm !ins)

let ref_edges (g : Slice.t) consts =
  let nl = g.Slice.nl in
  let cone d = ref_cone nl g.Slice.ford consts (ref_live_fanins consts nl d) in
  let per_flop = Array.map cone g.Slice.flops in
  let supports = Array.map fst per_flop in
  let nf = Array.length supports in
  {
    Slice.supports;
    consumers =
      (let cons = Array.make nf [] in
       Array.iteri
         (fun k sup -> Array.iter (fun s -> cons.(s) <- k :: cons.(s)) sup)
         supports;
       Array.map (fun l -> Array.of_list (List.sort compare l)) cons);
    in_deps = Array.map snd per_flop;
    out_deps = Array.map (fun o -> (o, fst (cone o))) (Netlist.outputs nl);
  }

(* per-flop backward closure over [supports], counted *)
let ref_backward_sizes (e : Slice.edges) =
  Array.mapi
    (fun k _ ->
      let mark = Array.make (Array.length e.Slice.supports) false in
      let rec go v =
        if not mark.(v) then begin
          mark.(v) <- true;
          Array.iter go e.Slice.supports.(v)
        end
      in
      go k;
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 mark)
    e.Slice.supports

(* first disagreement between the graph and the references, if any *)
let edges_mismatch (g : Slice.t) =
  let xs = Array.make (Netlist.length g.Slice.nl) Logic4.X in
  List.find_map
    (fun (label, e, consts) ->
      let r = ref_edges g consts in
      let field name a b = if a = b then None else Some (label ^ " " ^ name) in
      List.find_map Fun.id
        [
          field "supports" e.Slice.supports r.Slice.supports;
          field "consumers" e.Slice.consumers r.Slice.consumers;
          field "in_deps" e.Slice.in_deps r.Slice.in_deps;
          field "out_deps" e.Slice.out_deps r.Slice.out_deps;
          field "backward_sizes"
            (Slice.backward_sizes g e)
            (ref_backward_sizes r);
        ])
    [
      ("structural", g.Slice.structural, xs);
      ("hard", g.Slice.hard_edges, g.Slice.hard);
      ("mission", g.Slice.mission_edges, g.Slice.mission);
    ]

(* random mission constants on the non-reset inputs *)
let random_assume rng nl =
  Array.to_list (Netlist.inputs nl)
  |> List.filter_map (fun i ->
         if Netlist.has_role nl i Netlist.Reset then None
         else
           match Random.State.int rng 3 with
           | 0 -> Some (i, Logic4.L0)
           | 1 -> Some (i, Logic4.L1)
           | _ -> None)

let prop_edges_oracle =
  QCheck2.Test.make ~count:200 ~name:"one-sweep edges and sizes = per-flop"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl =
        Test_support.random_seq_netlist rng
          ~inputs:(2 + Random.State.int rng 4)
          ~gates:(5 + Random.State.int rng 40)
          ~flops:(1 + Random.State.int rng 8)
      in
      let g = Slice.build ~assume:(random_assume rng nl) nl in
      match edges_mismatch g with
      | None -> true
      | Some what -> QCheck2.Test.fail_reportf "seed %d: %s" seed what)

(* a generated core as the BMC machine (scan enable tied: Sdff
   severing; debug muxes severed in mission), and optionally raw, as
   lint sees it *)
let check_core_edges ?(raw = false) cfg () =
  let nl = Olfu_soc.Soc.generate cfg in
  List.iter
    (fun nl ->
      Alcotest.(check (option string))
        "edges and sizes match the per-flop reference" None
        (edges_mismatch (Slice.build nl)))
    (Olfu_safety.Classify.bmc_machine nl :: (if raw then [ nl ] else []))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "slice"
    [
      ( "severing",
        [
          Alcotest.test_case "scan cell" `Quick test_scan_severing;
          Alcotest.test_case "debug mux" `Quick test_mux_severing;
        ] );
      ( "kernels",
        [
          qt prop_edges_oracle;
          Alcotest.test_case "tcore16" `Quick
            (check_core_edges ~raw:true Olfu_soc.Soc.tcore16);
          Alcotest.test_case "tcore32" `Slow
            (check_core_edges Olfu_soc.Soc.tcore32);
          Alcotest.test_case "tcore32_dft" `Slow
            (check_core_edges Olfu_soc.Soc.tcore32_dft);
        ] );
      ( "machine",
        [
          Alcotest.test_case "backward" `Quick test_backward_machine;
          Alcotest.test_case "memoized" `Quick test_get_memoized;
          Alcotest.test_case "scc ring" `Quick test_scc_ring;
          Alcotest.test_case "forward" `Quick test_forward_isolates;
          qt prop_backward_sim_equiv;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "redundant comb" `Quick test_oracle_redundant;
          Alcotest.test_case "scan cell" `Quick test_oracle_scan_cell;
          qt prop_oracle_equiv;
          qt prop_seu_sliced_equiv;
        ] );
    ]
