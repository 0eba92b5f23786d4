(* The three workloads as request lists, and the seeded daemon plan.

   The seed only orders requests (and picks the format of each repeat);
   every run of a workload does the same multiset of work, so two seeds
   differ in interleaving, not in cost.  Why each workload exists is in
   README.md. *)

open Spec

let t32 = Config "tcore32"
let t16 = Config "tcore16"
let t16_file work = Filename.concat work "tcore16.v"

(* oneshot-t32: the combinational engines on the big core, jobs 1. *)
let oneshot_t32 =
  List.map (fun op -> { op; target = t32 }) [ Analyze; lint; implic ]

(* oneshot-t16-seq: Verilog front end, invariants, slicing,
   safety/SEU/BMC, SBST and the pool, jobs 2. *)
let oneshot_t16 ~work =
  let f = File (t16_file work) in
  [
    { op = Analyze; target = f };
    { op = lint; target = f };
    { op = invar; target = f };
    { op = Slice; target = f };
    { op = safety; target = t16 };
    { op = Coverage { sample = 50 }; target = t16 };
  ]

(* daemon-mix: answered once while priming, then repeated as cache
   reads in all three formats. *)
let daemon_base =
  [
    { op = Analyze; target = t32 };
    { op = implic; target = t32 };
    { op = Analyze; target = t16 };
    { op = Slice; target = t16 };
  ]

(* Fresh fingerprints per miss kind, cheapest first.  A run takes a
   prefix of each pool; none repeats a [daemon_base] request. *)
let miss_pools =
  let cross xs ys f = List.concat_map (fun x -> List.map (f x) ys) xs in
  [
    ( "safety",
      cross [ 8; 12; 16; 20; 24; 28; 32; 40 ] [ 2; 3 ] (fun seu_limit window ->
          { op = Safety { window; seu_limit }; target = t16 }) );
    ( "implic",
      cross [ 50_000; 100_000; 150_000; 250_000 ] [ 0; 1; 2; 3 ]
        (fun budget depth -> { op = Implic { depth; budget }; target = t32 }) );
    ( "lint",
      List.map
        (fun c -> { op = Lint [ c ]; target = t16 })
        [
          "SCAN-001"; "SCAN-002"; "SCAN-003"; "SCAN-004"; "SCAN-005";
          "SCAN-006"; "SCAN-007"; "LOOP-001"; "DRV-001"; "DRV-002";
          "RST-001"; "RST-002"; "RST-003"; "RST-004"; "RST-005"; "RST-006";
        ] );
    ( "invar",
      [
        { op = Invar { k = 1; no_prove = true }; target = t16 };
        { op = Invar { k = 1; no_prove = false }; target = t16 };
      ] );
  ]

let connections = 2
let hits_per_connection = 4000

(* Misses per pool: even, so both connections get the same share, and
   sized so the engine time fills about [seconds] on two workers. *)
let miss_rounds seconds = max 2 (min 16 (2 * (seconds / 3)))

(* Fisher-Yates under the run's seed. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

type item = Hit of Spec.t * Req.fmt | Miss of string * Spec.t

(* Each connection's closed-loop sequence.  Pools are dealt 0,1,1,0,...
   over variants ordered cheapest first, so the connections carry the
   same cost profile; the
   seed shuffles each sequence and picks every repeat's request and
   format. *)
let daemon_plan ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let rounds = miss_rounds seconds in
  let dealt = Array.make connections [] in
  List.iter
    (fun (kind, pool) ->
      List.iteri
        (fun i s ->
          let c = (i + (i / 2)) mod connections in
          if i < rounds then dealt.(c) <- Miss (kind, s) :: dealt.(c))
        pool)
    miss_pools;
  let base = Array.of_list daemon_base in
  let fmts = [| Req.Text; Req.Json; Req.Summary |] in
  Array.map
    (fun misses ->
      let hits =
        List.init hits_per_connection (fun _ ->
            let s = base.(Random.State.int rng (Array.length base)) in
            Hit (s, fmts.(Random.State.int rng (Array.length fmts))))
      in
      shuffle rng (misses @ hits))
    dealt

(* Every request whose JSON answer has a recorded reference digest. *)
let all_specs ~work =
  oneshot_t32 @ oneshot_t16 ~work @ daemon_base
  @ List.concat_map snd miss_pools

(* Position of [s] in {!all_specs}: how a replay child is told which
   request to replay. *)
let index ~work s =
  let rec find i = function
    | [] -> invalid_arg ("Plan.index: " ^ Spec.label s)
    | x :: r -> if x = s then i else find (i + 1) r
  in
  find 0 (all_specs ~work)
