(* Order statistics over timing samples.  Quartiles follow Python's
   [statistics.quantiles(data, n=4)] (the default "exclusive" method) so
   the spreads this benchmark reports are the ones a reader recomputes
   from the results file with the standard library. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [quantiles ~n xs]: the n-1 cut points, exclusive method. *)
let quantiles ?(n = 4) xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quantiles: no samples";
  if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

(* Interquartile distance as a share of the median: the spread figure
   the acceptance rule compares against each metric's bound. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then Float.infinity else (q3 -. q1) /. Float.abs m

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0. xs
      /. float_of_int (List.length xs))
