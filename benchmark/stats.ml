(* Order statistics over measured samples. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile [p] (0 < p <= 100) of a non-empty sorted array. *)
let percentile a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1)))

(* The tail is the workload's own percentile [want], one of p99, p90 and
   p50: the highest that has at least ten samples beyond it at the
   workload's usual sample count (p99 from 1000 samples, p90 from 100,
   p50 from 20).  A run too short for it falls back to the highest lower
   one that has.  It is fixed per workload because a fast host completes
   more samples, and a higher percentile chosen from the count would
   jump between runs.  With fewer than 20 samples the tail is the
   maximum.  Returns (value, percentile, samples beyond). *)
let tail ~want xs =
  let a = sorted xs in
  let n = Array.length a in
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float n)) in
  match List.filter (fun p -> p <= want && beyond p >= 10) [ 99.; 90.; 50. ] with
  | p :: _ -> (percentile a p, p, beyond p)
  | [] when n > 0 -> (a.(n - 1), 100., 0)
  | [] -> (nan, 100., 0)

let sum xs = List.fold_left ( +. ) 0. xs
