(* Order statistics for the benchmark, kept inside perf/ so that moving
   or changing the repository's own percentile helper cannot change what
   the benchmark reports.

   Two conventions live here on purpose:
   - latency samples use the nearest-rank percentile (no interpolation:
     every reported latency is one that was measured);
   - summaries over a set of runs use the median and quartiles of
     Python's [statistics.median] / [statistics.quantiles(n=4)]
     (exclusive method), the definition the acceptance rule for run
     spreads is written in. *)

let sort xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* One-based rank ceil(p·n), clamped into the array. The epsilon keeps
   p·n from rounding up past an exact integer (0.99 · 1000 must be
   rank 990, not 991). *)
let rank n p = max 1 (min n (int_of_float (ceil ((p *. float_of_int n) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then None else Some sorted.(rank n p - 1)

(* The percentiles a run may report a tail at, highest first. *)
let tail_ladder = [ 0.9999; 0.999; 0.99; 0.95; 0.9; 0.5 ]

let samples_beyond n p = n - rank n p

let tail_percentile n = List.find_opt (fun p -> samples_beyond n p >= 10) tail_ladder

let median sorted =
  let n = Array.length sorted in
  if n = 0 then None
  else if n mod 2 = 1 then Some sorted.(n / 2)
  else Some ((sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0)

let quartiles sorted =
  let n = Array.length sorted in
  if n = 0 then None
  else if n = 1 then Some (sorted.(0), sorted.(0), sorted.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((sorted.(j - 1) *. float_of_int (4 - delta)) +. (sorted.(j) *. float_of_int delta))
      /. 4.0
    in
    Some (q 1, q 2, q 3)

let mean xs =
  match xs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))
