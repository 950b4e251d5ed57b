(* Shapley-like scores and the one finisher every exact route hands its
   per-size counts to. A route reduces player p of an n-player game to
   its slice Δ_p(k) = Σ_(|S|=k, p∉S) (u(S∪{p}) − u(S)), k = 0 … n−1,
   as integers over a common denominator; a score is then one dot
   product of the slice with per-size weights over a shared scale:

     Shapley   Σ_k k!(n−k−1)!·Δ_p(k) / n!
     Banzhaf   Σ_k Δ_p(k) / 2ⁿ⁻¹

   The sum runs in one multiply-accumulate pass, skipping zero entries,
   and is normalised once. *)

module B = Bigint

type t = Shapley | Banzhaf

let finish score ~den ~n slice =
  if n < 1 then invalid_arg "Score.finish: empty slice";
  let acc = B.Acc.create () in
  let scale =
    match score with
    | Shapley ->
      let weights = Combinat.shapley_weights n in
      for k = 0 to n - 1 do
        let d = slice k in
        if not (B.is_zero d) then B.Acc.add_mul acc weights.(k) d
      done;
      Combinat.factorial n
    | Banzhaf ->
      for k = 0 to n - 1 do
        let d = slice k in
        if not (B.is_zero d) then B.Acc.add acc d
      done;
      B.pow B.two (n - 1)
  in
  Rational.make (B.Acc.value acc) (if B.is_one den then scale else B.mul scale den)
