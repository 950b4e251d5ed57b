module Q = Aggshap_arith.Rational
module B = Aggshap_arith.Bigint
module C = Aggshap_arith.Combinat
module Score = Aggshap_arith.Score

type t = {
  n : int;
  utility : int -> Q.t;
}

let max_players = 24

let make ~n utility =
  if n < 0 || n > max_players then
    invalid_arg
      (Printf.sprintf "Game.make: %d players (the exact game solver handles at most %d)" n
         max_players);
  let cache = Hashtbl.create 1024 in
  let memo mask =
    match Hashtbl.find_opt cache mask with
    | Some v -> v
    | None ->
      let v = utility mask in
      Hashtbl.add cache mask v;
      v
  in
  { n; utility = memo }

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let shapley g p =
  if p < 0 || p >= g.n then invalid_arg "Game.shapley: no such player";
  let bit = 1 lsl p in
  let acc = ref Q.zero in
  for mask = 0 to (1 lsl g.n) - 1 do
    if mask land bit = 0 then begin
      let k = popcount mask in
      let marginal = Q.sub (g.utility (mask lor bit)) (g.utility mask) in
      if not (Q.is_zero marginal) then
        acc := Q.add !acc (Q.mul (C.shapley_coefficient ~players:g.n ~before:k) marginal)
    end
  done;
  !acc

let shapley_all g = Array.init g.n (shapley g)

(* Regroup the marginal contributions by coalition size. With
   u(S) = L·v(S) over the common denominator L of all 2ⁿ utilities,
   in_p(s) the sum of u over the size-s coalitions holding p and tot(s)
   the sum over all size-s coalitions, player p's slice is

     L·Δ_p(k) = in_p(k+1) − (tot(k) − in_p(k)),   k = 0 … n−1.

   The coalition pass only adds integers; each player then costs n
   subtractions and one finishing pass. *)
let shapley_all_int ~score g =
  let n = g.n in
  if n = 0 then [||]
  else begin
    let values = Array.init (1 lsl n) g.utility in
    let l = Array.fold_left Q.den_lcm B.one values in
    let tot = Array.make (n + 1) B.zero in
    let inp = Array.make_matrix n (n + 1) B.zero in
    Array.iteri
      (fun mask v ->
        if not (Q.is_zero v) then begin
          let u = if B.is_one l then Q.num v else B.mul (Q.num v) (B.div l (Q.den v)) in
          let s = popcount mask in
          tot.(s) <- B.add tot.(s) u;
          for p = 0 to n - 1 do
            if mask land (1 lsl p) <> 0 then inp.(p).(s) <- B.add inp.(p).(s) u
          done
        end)
      values;
    Array.map
      (fun in_p ->
        Score.finish score ~den:l ~n (fun k ->
            B.add in_p.(k + 1) (B.sub in_p.(k) tot.(k))))
      inp
  end

let banzhaf g p =
  if p < 0 || p >= g.n then invalid_arg "Game.banzhaf: no such player";
  let bit = 1 lsl p in
  let acc = ref Q.zero in
  for mask = 0 to (1 lsl g.n) - 1 do
    if mask land bit = 0 then
      acc := Q.add !acc (Q.sub (g.utility (mask lor bit)) (g.utility mask))
  done;
  Q.div (!acc) (Q.of_bigint (Aggshap_arith.Bigint.pow Aggshap_arith.Bigint.two (g.n - 1)))

let efficiency_gap g =
  let grand = g.utility ((1 lsl g.n) - 1) in
  let empty = g.utility 0 in
  let sum = Array.fold_left Q.add Q.zero (shapley_all g) in
  Q.sub (Q.sub grand empty) sum
