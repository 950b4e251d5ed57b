module Q = Aggshap_arith.Rational
module C = Aggshap_arith.Combinat
module Database = Aggshap_relational.Database

type sum_k_fn =
  Aggshap_agg.Agg_query.t -> Database.t -> Q.t array

(* A Shapley-like score is determined by coefficients p(n, k) weighting
   the marginal contribution over coalitions of size k out of n players
   (Karmakar et al. 2024). All sum_k-based algorithms support any such
   score, as observed in Section 3.2 of the paper. *)
type coefficients = players:int -> before:int -> Q.t

let shapley_coefficients : coefficients = C.shapley_coefficient

let banzhaf_coefficients : coefficients =
 fun ~players ~before:_ ->
  Q.inv (Q.of_bigint (Aggshap_arith.Bigint.pow Aggshap_arith.Bigint.two (players - 1)))

module B = Aggshap_arith.Bigint

(* The Shapley dot product in common-denominator form: the weight of
   size [k] is the integer [k! (n-k-1)!] over the shared denominator
   [n!], and the sum_k entries are lifted over the lcm of their
   denominators, so the whole sum is one integer multiply-accumulate
   pass with a single normalization at the end — instead of reducing a
   factorial-scale rational per coalition size. *)
let shapley_of_vectors_int ~players with_f without_f =
  let l = Array.fold_left Q.den_lcm B.one with_f in
  let l = Array.fold_left Q.den_lcm l without_f in
  let lift q =
    if Q.is_zero q then B.zero
    else if B.is_one l then Q.num q
    else B.mul (Q.num q) (B.div l (Q.den q))
  in
  let weights = C.shapley_weights players in
  let acc = B.Acc.create () in
  for k = 0 to players - 1 do
    let diff = B.sub (lift with_f.(k)) (lift without_f.(k)) in
    if not (B.is_zero diff) then B.Acc.add_mul acc weights.(k) diff
  done;
  Q.make (B.Acc.value acc) (B.mul (C.factorial players) l)

let score_of_vectors ?coefficients ~players with_f without_f =
  if Array.length with_f <> players || Array.length without_f <> players then
    invalid_arg "Sumk: sum_k vector has the wrong length";
  match coefficients with
  | None -> shapley_of_vectors_int ~players with_f without_f
  | Some coefficients ->
    let acc = ref Q.zero in
    for k = 0 to players - 1 do
      let diff = Q.sub with_f.(k) without_f.(k) in
      if not (Q.is_zero diff) then
        acc := Q.add !acc (Q.mul (coefficients ~players ~before:k) diff)
    done;
    !acc

let score_of_db_fn ?coefficients sum_k db f =
  (match Database.provenance db f with
   | Some Database.Endogenous -> ()
   | _ -> invalid_arg "Sumk: fact must be endogenous");
  let n = Database.endo_size db in
  let with_f = sum_k (Database.set_provenance Database.Exogenous f db) in
  let without_f = sum_k (Database.remove f db) in
  score_of_vectors ?coefficients ~players:n with_f without_f

let shapley_of_db_fn sum_k db f = score_of_db_fn sum_k db f

let score_of ?coefficients sum_k a db f =
  score_of_db_fn ?coefficients (fun db -> sum_k a db) db f

let shapley_of sum_k a db f = score_of sum_k a db f

let banzhaf_of sum_k a db f =
  score_of ~coefficients:banzhaf_coefficients sum_k a db f

let shapley_all_of sum_k a db =
  List.map (fun f -> (f, shapley_of sum_k a db f)) (Database.endogenous db)
