module Q = Aggshap_arith.Rational
module B = Aggshap_arith.Bigint
module Score = Aggshap_arith.Score
module Database = Aggshap_relational.Database

type sum_k_fn =
  Aggshap_agg.Agg_query.t -> Database.t -> Q.t array

(* The fact's slice is sum_k(F) − sum_k(G), entry by entry: the entries
   are lifted over the lcm of their denominators, so the slice is an
   integer vector and the score one finishing pass with a single
   normalization — instead of reducing a factorial-scale rational per
   coalition size. *)
let score_of_vectors ~score ~players with_f without_f =
  if Array.length with_f <> players || Array.length without_f <> players then
    invalid_arg "Sumk: sum_k vector has the wrong length";
  let l = Array.fold_left Q.den_lcm B.one with_f in
  let l = Array.fold_left Q.den_lcm l without_f in
  let lift q =
    if Q.is_zero q then B.zero
    else if B.is_one l then Q.num q
    else B.mul (Q.num q) (B.div l (Q.den q))
  in
  Score.finish score ~den:l ~n:players (fun k ->
      B.sub (lift with_f.(k)) (lift without_f.(k)))

let score_of_db_fn ~score sum_k db f =
  (match Database.provenance db f with
   | Some Database.Endogenous -> ()
   | _ -> invalid_arg "Sumk: fact must be endogenous");
  let n = Database.endo_size db in
  let with_f = sum_k (Database.set_provenance Database.Exogenous f db) in
  let without_f = sum_k (Database.remove f db) in
  score_of_vectors ~score ~players:n with_f without_f

let shapley_all_of sum_k a db =
  List.map
    (fun f -> (f, score_of_db_fn ~score:Score.Shapley (sum_k a) db f))
    (Database.endogenous db)

let in_order db scores =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (f, v) ->
      Hashtbl.replace acc f
        (match Hashtbl.find_opt acc f with Some u -> Q.add u v | None -> v))
    scores;
  List.map
    (fun f -> (f, Option.value (Hashtbl.find_opt acc f) ~default:Q.zero))
    (Database.endogenous db)
