module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Database = Aggshap_relational.Database

let check (a : Agg_query.t) =
  (match a.alpha with
   | Aggregate.Sum | Aggregate.Count -> ()
   | other ->
     invalid_arg
       ("Sum_count: aggregate " ^ Aggregate.to_string other ^ " is not sum/count"));
  if not (Hierarchy.is_exists_hierarchical a.query) then
    invalid_arg
      ("Sum_count: query is not exists-hierarchical: " ^ Cq.to_string a.query)

(* Ground the head variables of [q] to the answer tuple [t]. *)
let membership_query q t =
  List.fold_left2
    (fun acc x v -> Cq.substitute acc x v)
    q q.Cq.head (Array.to_list t)

let weighted_answers (a : Agg_query.t) db =
  let answers = Agg_query.answer_values a db in
  match a.alpha with
  | Aggregate.Count -> List.map (fun (t, _) -> (t, Q.one)) answers
  | _ -> answers

(* The membership games, one per answer, with their weights — the part
   of the computation shared by every fact. *)
let membership_games (a : Agg_query.t) db =
  List.filter_map
    (fun (t, weight) ->
      if Q.is_zero weight then None
      else Some (membership_query a.query t, weight))
    (weighted_answers a db)

let per_fact ?score a db =
  check a;
  let games = membership_games a db in
  fun f ->
    List.fold_left
      (fun acc (mq, weight) -> Q.add acc (Q.mul weight (Boolean_dp.shapley ?score mq db f)))
      Q.zero games

let shapley ?score a db f = per_fact ?score a db f

(* One Boolean variant pass per membership game; a fact's score is the
   weighted sum over the games it plays in. *)
let batch ?score a db =
  check a;
  Sumk.in_order db
    (List.concat_map
       (fun (mq, weight) ->
         List.map
           (fun (f, v) -> (f, Q.mul weight v))
           (Boolean_dp.shapley_all ?score mq db))
       (membership_games a db))

let shapley_all a db =
  let per_fact = per_fact a db in
  List.map (fun f -> (f, per_fact f)) (Database.endogenous db)
