module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact

let check (a : Agg_query.t) =
  (match a.alpha with
   | Aggregate.Count_distinct -> ()
   | other ->
     invalid_arg ("Cdist: aggregate " ^ Aggregate.to_string other ^ " is not count-distinct"));
  if not (Hierarchy.is_all_hierarchical a.query) then
    invalid_arg ("Cdist: query is not all-hierarchical: " ^ Cq.to_string a.query)

(* [D_a]: drop the τ-relation facts whose τ-value differs from [a]. *)
let restrict_to_value (a : Agg_query.t) db v =
  let rel = a.tau.Aggshap_agg.Value_fn.rel in
  Database.filter
    (fun (f : Fact.t) _ ->
      (not (String.equal f.rel rel)) || Q.equal (Agg_query.tau_of_fact a f) v)
    db

let distinct_values (a : Agg_query.t) db =
  List.sort_uniq Q.compare (List.map snd (Agg_query.answer_values a db))

type memo = Boolean_dp.memo

let create_memo = Boolean_dp.create_memo
let memo_stats = Boolean_dp.memo_stats

let check_endogenous db f =
  match Database.provenance db f with
  | Some Database.Endogenous -> ()
  | _ -> invalid_arg "Cdist.shapley: fact must be endogenous"

(* Null players may be dropped for both the Shapley and the Banzhaf
   score, so the per-value decomposition supports both. The restricted
   databases are built once, before the fact arrives. *)
let per_fact ?score (a : Agg_query.t) db =
  check a;
  let restricted = List.map (restrict_to_value a db) (distinct_values a db) in
  fun f ->
    check_endogenous db f;
    List.fold_left
      (fun acc db_v ->
        if Database.mem f db_v then Q.add acc (Boolean_dp.shapley ?score a.query db_v f)
        else acc)
      Q.zero restricted

let shapley ?score a db f = per_fact ?score a db f

(* One Boolean variant pass per value. *)
let batch ?score ?memo (a : Agg_query.t) db =
  check a;
  Sumk.in_order db
    (List.concat_map
       (fun v -> Boolean_dp.shapley_all ?score ?memo a.query (restrict_to_value a db v))
       (distinct_values a db))

let shapley_all a db =
  let per_fact = per_fact a db in
  List.map (fun f -> (f, per_fact f)) (Database.endogenous db)
