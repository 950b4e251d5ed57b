module Q = Aggshap_arith.Rational
module Score = Aggshap_arith.Score
module Hierarchy = Aggshap_cq.Hierarchy
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Database = Aggshap_relational.Database
module Lineage = Aggshap_lineage.Lineage
module Ddnnf = Aggshap_lineage.Ddnnf

type outcome =
  | Exact of Q.t
  | Estimate of Monte_carlo.estimate

type report = {
  cls : Hierarchy.cls;
  frontier : Hierarchy.cls;
  within_frontier : bool;
  algorithm : string;
}

let frontier = Frontier.frontier
let within_frontier = Frontier.within

let frontier_algorithm ~score (a : Agg_query.t) db f =
  match a.alpha with
  | Aggregate.Sum | Aggregate.Count -> Sum_count.shapley ~score a db f
  | Aggregate.Count_distinct -> Cdist.shapley ~score a db f
  | Aggregate.Min | Aggregate.Max -> Minmax.shapley ~score a db f
  | Aggregate.Avg | Aggregate.Median | Aggregate.Quantile _ ->
    Avg_quantile.shapley ~score a db f
  | Aggregate.Has_duplicates -> Dup.shapley ~score a db f

let make_report (a : Agg_query.t) algorithm =
  let cls = Hierarchy.classify a.query in
  let front = frontier a.alpha in
  { cls; frontier = front; within_frontier = Hierarchy.cls_leq cls front; algorithm }

(* All dispatch goes through the solve planner ({!Strategy}): it owns
   the route enumeration, the cost model, the algorithm names and the
   degradation ladder; this module only executes the routes. *)
let report ?fallback ?stats ?kc_node_budget (a : Agg_query.t) =
  let p = Strategy.plan ?stats ?kc_node_budget ?fallback a in
  make_report a p.Strategy.algorithm

let frontier_error (a : Agg_query.t) =
  invalid_arg
    (Printf.sprintf
       "Solver.shapley: %s is outside the tractability frontier (%s) of %s"
       (Aggshap_cq.Cq.to_string a.query)
       (Hierarchy.cls_to_string (frontier a.alpha))
       (Aggregate.to_string a.alpha))

(* The plan of one solve. Permutation sampling estimates Shapley values
   only, so a Banzhaf request the plan would answer by sampling is
   refused here, before any work. *)
let plan ~score ?fallback ?kc_node_budget (a : Agg_query.t) db =
  let p =
    Strategy.plan ~stats:(Strategy.db_stats db) ?kc_node_budget ?fallback a
  in
  (match (score, p.Strategy.chosen) with
   | Score.Banzhaf, Strategy.Monte_carlo _ ->
     invalid_arg
       "Solver.shapley: Monte-Carlo sampling estimates Shapley values only; \
        the Banzhaf score needs an exact fallback"
   | _ -> ());
  p

(* Execute one rung for a single fact. *)
let run_route ?mc_seed ?kc_node_budget ~score (a : Agg_query.t) db f = function
  | Strategy.Frontier_dp -> Exact (frontier_algorithm ~score a db f)
  | Strategy.Knowledge_compilation ->
    Exact (Lineage.shapley ~score ?budget:kc_node_budget a db f)
  | Strategy.Naive -> Exact (Naive.shapley ~score a db f)
  | Strategy.Monte_carlo samples ->
    Estimate (Monte_carlo.shapley ?seed:mc_seed ~samples a db f)
  | Strategy.Fail -> frontier_error a

(* Walk the plan's degradation ladder: a rung aborting on the d-DNNF
   node budget falls to the next one (the knowledge-compilation
   analogue of the int tier's abort-and-retry in Tables.convolve).
   The report names the rung that actually answered. *)
let run_ladder (p : Strategy.plan) a exec =
  let rec go aborted = function
    | [] -> frontier_error a
    | route :: rest -> (
      match exec route with
      | result ->
        let algorithm =
          if aborted then Strategy.degraded_name a route else p.Strategy.algorithm
        in
        (result, make_report a algorithm)
      | exception Ddnnf.Budget_exceeded -> go true rest)
  in
  go false p.Strategy.ladder

let shapley ?(score = Score.Shapley) ?fallback ?mc_seed ?kc_node_budget
    (a : Agg_query.t) db f =
  let p = plan ~score ?fallback ?kc_node_budget a db in
  run_ladder p a (fun route ->
      run_route ?mc_seed ?kc_node_budget ~score a db f route)

let shapley_exact a db f =
  match shapley ~fallback:`Naive a db f with
  | Exact v, _ -> v
  | Estimate _, _ -> assert false

(* Derive a distinct, deterministic Monte-Carlo seed for the [i]-th fact
   of a batch, so that seeded [mc:] runs are reproducible for every
   [jobs] setting (the pool preserves input order). *)
let per_fact_seed mc_seed i =
  Option.map (fun s -> s + ((i + 1) * 0x9e3779b9)) mc_seed

let shapley_all ?(score = Score.Shapley) ?fallback ?mc_seed ?jobs ?(cache = true)
    ?kc_node_budget (a : Agg_query.t) db =
  let p = plan ~score ?fallback ?kc_node_budget a db in
  (* [`Fail] must raise before any worker domain is spawned: letting
     the pool fan out and every worker raise mid-batch reported the
     algorithm as "none" while workers died one by one. *)
  if p.Strategy.chosen = Strategy.Fail then frontier_error a;
  let run_batch = function
    | Strategy.Frontier_dp ->
      let results, _stats = Batch.shapley_all ~score ?jobs ~cache a db in
      List.map (fun (f, v) -> (f, Exact v)) results
    | Strategy.Knowledge_compilation ->
      (* One extraction + one compilation serve every fact, so the
         batch runs in the calling domain instead of fanning out. *)
      List.map
        (fun (f, v) -> (f, Exact v))
        (Lineage.shapley_all ~score ?budget:kc_node_budget a db)
    | Strategy.Fail -> frontier_error a
    | Strategy.Naive ->
      (* One game serves every fact, in the calling domain: its 2ⁿ
         utilities are evaluated once and summed in integers. *)
      let players, g = Naive.game a db in
      let values = Game.shapley_all_int ~score g in
      Array.to_list (Array.mapi (fun i f -> (f, Exact values.(i))) players)
    | Strategy.Monte_carlo _ as route ->
      let indexed = List.mapi (fun i f -> (i, f)) (Database.endogenous db) in
      Batch.map ?jobs
        (fun (i, f) ->
          run_route ?mc_seed:(per_fact_seed mc_seed i) ?kc_node_budget ~score a
            db f route)
        indexed
      |> List.map (fun ((_, f), o) -> (f, o))
  in
  run_ladder p a run_batch
