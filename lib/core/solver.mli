(** Front door of the library: classify the query, let the solve
    planner ({!Strategy}) pick the route, and report which side of the
    tractability frontier the instance fell on — Figure 1 of the paper,
    operationally.

    For each aggregate function the {e frontier} is the class of CQs
    (without self-joins) for which the Shapley value is computable in
    polynomial time for every localized value function:

    - Sum, Count → ∃-hierarchical (Livshits et al.; Theorem 3.1),
    - Min, Max, CDist → all-hierarchical (Theorem 4.1),
    - Avg, Median, Quantile → q-hierarchical (Theorem 5.1),
    - Has-duplicates → sq-hierarchical (Theorem 6.1).

    Outside the frontier the {!Strategy.fallback} request decides:
    knowledge compilation (exact, via {!Aggshap_lineage}: lineage →
    d-DNNF → weighted model counting), exact enumeration (always
    exponential), Monte-Carlo estimation, [`Fail], or [`Auto] — the
    planner picks the cheapest applicable exact tier under its cost
    model. Execution walks the plan's degradation ladder: a
    knowledge-compilation run aborting on its d-DNNF node budget falls
    to the next rung instead of failing.

    The score is an argument of this one path. Section 3.2's
    observation that every [sum_k]-based algorithm computes any
    Shapley-like score holds for every exact route, each of which hands
    its per-size counts to {!Aggshap_arith.Score.finish}. A Banzhaf
    request therefore walks the same plan and ladder and gets
    the same report; only Monte-Carlo sampling, which estimates Shapley
    values, refuses it. *)

type outcome =
  | Exact of Aggshap_arith.Rational.t
  | Estimate of Monte_carlo.estimate

type report = {
  cls : Aggshap_cq.Hierarchy.cls;  (** classification of the CQ *)
  frontier : Aggshap_cq.Hierarchy.cls;  (** frontier class of the aggregate *)
  within_frontier : bool;
  algorithm : string;  (** human-readable name of the algorithm used *)
}

val frontier : Aggshap_agg.Aggregate.t -> Aggshap_cq.Hierarchy.cls

val within_frontier : Aggshap_agg.Aggregate.t -> Aggshap_cq.Cq.t -> bool
(** Is the Shapley value polynomial-time for this aggregate and CQ (for
    every localized τ)? *)

val shapley :
  ?score:Aggshap_arith.Score.t ->
  ?fallback:Strategy.fallback ->
  ?mc_seed:int ->
  ?kc_node_budget:int ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  outcome * report
(** Computes the Shapley value (or [score], default Shapley) of an
    endogenous fact. Within the frontier the matching polynomial
    algorithm runs; outside, the planner's choice for [fallback]
    (default [`Naive]) does. [`Knowledge_compilation] runs the exact
    lineage tier ({!Aggshap_lineage.Lineage}) for the
    event-decomposable aggregates (Sum, Count, CDist, Min, Max,
    Has-dup) and keeps the naive behaviour for the others; [`Auto] lets
    the planner pick the cheapest applicable exact tier — the report's
    [algorithm] string says which. [kc_node_budget] caps the d-DNNF
    node count: an aborted compilation falls down the plan's ladder
    (to naive enumeration) and the report says so. [mc_seed] makes a
    [`Monte_carlo] fallback reproducible (it is ignored by the exact
    paths).
    @raise Invalid_argument outside the frontier with [`Fail], for a
    Banzhaf [score] the plan would answer by Monte-Carlo sampling
    (before any work), or if the fact is not endogenous. *)

val shapley_exact :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
(** [shapley] with [`Naive] fallback, unwrapped. *)

val shapley_all :
  ?score:Aggshap_arith.Score.t ->
  ?fallback:Strategy.fallback ->
  ?mc_seed:int ->
  ?jobs:int ->
  ?kc_node_budget:int ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * outcome) list * report
(** Shapley values (or [score]s, default Shapley) of {e all}
    endogenous facts, in [Database.endogenous] order. Within the
    frontier this runs the {!Batch} engine: one variant pass per
    dynamic program, in the calling domain, with no table cache.
    Outside the frontier the planner's route runs; with [`Fail] the
    frontier error is raised up-front, before any worker domain is
    spawned, and so is the refusal of a Banzhaf [score] under a
    [`Monte_carlo] fallback. Only a [`Monte_carlo] fallback uses
    [jobs]: it fans its per-fact estimates over [jobs] domains (default
    {!Pool.default_jobs}[ ()]; [1] is fully sequential). [mc_seed]
    seeds it: each fact gets a distinct seed derived deterministically
    from [mc_seed] and its position, so estimates are reproducible for
    every [jobs] value. The exact routes run in the calling domain: a
    naive batch builds one game and evaluates each of its [2ⁿ]
    coalitions once for every fact ({!Game.shapley_all_int}); a
    supported [`Knowledge_compilation] (or auto-picked) batch does one
    extraction and one compilation for every fact, and if it aborts on
    [kc_node_budget] the batch re-runs on the ladder's next rung. Exact
    results are bit-identical for every [jobs] value and every exact
    route. *)
