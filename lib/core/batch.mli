(** Batch Shapley evaluation: all endogenous facts of one aggregate
    query in one solve.

    The per-fact algorithms rerun the full Figure-2 dynamic program
    twice for every fact, yet a fact only perturbs the hierarchy block
    it lives in: sibling sub-trees produce identical tables across the
    whole per-fact loop (Livshits et al. make the same observation for
    Boolean CQs, and the experimental follow-up work shows all-facts
    batches are the workload that matters). Every family therefore
    solves all facts from one variant pass per dynamic program
    ({!Engine.Pass}): each fact pays only the nodes on its own path,
    and at a root partition its block's siblings collapse to one kernel
    per table key. No table outlives the solve: an incremental session
    ({!Aggshap_incr.Session}) re-solves its Min/Max, Count-distinct,
    Avg/Quantile and Has-duplicates reads through {!shapley_all}.

    Results are bit-identical to the sequential per-fact path: every
    value is an exact rational. *)

type stats = {
  cache : Memo.stats option;
      (** always [None]: no table cache is kept. Kept for the benchmark
          in [perf/], which reads it (ROADMAP item 9). *)
}

val shapley_all :
  ?score:Aggshap_arith.Score.t ->
  ?jobs:int ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list * stats
(** [shapley_all ?score a db] computes the exact Shapley value (or
    [score], default Shapley) of every endogenous fact, in
    [Database.endogenous] order, in the calling domain. [jobs] is
    ignored: a frontier solve does not split across domains.
    @raise Invalid_argument if the query is outside the aggregate's
    tractability frontier (use {!Solver.shapley_all} for fallbacks). *)

val map :
  ?jobs:int ->
  ('a -> 'b) ->
  'a list ->
  ('a * 'b) list
(** Domain-parallel tagged map with deterministic ordering — the
    building block {!Solver} uses to fan Monte-Carlo sampling across
    cores. *)
