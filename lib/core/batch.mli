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
    per table key. A one-shot solve keeps no table cache. A {!memo}
    ({!Memo}-backed, keyed by [(sub-query, block fingerprint)]) shares
    tables across the runs of one incremental session.

    Results are bit-identical to the sequential per-fact path: every
    value is an exact rational and a memo only reuses tables that would
    have been recomputed equal. *)

type stats = {
  cache : Memo.stats option;  (** the memo's totals; [None] without [?memo] *)
}

type memo
(** A DP-table cache that outlives a single batch run — the seam the
    incremental engine ({!Aggshap_incr.Session}) threads through every
    frontier DP family; create one per session. The underlying
    per-algorithm memos key tables on [(sub-query, block fingerprint)]
    only, so the memo is stamped with a fingerprint of the inputs
    {e outside} that key — the aggregate, the value function τ ([rel]
    and [descr]), and the query — and {!shapley_all} refuses a memo
    stamped for a different combination.
    Database updates need no flush: changed blocks change their
    fingerprint, so stale tables are simply never looked up. *)

val create_memo : Aggshap_agg.Agg_query.t -> memo
(** A fresh, empty memo for the query's aggregate family, stamped with
    the query's fingerprint. *)

val memo_stats : memo -> Memo.stats

val fingerprint_of : Aggshap_agg.Agg_query.t -> string
(** The stamp {!create_memo} records: aggregate, τ relation and
    description, and the canonical query string. Injective for the
    built-in value functions; custom value functions must pick
    distinguishing [descr]s for memo reuse to be sound. *)

val shapley_all :
  ?score:Aggshap_arith.Score.t ->
  ?jobs:int ->
  ?memo:memo ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list * stats
(** [shapley_all ?score ?memo a db] computes the exact Shapley value
    (or [score], default Shapley) of every endogenous fact, in
    [Database.endogenous] order, in the calling domain. [jobs] is
    ignored: a frontier solve does not split across domains. Without
    [?memo] nothing is cached; with it, tables are shared across
    {e runs} and [stats] reports the memo's totals.
    @raise Invalid_argument if the query is outside the aggregate's
    tractability frontier (use {!Solver.shapley_all} for fallbacks), or
    if [memo] was created for a different (aggregate, τ, query). *)

val map :
  ?jobs:int ->
  ('a -> 'b) ->
  'a list ->
  ('a * 'b) list
(** Domain-parallel tagged map with deterministic ordering — the
    building block {!Solver} uses to fan Monte-Carlo sampling across
    cores. *)
