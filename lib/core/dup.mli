(** Shapley values for has-duplicates (Dup) over sq-hierarchical CQs
    (Theorem 6.1 and Appendix E.2).

    The computation works with NoDup = 1 − Dup. For a {e connected}
    sq-hierarchical CQ every free variable occurs in every atom, so each
    fact determines the (unique) answer it can contribute to, and hence a
    τ-value class; the answer bag is duplicate-free iff every class
    produces at most one answer, counted with the [P⁰]/[P¹] tables of
    {!Count_dp} and combined by the dynamic program of Figure 5. A
    disconnected CQ [Q₁ × Q₂] (τ in [Q₁]) has duplicates iff [Q₁] is
    nonempty and [Q₂] has ≥ 2 answers, or [Q₁] has duplicates and [Q₂]
    exactly one (Appendix E.2.3). *)

type memo
(** Shared cache of Dup tables and answer-count sub-tables; see {!Memo}.
    Create one per session over a fixed [(query, τ)]. *)

val create_memo : unit -> memo
val memo_stats : memo -> Memo.stats

val sum_k :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_arith.Rational.t array
(** @raise Invalid_argument if the aggregate is not [Has_duplicates] or
    the CQ is not sq-hierarchical. *)

val shapley :
  ?score:Aggshap_arith.Score.t ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
(** Shapley value (or [score], default Shapley) of an endogenous fact,
    by the per-fact reduction of {!Sumk}. *)

val batch :
  ?score:Aggshap_arith.Score.t ->
  ?memo:memo ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Every endogenous fact's score (default Shapley), in
    [Database.endogenous] order, from one variant pass: a fact pays its
    own τ-value class's answer-count variants ({!Count_dp.variants}),
    and the other classes collapse to one product. Bit-identical to
    {!shapley} fact by fact. *)

val shapley_all :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
