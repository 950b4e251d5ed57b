(** Shapley values for count-distinct over all-hierarchical CQs
    (Theorem 4.1 via Lemma 4.3).

    CDist is the sum of the per-value indicator games: writing [D_a] for
    the database where the τ-relation keeps only its facts of τ-value
    [a],

    {v Shapley(f, CDist∘τ∘Q)[D] = Σ_{a ∈ (τ∘Q)(D)} Shapley(f, Q_bool)[D_a] v}

    with the convention that the summand is 0 when [f ∉ D_a]. Each
    summand is a Boolean hierarchical membership game. *)

val shapley :
  ?score:Aggshap_arith.Score.t ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
(** Shapley value (or [score], default Shapley: both are invariant
    under null-player removal, which the per-value games rely on).
    @raise Invalid_argument if the aggregate is not [Count_distinct], the
    CQ is not all-hierarchical, or the fact is not endogenous. *)

val batch :
  ?score:Aggshap_arith.Score.t ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Every endogenous fact's score (default Shapley), in
    [Database.endogenous] order, from one Boolean variant pass per
    τ-value ({!Boolean_dp.shapley_all}). Bit-identical to {!shapley}
    fact by fact. *)

val shapley_all :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
