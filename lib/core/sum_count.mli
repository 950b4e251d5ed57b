(** Shapley values for Sum and Count over ∃-hierarchical CQs
    (Livshits et al.; positive side of Theorem 3.1).

    By linearity of the Shapley value, for [A = Sum ∘ τ ∘ Q]:

    {v Shapley(f, A) = Σ_{t ∈ Q(D)} τ(t) · Shapley(f, "t ∈ Q(·)") v}

    and each membership game ["t ∈ Q(·)"] is the Boolean game of the
    hierarchical CQ obtained by grounding the head variables of [Q] to
    [t], which {!Boolean_dp} solves. [Count] is [Sum] with τ ≡ 1 per
    answer. *)

val membership_games :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_cq.Cq.t * Aggshap_arith.Rational.t) list
(** The per-answer membership games with their τ-weights: one Boolean
    query (the head grounded to the answer tuple) per answer of non-zero
    weight, in deterministic answer order. The decomposition the
    incremental engine maintains game-by-game.
    @raise Invalid_argument if τ is not localized on the database. *)

val shapley :
  ?score:Aggshap_arith.Score.t ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
(** Shapley value (or [score], default Shapley: any Shapley-like score
    is linear in the utility, so the same decomposition holds).
    @raise Invalid_argument if the aggregate is not [Sum] or [Count], if
    the CQ is not ∃-hierarchical, or the fact is not endogenous. *)

val batch :
  ?score:Aggshap_arith.Score.t ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Every endogenous fact's score (default Shapley), in
    [Database.endogenous] order, from one Boolean variant pass per
    membership game ({!Boolean_dp.shapley_all}). Bit-identical to
    {!shapley} fact by fact. *)

val shapley_all :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
