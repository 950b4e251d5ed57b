(** From [sum_k] vectors to Shapley-like scores (Section 3.2).

    Every exact algorithm in this library produces, for a database [D],
    the vector [sum_k(A, D) = Σ_{E ∈ (Dⁿ choose k)} A(Dˣ ∪ E)]. The
    folklore identity then gives the slice of a fact [f]
    ({!Aggshap_arith.Score}):

    {v Δ_f(k) = sum_k(A, F) − sum_k(A, G),   k = 0 … n−1 v}

    where [n = |Dⁿ|], [F] is [D] with [f] made exogenous and [G] is [D]
    without [f]; the Shapley value is [Σ_k q_k · Δ_f(k)] and the
    Banzhaf value [Σ_k Δ_f(k) / 2ⁿ⁻¹]. Because only differences are
    used, any constant offset (such as the [−A(Dˣ)] in the game
    definition) cancels. *)

type sum_k_fn =
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_arith.Rational.t array
(** Must return an array of length [endo_size db + 1]. *)

val score_of_db_fn :
  score:Aggshap_arith.Score.t ->
  (Aggshap_relational.Database.t -> Aggshap_arith.Rational.t array) ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
(** The score of an endogenous fact from a [sum_k] function closed over
    its query.
    @raise Invalid_argument if the fact is not endogenous. *)

val shapley_all_of :
  sum_k_fn ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Every endogenous fact's Shapley value, in [Database.endogenous]
    order. *)

val in_order :
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Every endogenous fact of the database in [Database.endogenous]
    order, with the sum of its scores in the list (0 when absent): the
    results of an all-facts solve whose parts (membership games,
    values, groups) each list their non-null players. *)
