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

val score_of_vectors :
  score:Aggshap_arith.Score.t ->
  players:int ->
  Aggshap_arith.Rational.t array ->
  Aggshap_arith.Rational.t array ->
  Aggshap_arith.Rational.t
(** [score_of_vectors ~score ~players with_f without_f] finishes the
    slice of precomputed [sum_k] vectors of [D] with [f] exogenous and
    [D] without [f] ([players] is the endogenous count {e including}
    [f]; both vectors have that length) with [score]. The building
    block for batch workers that share table prefixes across facts.
    @raise Invalid_argument on a length mismatch. *)

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
