(** Exact Shapley values by explicit coalition enumeration.

    This is the exponential baseline: it evaluates the aggregate query on
    every coalition of endogenous facts. It is (i) the correctness oracle
    for all dynamic programs, (ii) the only exact option beyond each
    aggregate's tractability frontier, and (iii) the "Shapley oracle"
    consumed by the executable hardness reductions. *)

val game :
  ?visit:Aggshap_agg.Agg_query.visit ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t array * Game.t
(** The cooperative game of the paper: players are the endogenous facts
    (returned array fixes the player indexing) and
    [v(C) = A(C ∪ Dˣ) − A(Dˣ)], every utility evaluated with
    [Agg_query.eval ?visit].
    @raise Invalid_argument if there are more than {!Game.max_players}
    endogenous facts. *)

val index_of : Aggshap_relational.Fact.t array -> Aggshap_relational.Fact.t -> int
(** Player index of a fact in the array returned by {!game} — the one
    fact-to-index resolution shared by every naive score ({!shapley},
    [Solver.banzhaf]).
    @raise Invalid_argument if the fact is not among the players. *)

val shapley :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
(** @raise Invalid_argument if the fact is not endogenous. *)

val shapley_all :
  ?visit:Aggshap_agg.Agg_query.visit ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Every endogenous fact's value, in [Database.endogenous] order, from
    one {!game} over [?visit]. *)

val sum_k :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_arith.Rational.t array
(** The vector [sum_k(A, D)] of Equation (6), by enumeration — the test
    oracle for the dynamic programs' [sum_k] implementations. *)
