(** Exact counting and Shapley computation for Boolean hierarchical CQs.

    This is the algorithm of Livshits, Bertossi, Kimelfeld and Sebag for
    the {e membership} problem, phrased in the [sum_k] style of
    Section 3.2: [counts q db] returns, for every [k], the number of
    [k]-subsets [E] of the endogenous facts such that [Q(E ∪ Dˣ)] is
    satisfied. It is the foundation of the Sum/Count algorithm (linearity
    of expectation), of the CDist reduction (Lemma 4.3), and of the
    Boolean sub-trees of all other dynamic programs. *)

val counts : Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> Tables.counts
(** The head of [q] is ignored (the query is evaluated as Boolean). The
    result has length [endo_size db + 1].
    @raise Invalid_argument if the Boolean query is not hierarchical. *)

val removals :
  Aggshap_cq.Cq.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Tables.counts) list
(** Every endogenous fact of [db] that is not a null player, with the
    satisfaction counts of [q] on [db] without it, from one variant pass
    ({!Engine.Pass.removals}): the [leaf_removals] of the algebras that
    cut off Boolean sub-queries. Every fact of [db] must match an atom of
    [q]. *)

val shapley_all :
  ?score:Aggshap_arith.Score.t ->
  Aggshap_cq.Cq.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** The score (default Shapley) of every endogenous fact of [db] that is
    not a null player, in no particular order, from one variant pass
    ({!Engine.Pass.split}); null players, whose score is 0, are left
    out. Bit-identical to {!shapley} fact by fact. *)

val shapley :
  ?score:Aggshap_arith.Score.t ->
  Aggshap_cq.Cq.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
(** Shapley value (or [score], default Shapley) of an endogenous fact
    for Boolean query satisfaction (the membership game), by the
    per-fact reduction of {!Sumk}: the reference {!shapley_all} is
    tested against.
    @raise Invalid_argument if the fact is not endogenous in [db]. *)
