(** Shapley values for Min and Max over all-hierarchical CQs
    (Theorem 4.1, Section 4.2 and Appendix C).

    The dynamic program instantiates the generic template with the table
    [P[Q', D'](a, k)] = number of [k]-subsets whose answer bag has maximal
    τ-value [a] (plus an explicit entry for the empty answer set). The
    [combine] steps are exactly those of Appendix C; components that do
    not contain the τ-relation only need nonempty/empty counts, which the
    Boolean DP provides. Min reduces to Max by negating τ. *)

(** {2 Table algebra}

    The (a,k)-table combinators the engine instance is built from. The
    monotone-monoid Max of Section 7.3 ({!Minmax_monoid}) runs on the
    same table, with [cross] and [rekey] in place of a localized τ. The
    algebraic-law tests check that [combine_union] is associative and
    commutative with unit [neutral], and [cross op] likewise for an
    associative, commutative [op], with the one-row table of [op]'s
    unit as its unit. *)

type table
(** [P[Q', D'](a, k)] plus the explicit empty-answer-set entry. *)

val neutral : table
(** The empty sub-database: one 0-subset, always with no answers. *)

val table_of_values :
  n:int -> empty:Tables.counts -> (Aggshap_arith.Rational.t * Tables.counts) list -> table
(** Build a table from its empty-answer counts and per-value counts
    (duplicated values are added together). *)

val combine_union : table -> table -> table
(** Bag-union of two independent sub-databases: the maximum of the union
    distributes over the per-value rows. *)

val cross :
  (Aggshap_arith.Rational.t -> Aggshap_arith.Rational.t -> Aggshap_arith.Rational.t) ->
  table ->
  table ->
  table
(** [cross op t1 t2]: the conjunction of two independent valued
    sub-databases. A subset has an answer iff both sides do, and for a
    non-decreasing [op] its maximal value is [op] of the sides' maxima;
    all-zero rows are dropped. *)

val rekey : (Aggshap_arith.Rational.t -> Aggshap_arith.Rational.t) -> table -> table
(** [rekey f t] moves each value row [a] to [f a], adding rows that
    meet: the lift of a sub-table once a tracked root value is composed
    in. *)

val pad_table : int -> table -> table
(** Account for extra null players. *)

val ground :
  (Aggshap_relational.Value.t array -> Aggshap_arith.Rational.t) ->
  Aggshap_cq.Cq.t ->
  Aggshap_relational.Database.t ->
  table
(** [ground value q db]: the table of a ground component [q] (one
    variable-free atom), its fact valued by [value] on the fact's
    arguments ({!Aggshap_agg.Value_fn.apply} of τ here; the constant
    monoid unit in {!Minmax_monoid}). *)

val sum_of_table : table -> Aggshap_arith.Rational.t array
(** The [sum_k] read-out: [Σ_a a · t(a, k)] for every subset size [k]. *)

val table_equal : table -> table -> bool
(** Structural equality, treating absent value rows as rows of zeros. *)

val sum_k :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_arith.Rational.t array
(** [sum_k a db] for [a.alpha ∈ {Min, Max}] over an all-hierarchical CQ.
    @raise Invalid_argument otherwise. *)

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
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Every endogenous fact's score (default Shapley), in
    [Database.endogenous] order, from one variant pass
    ({!Engine.Pass.split}): at a root partition each block's siblings
    collapse to one kernel per value, and a fact pays one kernel
    application per value of its block-sized variant difference.
    Bit-identical to {!shapley} fact by fact. *)

val shapley_all :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
