(** Shapley values for Min and Max over all-hierarchical CQs
    (Theorem 4.1, Section 4.2 and Appendix C).

    The dynamic program instantiates the generic template with the table
    [P[Q', D'](a, k)] = number of [k]-subsets whose answer bag has maximal
    τ-value [a] (plus an explicit entry for the empty answer set). The
    [combine] steps are exactly those of Appendix C; components that do
    not contain the τ-relation only need nonempty/empty counts, which the
    Boolean DP provides. Min reduces to Max by negating τ. *)

(** {2 Table algebra}

    The (a,k)-table combinators the engine instance is built from,
    exposed for the algebraic-law tests: [combine_union] is associative
    and commutative with unit [neutral]. *)

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

val pad_table : int -> table -> table
(** Account for extra null players. *)

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
