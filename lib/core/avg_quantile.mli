(** Shapley values for Average and Quantile (incl. Median) over
    q-hierarchical CQs (Theorem 5.1, Section 5.1 and Appendix D.1).

    For each τ-value [a] realized on the full database, a dynamic program
    computes [N_a(k, ℓ<, ℓ=, ℓ>)] — the number of [k]-subsets whose answer
    bag contains [ℓ=] copies of [a], [ℓ<] elements below and [ℓ>] above.
    Then

    {v sum_k(Avg)   = Σ_a Σ_ℓ  a·ℓ= / (ℓ<+ℓ=+ℓ>) · N_a(k, ℓ)
       sum_k(Qnt_q) = Σ_a Σ_ℓ  a·f_q(ℓ<, ℓ=, ℓ>)  · N_a(k, ℓ) v}

    where [f_q] is the rank-indicator weight of Section 5.1. The
    q-hierarchical property makes sibling answer sets disjoint (ℓ adds
    under union) and cross products multiply ℓ by the τ-free side's
    answer count, provided by {!Count_dp}. These per-value tables are
    the per-fact reference {!sum_k} for every aggregate, and the
    all-facts pass ({!batch}) of Median and the quantiles.

    Avg needs only the first moment: for each size [k],
    [Σ_(|S|=k) T(S)/ℓ(S)], with [ℓ(S)] the answers present and [T(S)]
    their τ-total. Its all-facts pass keeps one table per sub-query,
    mapping ℓ to the pair (C, T): the number of [k]-subsets with ℓ
    answers and the sum of their τ-totals, as integers over [D], the
    lcm of the answers' τ-value denominators. Union adds ℓ and
    multiplies pairs as (C₁C₂, T₁C₂ + C₁T₂); a τ-free side's row ℓ₂
    multiplies ℓ and T by ℓ₂. So Avg takes one pass where the
    per-value tables take one per distinct τ-value. *)

(** {2 Table algebra}

    The (a,k,ℓ)-table combinators the engine instance is built from,
    exposed for the algebraic-law tests: [combine_vtables vec_add] is
    associative and commutative with unit [neutral_union]. *)

type vtable
(** [N_a(k, ℓ<, ℓ=, ℓ>)] for one sub-query and reference value. *)

val neutral_union : vtable
(** The empty sub-database: one 0-subset with the empty answer bag. *)

val vtable_of : n:int -> ((int * int * int) * Tables.counts) list -> vtable
(** Build a table from per-ℓ-vector counts (duplicates are added). *)

val vec_add : int * int * int -> int * int * int -> int * int * int

val combine_vtables :
  (int * int * int -> int * int * int -> int * int * int) -> vtable -> vtable -> vtable
(** Convolve per-k counts and combine ℓ-vectors with the given
    operation; all-zero rows are dropped. *)

val pad_vtable : int -> vtable -> vtable
(** Account for extra null players. *)

val vtable_equal : vtable -> vtable -> bool
(** Structural equality, treating absent rows as rows of zeros. *)

val sum_k :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  Aggshap_arith.Rational.t array
(** @raise Invalid_argument if the aggregate is not Avg/Median/Quantile
    or the CQ is not q-hierarchical. *)

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
    [Database.endogenous] order, from variant passes
    ({!Engine.Pass.split}): for Avg one first-moment pass, whose
    blocks' siblings collapse to two kernels per answer count; for
    Median and the quantiles one pass per reference value, whose
    blocks' siblings collapse to one kernel per ℓ-vector. Bit-identical
    to {!shapley} fact by fact. *)

val first_moments :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (int * Tables.counts * Aggshap_arith.Rational.t array) list
(** The first-moment table Avg's {!batch} runs on, for the whole query
    on [db]: for each answer count ℓ in increasing order, per size [k],
    the number of [k]-subsets of the endogenous facts whose answer bag
    has ℓ answers, and the sum of those bags' τ-totals. Rows with no
    subset are left out.
    @raise Invalid_argument if the aggregate is not Avg/Median/Quantile
    or the CQ is not q-hierarchical. *)

val shapley_all :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
