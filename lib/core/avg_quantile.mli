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
    answer count, provided by {!Count_dp}.

    Avg's weight [ℓ= / (ℓ<+ℓ=+ℓ>)] never tells ℓ< from ℓ>, so its
    all-facts pass ({!batch}) keys its tables on (ℓ=, ℓ≠) with
    [ℓ≠ = ℓ<+ℓ>]: its leaves file a τ-value below the reference value
    under the same key component as one above it. The projection
    commutes with union (a vector sum) and cross product (a scaling),
    so the tables are the projections of the full ones, with fewer
    keys. Quantiles keep (ℓ<, ℓ=, ℓ>), and so does the per-fact
    reference {!sum_k} for every aggregate. *)

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

type memo
(** Shared cache of (a,k,ℓ)-tables plus the Boolean and answer-count
    sub-tables; see {!Memo}. Create one per session over a fixed
    [(query, τ, aggregate)]. *)

val create_memo : unit -> memo
val memo_stats : memo -> Memo.stats

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
  ?memo:memo ->
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Every endogenous fact's score (default Shapley), in
    [Database.endogenous] order, from one variant pass per reference
    value ({!Engine.Pass.split}): each block's siblings collapse to one
    kernel per ℓ-vector (per (ℓ=, ℓ≠) for Avg). Bit-identical to
    {!shapley} fact by fact. *)

val shapley_all :
  Aggshap_agg.Agg_query.t ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
