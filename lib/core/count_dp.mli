(** Answer-count tables for q-hierarchical CQs.

    [P[Q', D']] maps each pair [(k, ℓ)] to the number of [k]-subsets [E]
    of the endogenous facts with [|Q'(E ∪ D'ˣ)| = ℓ] — the "τ-free side"
    data structure of Section 5.1, also the [P⁰]/[P¹] tables of the Dup
    algorithm (Appendix E.2). The q-hierarchical property guarantees that
    a free root variable exists for every connected non-Boolean
    sub-query, making answer sets of sibling blocks disjoint, so that
    [ℓ] adds under union and multiplies under cross product. *)

module IntMap : Map.S with type key = int

type t = {
  n : int;  (** endogenous facts covered *)
  entries : Tables.counts IntMap.t;
      (** answer count ℓ ↦ per-k counts; the entries sum to [full n] *)
}

type memo
(** Shared cache of sub-instance tables (including the Boolean
    sub-tables); see {!Memo}. *)

val create_memo : unit -> memo
val memo_stats : memo -> Memo.stats

val answer_counts :
  ?memo:memo -> ?cap:int -> Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> t
(** With [?cap], every answer count ℓ ≥ cap is lumped into the single
    row [cap]; rows below the cap are bit-identical to the uncapped
    table, and the per-node merge keeps O(cap) rows instead of one per
    answer — the difference between cubic and quadratic work for
    consumers that only read small rows (Dup reads ℓ ∈ {0, 1} with
    [~cap:2]). Capped and uncapped tables are memoized under distinct
    keys, so one memo may serve both.
    @raise Invalid_argument if the CQ is not q-hierarchical. *)

val variants :
  ?memo:memo ->
  ?cap:int ->
  Aggshap_cq.Cq.t ->
  Aggshap_relational.Database.t ->
  t * t Engine.variant list
(** {!answer_counts} with the variant of every endogenous fact that is
    not a null player ({!Engine.Pass.variants}): row by row, its
    answer counts with the fact exogenous minus those without it, read
    off the table and the fact's removal table. Every fact of [db] must
    match an atom of [q]. *)

val get : t -> int -> Tables.counts
(** [get t ℓ] (zeros when absent). *)

val at_least : t -> int -> Tables.counts
(** [at_least t ℓ]: counts of subsets with at least [ℓ] answers. *)

(** {2 Table algebra}

    The combinators the engine instance is built from, exposed for the
    algebraic-law tests: [combine (+)] (block union) and
    [combine ( * )] (component cross product) are associative and
    commutative with units [neutral_union] and [neutral_cross]. *)

val neutral_union : t
(** Unit of [combine (+)]: the empty sub-database with zero answers. *)

val neutral_cross : t
(** Unit of [combine ( * )]: the empty sub-query with one answer. *)

val combine : (int -> int -> int) -> t -> t -> t
(** Convolve per-k counts and combine answer counts with the given
    operation; all-zero rows are dropped. *)

val pad_table : int -> t -> t
(** Account for extra null players. *)

val equal : t -> t -> bool
(** Structural equality, treating absent rows as rows of zeros. *)
