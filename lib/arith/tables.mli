(** The one counting kernel: tables of bignum counts indexed by subset
    size.

    Every exact route reduces to per-size subset counts (the [sum_k]
    reduction of Sec. 3.2), so every one of them counts here: arrays
    [c] with [c.(k)] = number of [k]-subsets having some property. The
    algorithms instantiated from the paper's generic template (Figure 2)
    carry such tables up the decomposition, and the knowledge-compilation
    tier's d-DNNF circuits ({!Aggshap_lineage.Ddnnf}) count their size
    polynomials with them. This module provides the common array
    plumbing: convolution (for [combine] steps and circuit products),
    binomial padding (for null players and smoothing), complements,
    leave-one-out products, and totals. It lives in the arithmetic
    library, below both, and [Aggshap_core.Tables] re-exports it. *)

type counts = Bigint.t array
(** [c.(k)] for [k = 0 .. n]; length is the number of endogenous facts
    plus one. *)

(** {1 Instrumentation}

    Call counters for the convolution layer, surfaced by
    [shapctl solve --stats] and the bench JSON reports. Backed by
    [Atomic.t], so the counts are exact under concurrent domains (see
    {!Bigint.stats}). *)

type stats = {
  convolve : int;  (** pairwise convolutions (including inside folds) *)
  convolve_small : int;  (** convolutions taken by the all-native int tier *)
  convolve_ntt : int;
      (** always [0]: {!convolve} has no transform tier (DESIGN.md §8);
          kept for readers of the full counter set *)
  convolve_rat : int;  (** rational convolutions (common-denominator) *)
  tree_folds : int;  (** balanced {!convolve_many} reductions *)
  weighted_sums : int;  (** {!weighted_sum} accumulations *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

val zeros : int -> counts
(** [zeros n] is the all-zero table for [n] endogenous facts. *)

val delta : int -> int -> counts
(** [delta n k0] has a single 1 at index [k0]. *)

val full : int -> counts
(** [full n] has [C(n,k)] at index [k]: the table of the always-true
    property. *)

val add : counts -> counts -> counts
(** Pointwise sum; lengths must agree. *)

val sub : counts -> counts -> counts

val complement : int -> counts -> counts
(** [complement n c] is [full n - c]. *)

val variant_diff : counts -> counts -> counts
(** [variant_diff t rm]: a fact's exogenous variant minus its removal
    variant, from the counts [t] of the whole fact set (length [n + 1])
    and [rm] of the set without the fact (length [n]). Splitting the
    subsets on the fact gives [t(k) = rm(k) + exo(k-1)], so the result
    has length [n] and entry [j] is [t(j+1) - rm(j+1) - rm(j)], with
    [rm(n) = 0]. *)

val variant_diff_row : int -> counts option -> counts option -> counts option
(** [variant_diff_row n t rm]: {!variant_diff} of one key's rows of a
    keyed table over [n + 1] facts and of the fact's removal table, in
    the shape of [Map.merge]: an absent row is a row of zeros, and a
    difference of zeros is absent. *)

val convolve : counts -> counts -> counts
(** [convolve a b] has length [(|a|-1) + (|b|-1) + 1]; entry [k] is
    [Σ_{k1+k2=k} a.(k1) * b.(k2)] — the table of a conjunction over two
    disjoint fact sets. Two tiers (see DESIGN.md §8): tables whose
    entries are all small run wholly in native ints, read in place by
    {!Bigint.convolve_small} (overflow-checked, aborting
    to the tier below); everything else takes the classic paths — a
    zero-skipping scatter loop for sparse/thin operands, a
    multiply-accumulate buffer ({!Bigint.Acc}) for dense
    ones. Both tiers produce bit-identical results. *)

val convolve_many : counts list -> counts
(** Balanced pairwise reduction of [convolve] over the list (neutral
    element [[| 1 |]], the table of the empty fact set). Replaces the
    left-folds the DP modules used across hierarchy blocks and connected
    components: bit-identical results (exact arithmetic, associativity),
    but each input is re-traversed O(log n) times instead of O(n). *)

val pad : int -> counts -> counts
(** [pad p c] extends the underlying fact set by [p] endogenous null
    players: [result.(k) = Σ_j c.(k-j) * C(p, j)]. *)

val leave_one_out :
  unit:'a -> op:('a -> 'a -> 'a) -> 'a array -> 'a array * 'a Lazy.t
(** [leave_one_out ~unit ~op ts]: for every [i], the product under [op]
    of every [ts.(j)] with [j <> i], from one prefix and one suffix
    sweep ([3g − 6] applications of [op] for [g ≥ 2] tables; none where
    an operand is [unit], compared physically), and, built on demand
    from the last prefix, the product of all of them (one more
    application). [op] must be associative and commutative with unit
    [unit]. The variant pass takes each block's siblings' union from it,
    Has-duplicates its per-class convolutions, and a d-DNNF AND/OR node
    the product of each part's siblings. *)

val total : counts -> Bigint.t
(** Sum of all entries. *)

val to_rationals : counts -> Rational.t array

val scale_to : Rational.t -> counts -> Rational.t array
(** [scale_to r c] is the rational array [r * c.(k)]. *)

val add_rat : Rational.t array -> Rational.t array -> Rational.t array
val zeros_rat : int -> Rational.t array

val pad_rat : int -> Rational.t array -> Rational.t array
(** Binomial padding of a rational-valued table (e.g. a [sum_k] vector). *)

val convolve_rat :
  Rational.t array ->
  Rational.t array ->
  Rational.t array
(** Common-denominator convolution: both operands are lifted to integer
    arrays over the lcm of their denominators, convolved exactly, and
    normalized once per entry — instead of one gcd per term. *)

val weighted_sum :
  int ->
  (Rational.t * counts) list ->
  Rational.t array
(** [weighted_sum n pairs] is [Σ_i w_i * c_i] as a rational array of
    length [n + 1] (every [c_i] must have length [n + 1]). Accumulates
    in integers over the lcm of the weights' denominators, normalizing
    once per subset size — the [Σ_a τ(a) * counts_a] pattern of the
    Min/Max and Avg sum-k evaluations without the per-entry gcd storm. *)
