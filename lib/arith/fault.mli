(** Test-only fault injection for the differential-testing oracle
    ({!Aggshap_check}).

    One process-wide cell, read by every layer a variant corrupts: the
    bignum arithmetic ({!Bigint}), the relational storage
    ({!Aggshap_relational.Database}), the convolution kernels and the
    decomposition engine ({!Aggshap_core.Tables},
    {!Aggshap_core.Engine}), the incremental engine
    ({!Aggshap_incr.Session}) and the knowledge-compilation tier
    ({!Aggshap_lineage.Ddnnf}). It lives in the lowest library all of
    them link, so arming one variant needs no per-layer copy. Every
    frontier DP funnels through these layers, so the oracle must flag
    each corruption. *)

type t =
  [ `None
  | `Convolve_off_by_one
  | `Tree_fold_skew
  | `Karatsuba_split
  | `Stale_block
  | `Block_drop
  | `Stale_index
  | `Ddnnf_cache_poison
  | `Kc_budget_leak ]
(** - [`None]: every layer computes correctly (the default).
    - [`Convolve_off_by_one] makes {!Aggshap_core.Tables.convolve}
      corrupt its top entry whenever both operands are non-trivial,
      simulating an off-by-one in a DP [combine] step.
    - [`Tree_fold_skew] makes {!Aggshap_core.Tables.convolve_many} swap
      the top two entries of the reduced table whenever the reduction
      tree has at least three leaves, simulating mis-paired siblings.
    - [`Karatsuba_split] makes every {!Bigint.mul} (and so every
      {!Bigint.pow}) of two operands both at least [4] in magnitude
      gain a spurious [+ (|a|/4)*(|b|/4)*4] term: the classic "forgot
      [- z2] in the middle Karatsuba term" bug, scaled down to a 2-bit
      split so randomized trials on small operands can observe it. It
      fires on every such product, not at a split: multiplication has
      one kernel, schoolbook, and the name outlived the Karatsuba one.
      {!Bigint.mul_schoolbook} ignores it.
    - [`Stale_block] makes the incremental engine
      ({!Aggshap_incr.Session}) skip one cache invalidation per update:
      the first membership game an insert or delete dirties keeps its
      stale per-fact contributions. Only the Sum/Count sessions cache
      anything across reads, so only they are affected.
    - [`Block_drop] makes the decomposition engine
      ({!Aggshap_core.Engine}) demote the last root-variable block of
      every partition with at least two blocks to null-player padding,
      simulating a lost hierarchy block. It corrupts every aggregate's
      DP at the decomposition layer.
    - [`Stale_index] makes database updates keep the parent's built
      secondary indexes instead of adjusting them: a forgotten
      invalidation. Segments stay correct, but an index built before an
      insert, delete or provenance flip keeps answering with the old
      contents, so the planned evaluator and the indexed partition go
      wrong wherever a stale index is probed.
    - [`Ddnnf_cache_poison] makes the knowledge-compilation tier's
      Shannon-expansion compiler ({!Aggshap_lineage.Ddnnf}) store (and
      answer with) a child-swapped decision node in its formula-keyed
      cache, so every compiled circuit that hits the poisoned cache is
      semantically wrong. With the cache disabled there is nothing to
      poison. Only the lineage tier is affected.
    - [`Kc_budget_leak] breaks the d-DNNF node-budget abort path: past a
      small node count the compiler silently truncates sub-formulas to
      [False] instead of raising
      {!Aggshap_lineage.Ddnnf.Budget_exceeded}, so the compiled circuits
      under-count models and the values drift low. Only the lineage
      tier is affected.

    Each layer ignores the variants that are not its own. *)

val current : t ref
(** The armed fault, [`None] by default. Not domain-safe: arm it only
    around sequential ([jobs = 1]) runs, and reset it to [`None]
    afterwards. *)
