(** The generic Figure-2 decomposition engine.

    Every polynomial-time algorithm of the paper is an instance of one
    dynamic-programming template over the hierarchical decomposition of
    the query (Figure 2):

    - an {e empty} query (no atoms) is a base case;
    - a {e ground} connected component (a single variable-free atom) is
      a leaf whose table reads the matching fact's provenance;
    - a {e disconnected} query is the conjunction of its connected
      components, evaluated on disjoint fact sets ([combine]);
    - a {e connected} query picks a root variable [x] (one occurring in
      every atom), partitions the database into per-value blocks, and
      merges the recursive tables of the blocks ([merge]).

    What varies between the aggregates is only the {e table} carried up
    the recursion and the semantics of [merge]/[combine]: satisfaction
    counts for the Boolean membership game (Section 3), answer-count
    tables for Count (Section 5.1), [(a,k)]-tables for Min/Max
    (Section 4.2), [(a,k,ℓ)]-tables for Avg/Quantile (Section 5), and
    duplicate-freeness counts for Has-duplicates (Section 6). This
    module factors the shared recursion out: each aggregate supplies a
    {!TABLE_ALGEBRA} and inherits memoization, fault injection,
    per-node statistics and optional root-block parallelism for free.

    The engine is the {e only} module that calls
    {!Aggshap_cq.Decompose.choose_root} and
    {!Aggshap_cq.Decompose.partition}; algorithms that need the raw
    top-level split (the Min/Max batch worker's sibling precombination)
    go through {!connected_root} and {!root_partition}. *)

(** {1 Per-node statistics}

    Global counters over every {!Make} instance, surfaced by
    [shapctl --stats] and the bench JSON reports. Like
    {!Tables.stats}, they are plain counters: approximate under
    concurrent domains. *)

type stats = {
  nodes : int;  (** recursion nodes entered (memo hits excluded) *)
  leaves : int;  (** base cases: ground atoms and algebra-specific leaves *)
  merges : int;  (** root-variable partitions merged *)
  combines : int;  (** disconnected-component conjunctions *)
  parallel_merges : int;  (** merges whose blocks were evaluated on the pool *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** {1 Root-block parallelism}

    Opt-in evaluation of the independent blocks of the {e top-level}
    root partition on the {!Pool} domains. Off by default ([1]); the
    recursion below the top partition always runs sequentially, so the
    setting composes with (but multiplies the domain count of) the
    per-fact parallelism of {!Batch}. Results are bit-identical for
    every setting: the pool preserves block order and the arithmetic is
    exact. *)

val set_block_jobs : int -> unit
(** Values [<= 1] disable block parallelism. *)

val block_jobs : unit -> int

(** {1 The table algebra} *)

(** What an aggregate must provide to instantiate the engine. The table
    type is the DP state attached to a sub-instance [(q, db)]; the
    context is the per-run environment threaded through the recursion
    unchanged (the value function τ, reference values, sub-algorithm
    memo handles). *)
module type TABLE_ALGEBRA = sig
  type table
  (** The DP table of one sub-instance. Must be immutable: tables are
      shared through the memo across facts and domains. *)

  type ctx
  (** Per-run environment, constant across the recursion. *)

  val memo_prefix : ctx -> string
  (** Prepended to {!Aggshap_cq.Decompose.block_key} to form the memo
      key. [""] when the block key alone identifies the table; the
      Avg/Quantile algebra prepends its reference value (the same
      sub-instance is revisited once per realizable τ-value). Context
      components outside the key (τ itself) make a memo sound only
      within one run — see {!Memo}. *)

  val leaf : ctx -> Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> table option
  (** Pre-decomposition base case, checked before connected components
      are computed. The Count and Avg/Quantile algebras cut off Boolean
      sub-queries here (delegating to the Boolean engine); [None]
      continues with the generic decomposition. *)

  val connected_leaf :
    ctx -> Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> table option
  (** Base case for a single connected component, checked before a root
      variable is chosen. Ground atoms land here; the Has-duplicates
      algebra resolves {e every} connected sub-query here (Figure 5
      treats the connected case whole, so its recursion only ever
      decomposes cross products). *)

  val empty : ctx -> Aggshap_relational.Database.t -> table
  (** Table of the query with no atoms (vacuously true). Algebras whose
      queries always retain the τ-relation may raise. *)

  val root_mode : [ `Any_root | `Free_root ]
  (** [`Free_root] restricts root selection to free variables — the
      q-hierarchical requirement of the Count and Avg/Quantile
      algorithms (Section 5.1), under which sibling blocks have
      disjoint answer sets. *)

  val root_error : string
  (** Message prefix raised (with the query appended) when no admissible
      root variable exists. *)

  val merge :
    ctx ->
    root:string ->
    (Aggshap_relational.Value.t * Aggshap_relational.Database.t * table) list ->
    table
  (** Disjunction over the blocks of the root-variable partition, given
      as [(root value, block, table)] in block order. The Boolean
      algebra convolves complements (the query holds iff {e some} block
      holds); the keyed algebras fold their union combinators. *)

  val combine :
    ctx ->
    Aggshap_cq.Cq.t ->
    Aggshap_relational.Database.t ->
    (Aggshap_cq.Cq.t * Aggshap_relational.Database.t * (unit -> table)) list ->
    table
  (** Conjunction over connected components, given as
      [(component, restricted db, recursion thunk)] in component order.
      Forcing a thunk evaluates that component through the engine
      (memoized); algebras that treat some components specially (the
      τ-free sides of Min/Max and Avg/Quantile, the cross-product step
      of Has-duplicates) may ignore the thunks of those components and
      run a sub-algorithm on the restricted database instead. The whole
      query and database are provided for algebras that need them
      (Has-duplicates re-groups the non-τ components). *)

  val pad : ctx -> int -> table -> table
  (** Account for [p] endogenous null players dropped by the partition
      (facts matching no block) or by the relevance filter. *)
end

(** {1 The engine} *)

module Make (A : TABLE_ALGEBRA) : sig
  val eval :
    ?memo:A.table Memo.t ->
    A.ctx ->
    Aggshap_cq.Cq.t ->
    Aggshap_relational.Database.t ->
    A.table
  (** The Figure-2 recursion, assuming every fact of [db] matches some
      atom of [q] (sub-instances produced by the engine itself satisfy
      this). Every node is memoized under
      [A.memo_prefix ctx ^ Decompose.block_key q db] when [?memo] is
      given.
      @raise Invalid_argument via [A.root_error] when a connected
      sub-query has no admissible root. *)

  val eval_top :
    ?memo:A.table Memo.t ->
    A.ctx ->
    Aggshap_cq.Cq.t ->
    Aggshap_relational.Database.t ->
    A.table
  (** {!eval} on the relevant part of [db]
      ({!Aggshap_cq.Decompose.relevant_part}), padding the result with
      the irrelevant endogenous facts — the standard top-level entry of
      every aggregate. *)
end

(** {1 Controlled access to the decomposition}

    For the one algorithm that needs the top-level split outside the
    recursion: the Min/Max batch worker precombines sibling blocks with
    prefix/suffix sweeps and re-partitions per-fact variant databases.
    Keeping these here preserves the invariant that only the engine
    touches [Decompose.choose_root]/[partition] (and that the
    [`Block_drop] fault covers every partition). *)

val connected_root : Aggshap_cq.Cq.t -> string option
(** [Some x] iff the query is a single non-ground connected component
    with root variable [x] (the preferred root, as chosen by the
    engine). *)

val root_partition :
  Aggshap_cq.Cq.t ->
  root:string ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Value.t * Aggshap_relational.Database.t) list
  * Aggshap_relational.Database.t
(** The engine's partition step: the per-value blocks of [root] and the
    facts falling in no block, with the [`Block_drop] fault applied. *)

(** {1 Static decomposition trees}

    The recursion tree of the engine on a query, independent of any
    database: what [shapctl explain] prints. Root-variable nodes record
    whether the chosen root is free (the [`Free_root] algebras require
    this); a [Stuck] node marks a sub-query with no root variable —
    the query is not hierarchical and every engine instance would
    reject it there. *)

type shape =
  | Empty  (** no atoms: vacuously true *)
  | Ground of string  (** ground-atom leaf (relation name) *)
  | Partition of { root : string; free : bool; sub : shape }
      (** connected: partition on the root, recurse on one generic block *)
  | Cross of (string * shape) list
      (** disconnected: conjunction of components (rendered sub-queries) *)
  | Stuck of string  (** connected but no root variable: not hierarchical *)

val shape : Aggshap_cq.Cq.t -> shape
(** The decomposition tree the engine follows on [q]. Root bindings are
    simulated with a placeholder constant, so the tree mirrors the
    runtime recursion on any database. *)

val pp_shape : Format.formatter -> shape -> unit
(** Indented rendering, one node per line. *)
