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
    {!TABLE_ALGEBRA} and inherits fault injection and per-node
    statistics for free. No node's table is cached, in a one-shot solve
    or in an incremental session: a cache keyed on the sub-instance
    cost more to key than it saved (DESIGN.md §6).

    The engine is the {e only} module that calls
    {!Aggshap_cq.Decompose.choose_root} and
    {!Aggshap_cq.Decompose.partition}. All-facts solves go through
    {!Pass}: one walk of the decomposition gives every fact the
    difference of the two variant tables its slice needs, and at a root
    partition the leave-one-out table of its block's siblings, so no
    caller needs the raw top-level split. *)

(** {1 Per-node statistics}

    Global counters over every {!Make} instance, surfaced by
    [shapctl --stats] and the bench JSON reports. Like
    {!Tables.stats}, they are backed by [Atomic.t]: exact under
    concurrent domains. *)

type stats = {
  nodes : int;  (** recursion nodes entered *)
  leaves : int;  (** base cases: ground atoms and algebra-specific leaves *)
  merges : int;  (** root-variable partitions merged *)
  combines : int;  (** disconnected-component conjunctions *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** {1 The table algebra} *)

(** What an aggregate must provide to instantiate the engine. The table
    type is the DP state attached to a sub-instance [(q, db)]; the
    context is the per-run environment threaded through the recursion
    unchanged (the value function τ, reference values, caps). *)
module type TABLE_ALGEBRA = sig
  type table
  (** The DP table of one sub-instance. Must be immutable: the pass
      shares a node's table among the facts whose tables it builds. *)

  type ctx
  (** Per-run environment, constant across the recursion. *)

  val leaf :
    ctx -> Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> (unit -> table) option
  (** Pre-decomposition base case, checked before connected components
      are computed: [Some compute] when [(q, db)] is a base case, with
      [compute] building its table (the check itself must be cheap).
      The Count and Avg/Quantile algebras cut off Boolean sub-queries
      here (delegating to the Boolean engine); [None] continues with
      the generic decomposition. *)

  val connected_leaf :
    ctx -> Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> (unit -> table) option
  (** Base case for a single connected component, checked before a root
      variable is chosen, in the form of {!leaf}. Ground atoms land here; the Has-duplicates
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
      (in {!Pass}, walked once per conjunction and shared by every
      call); algebras that treat some components specially (the
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
  val eval : A.ctx -> Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> A.table
  (** The Figure-2 recursion, assuming every fact of [db] matches some
      atom of [q] (sub-instances produced by the engine itself satisfy
      this).
      @raise Invalid_argument via [A.root_error] when a connected
      sub-query has no admissible root. *)

  val eval_top : A.ctx -> Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> A.table
  (** {!eval} on the relevant part of [db]
      ({!Aggshap_cq.Decompose.relevant_part}), padding the result with
      the irrelevant endogenous facts — the standard top-level entry of
      every aggregate. *)
end

(** {1 The variant pass}

    An all-facts solve needs, for every endogenous fact [f], the tables
    of two variant databases: [D] with [f] exogenous and [D] without
    [f] (the folklore reduction of {!Sumk}). Re-running {!Make.eval} on
    both costs two full dynamic programs per fact. The variant pass
    walks the decomposition once instead. It builds each node's own
    table at most once and carries one table per fact up the walk, its
    {e removal} table (the node's table without [f]), rebuilt only
    along the fact's own path: at a root partition by the union of its
    block's removal table with the leave-one-out table of the block's
    siblings, at a conjunction by [combine] with the fact's component
    replaced, and at a leaf by [leaf_removals]. A conjunction walks each
    component at most once and hands that walk's table to every
    [combine]; components the algebra hands to a sub-algorithm are
    re-evaluated on the removal database instead. A table counts the
    subsets by key and size, so key by key [t = rm + x·exo]: the node's
    own table [t] and the removal table [rm] give the exogenous variant,
    and every read-out consumes only [exo − rm] ([diff]). *)

type 'table variant = {
  fact : Aggshap_relational.Fact.t;
  diff : 'table;
      (** the node's table with [fact] exogenous minus its table without
          [fact], key by key: a signed table over the other facts *)
}
(** A fact's variant of one node. Null players of the node (facts in no
    block of a root partition, at any depth of the walk) get none: their
    difference is zero. *)

type 'table split = {
  pad : int;
      (** endogenous null players at the top: facts irrelevant to the
          query, and facts in no block of a root partition *)
  groups : ('table * 'table variant list) list;
      (** [(context, variants)]: with [U] the algebra's [union] and [P]
          padding by [pad], a fact's slice of the query's table is
          [P (U context d)] for its variant's [diff] [d]. A root
          partition gives one group per block, the context being the
          union of its siblings' tables and the differences block-sized;
          any other root gives one group with the [neutral] context and
          whole-query differences. *)
}
(** The top of the variant pass. Since [U] is bilinear and every
    aggregate reads its [sum_k] vector linearly off the padded table, a
    fact's slice is [R (P (U context (exo − rm)))]: one kernel per
    group and table key, applied to a block-sized difference. *)

val each_removal :
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Database.t -> 'table) ->
  (Aggshap_relational.Fact.t * 'table) list
(** Every endogenous fact of [db] with a table function re-evaluated on
    [db] without it: the [leaf_removals] of leaves that read a few facts
    directly (ground atoms). *)

val leave_one_out :
  unit:'a -> op:('a -> 'a -> 'a) -> 'a array -> 'a array * 'a Lazy.t
(** [leave_one_out ~unit ~op ts]: for every [i], the product under [op]
    of every [ts.(j)] with [j <> i], from one prefix and one suffix
    sweep ([3g − 6] applications of [op] for [g ≥ 2] tables; none where
    an operand is [unit], compared physically), and, built on demand
    from the last prefix, the product of all of them (one more
    application). [op] must be associative and commutative with unit
    [unit]. *)

(** What the variant pass needs beyond {!TABLE_ALGEBRA}. *)
module type PASS_ALGEBRA = sig
  include TABLE_ALGEBRA

  val neutral : table
  (** The table of the empty block, the unit of [union]. *)

  val union : ctx -> table -> table -> table
  (** The union of two sibling blocks, associative and commutative:
      [merge ctx ~root blocks] equals the fold of [union] over the
      blocks' tables from [neutral], and [union] is bilinear in the
      tables' counts. The Boolean algebra's works in complement space
      (the query fails iff every block fails). The pass builds a
      partition's own table from these unions, never from [merge]. *)

  val diff : table -> table -> table
  (** [diff t rm]: a fact's [exo − rm] from the node's own table [t] and
      the fact's removal table [rm], by {!Tables.variant_diff} on every
      key either table carries; keys whose difference is zero may be
      dropped. *)

  val leaf_removals :
    ctx ->
    Aggshap_cq.Cq.t ->
    Aggshap_relational.Database.t ->
    table ->
    (Aggshap_relational.Fact.t * table) list
  (** [leaf_removals ctx q db t]: the removal tables of a node resolved
      by [leaf] or [connected_leaf] with table [t], one per endogenous
      fact of [db] that is not a null player. A leaf that delegates to
      another dynamic program can take them from that program's pass
      ({!Pass.removals}). *)
end

module Pass (A : PASS_ALGEBRA) : sig
  include module type of Make (A)

  val removals :
    A.ctx ->
    Aggshap_cq.Cq.t ->
    Aggshap_relational.Database.t ->
    (Aggshap_relational.Fact.t * A.table) list
  (** Every endogenous fact of [db] that is not a null player, with the
      node's table on [db] without it, under the same assumption as
      {!Make.eval}. The node's own table is not built when the node is a
      root partition. *)

  val variants :
    A.ctx ->
    Aggshap_cq.Cq.t ->
    Aggshap_relational.Database.t ->
    A.table * A.table variant list
  (** The node's table (as {!Make.eval}) and the variant of every
      endogenous fact of [db] that is not a null player, under the same
      assumption as {!Make.eval}. *)

  val split : A.ctx -> Aggshap_cq.Cq.t -> Aggshap_relational.Database.t -> A.table split
  (** The top of the pass on the relevant part of [db], as {!Make.eval_top}
      does. At a root partition each group's differences are read off its
      block's own table, and the root's own table is never built. *)
end

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
