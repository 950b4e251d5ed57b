(** A live solver session: exact all-facts Shapley values maintained
    incrementally under database updates.

    The batch engine's premise — a fact only perturbs the hierarchy
    block it lives in — applies across time as well: an update only
    dirties the DP state it touches. A session keeps that state alive
    between updates and recomputes only the dirty part:

    - {b Sum/Count} (the [Linear] engine): by linearity the Shapley
      value is a weighted sum over per-answer membership games, and each
      game restricted to the facts matching its atoms has the same exact
      values (everything else is a null player). The session caches the
      per-fact contributions of every game, computed by one Boolean
      variant pass per dirty game ({!Aggshap_core.Boolean_dp.shapley_all});
      [insert]/[delete] dirty only
      the games whose atoms match the touched fact, [set_tau] dirties
      nothing (the games are τ-independent — only the answer weights,
      re-derived on every read, change). The Boolean sub-tables are
      shared across games {e and} steps through the content-addressed
      {!Aggshap_core.Memo}.
    - {b Min/Max, Count-distinct, Avg/Median/Quantile, Has-duplicates}
      (the [Generic] engine): a persistent {!Aggshap_core.Batch.memo}
      threaded through the family's DP via its [?memo] seam. Updated
      blocks change their content fingerprint, so invalidation is
      automatic; [set_tau] replaces the memo (a full recompute — τ is
      outside the cache key, enforced by the memo's fingerprint stamp).

    Results are bit-identical to a from-scratch
    {!Aggshap_core.Batch.shapley_all} at every step: exact rationals in
    canonical form, in [Database.endogenous] order. *)

type t

val open_ : Aggshap_agg.Agg_query.t -> Aggshap_relational.Database.t -> t
(** Compiles the initial session state. Every read solves in the
    calling domain.
    @raise Invalid_argument if the query is outside the aggregate's
    tractability frontier. *)

val apply : t -> Update.t -> unit
(** Applies one update, invalidating exactly the dirty state.
    @raise Invalid_argument on deleting an absent fact, or on a
    [set_tau] whose relation is not an atom of the query. *)

val shapley_all :
  t -> (Aggshap_relational.Fact.t * Aggshap_arith.Rational.t) list
(** Exact Shapley values of all currently endogenous facts, reusing
    every clean cached table; dirty games are recomputed on demand. *)

val query : t -> Aggshap_agg.Agg_query.t
val database : t -> Aggshap_relational.Database.t

(** {1 Reuse statistics} *)

type stats = {
  steps : int;  (** updates applied *)
  games_computed : int;  (** membership games (re)computed, Linear engine *)
  games_reused : int;  (** games served from cache across all reads *)
  full_recomputes : int;  (** [set_tau] memo flushes, Generic engine *)
  tables : Aggshap_core.Memo.stats;  (** the shared DP-table cache *)
}

val stats : t -> stats

val reuse_ratio : stats -> float option
(** [games_reused / (games_computed + games_reused)], [None] before any
    game has been read (e.g. the Generic engine, which reuses through
    [tables] instead). *)

val stats_to_string : stats -> string
