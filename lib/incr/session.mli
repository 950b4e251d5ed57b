(** A live solver session: exact all-facts Shapley values maintained
    incrementally under database updates.

    The session owns the one cache that pays across reads, and decides
    alone what it reuses; no table cache is threaded through the
    engine:

    - {b Sum/Count} (the [Linear] engine): by linearity the Shapley
      value is a weighted sum over per-answer membership games, and each
      game restricted to the facts matching its atoms has the same exact
      values (everything else is a null player). The session caches the
      per-fact contributions of every game, computed by one Boolean
      variant pass per dirty game ({!Aggshap_core.Boolean_dp.shapley_all});
      [insert]/[delete] dirty only
      the games whose atoms match the touched fact, [set_tau] dirties
      nothing (the games are τ-independent — only the answer weights,
      re-derived on every read, change).
    - {b Min/Max, Count-distinct, Avg/Median/Quantile, Has-duplicates}
      (the [Generic] engine): every read is a one-shot
      {!Aggshap_core.Batch.shapley_all} on the current database and τ,
      so an update invalidates nothing. A DP-table cache would save
      less than its keys cost, since the variant pass rebuilds every
      fact's removal table on every read (DESIGN.md §5).

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
(** Exact Shapley values of all currently endogenous facts. The Linear
    engine reuses every clean game's contributions and recomputes the
    dirty games; the Generic engine solves from scratch. *)

val query : t -> Aggshap_agg.Agg_query.t
val database : t -> Aggshap_relational.Database.t

(** {1 Reuse statistics} *)

type stats = {
  steps : int;  (** updates applied *)
  games_computed : int;  (** membership games (re)computed, Linear engine *)
  games_reused : int;  (** games served from cache across all reads *)
  tables : Aggshap_core.Memo.stats;
      (** always zero: no DP-table cache is kept. Kept for the benchmark
          in [perf/], which reads it (ROADMAP item 9). *)
}

val stats : t -> stats

val reuse_ratio : stats -> float option
(** [games_reused / (games_computed + games_reused)], [None] before any
    game has been read (always, for the Generic engine). *)

val stats_to_string : stats -> string
