(** Thread-safe memoization of dynamic-programming tables, owned by an
    incremental session.

    A session re-solves after every update, yet an update only
    perturbs the blocks it touches: every other [(sub-query, block)]
    sub-instance produces the same table as before (the observation of
    Livshits et al. for Boolean CQs, carried across time). A ['v t]
    caches those tables under the {!Aggshap_cq.Decompose.block_key} of
    the sub-instance and is safe to share across domains. One-shot
    solves keep no memo: the serialised keys cost more to build than
    the recomputation they saved (DESIGN.md §6).

    A memo table is only sound while the inputs outside its key (the
    value function τ, the reference value for quantile tables) stay
    fixed. Callers that keep a memo alive across runs must therefore pin
    those inputs: {!Batch.create_memo} stamps the memo with a fingerprint
    of [(aggregate, τ, query)] and {!Batch.shapley_all} refuses a memo
    whose fingerprint does not match the run's query — so a τ change can
    never serve stale tables. The incremental engine
    ({!Aggshap_incr.Session}) relies on exactly this contract to reuse
    one memo across a whole update stream, replacing it whenever
    [set_tau] changes the fingerprint. *)

type stats = {
  hits : int;
  misses : int;
}

val merge_stats : stats -> stats -> stats
val stats_to_string : stats -> string

type 'v t

val create : unit -> 'v t

val stats : 'v t -> stats

val find_or_compute : 'v t option -> key:(unit -> string) -> (unit -> 'v) -> 'v
(** [find_or_compute memo ~key compute] returns the cached value for
    [key ()], computing and caching it on a miss. With [None] it just
    runs [compute] (and never evaluates the key). The cached value must
    be an immutable, pure function of the key. *)
