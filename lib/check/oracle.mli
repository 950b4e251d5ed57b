(** The differential-testing oracle: every check a trial must pass.

    For a trial within the aggregate's tractability frontier the oracle
    cross-validates the polynomial dynamic program against the
    {!Aggshap_core.Naive} enumeration and checks the game-theoretic
    axioms; outside the frontier it checks the fallback plumbing
    (deterministic seeded Monte-Carlo, up-front [`Fail]). In both cases
    it checks that every engine configuration — cache on/off, one worker
    vs a pool, batch vs per-fact loop — returns identical exact values. *)

type failure = {
  check : string;  (** short name of the violated check *)
  detail : string;  (** human-readable disagreement *)
}

val failure_to_string : failure -> string

val run :
  ?par_jobs:int -> ?kc_always:bool -> ?auto_always:bool ->
  Trial.t -> failure option
(** First failing check of the trial, or [None] when all pass.
    [par_jobs] (default [2]) is the pool width used by the parallel
    engine-equivalence checks; pass [1] to keep the whole run in the
    calling domain (required while {!Aggshap_core.Tables.fault} is set).
    The knowledge-compilation tier is cross-checked against the naive
    reference on every trial outside the frontier whose aggregate it
    supports; [kc_always] (default [false]) extends that check to trials
    inside the frontier by driving {!Aggshap_lineage.Lineage} directly.
    The solve planner's [`Auto] route is likewise checked bit-identical
    to the naive reference on every trial outside the frontier;
    [auto_always] (default [false]) extends it to every trial.
    Exceptions escaping the system under test are reported as an
    ["exception"] failure rather than propagated. *)

val run_updates : Utrial.t -> failure option
(** Replays the trial's op script through a live
    {!Aggshap_incr.Session}, checking after the initial build and after
    every op that the session's values are bit-identical to naive
    enumeration ({!Aggshap_core.Naive.shapley_all} on the scan
    evaluator) over an independently tracked database and τ. Runs
    entirely in the calling domain (safe while a fault is injected);
    exceptions are reported as ["exception"] failures. *)
