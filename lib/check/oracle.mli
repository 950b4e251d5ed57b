(** The differential-testing oracle: every check a trial must pass.

    For a trial within the aggregate's tractability frontier the oracle
    cross-validates the polynomial dynamic program against the
    {!Aggshap_core.Naive} enumeration and checks the game-theoretic
    axioms; outside the frontier it checks the fallback plumbing
    (deterministic seeded Monte-Carlo, up-front [`Fail]) and the
    planner's [`Auto] pick. In both cases it checks that the all-facts
    batch returns the per-fact loop's exact values, that the
    knowledge-compilation tier matches naive enumeration wherever it
    supports the aggregate, and that the Banzhaf score agrees with its
    textbook reference. *)

type failure = {
  check : string;  (** short name of the violated check *)
  detail : string;  (** human-readable disagreement *)
}

val failure_to_string : failure -> string

val run : ?par_jobs:int -> Trial.t -> failure option
(** First failing check of the trial, or [None] when all pass.
    [par_jobs] (default [2]) is the pool width of the Monte-Carlo
    check ["mc-seed-jobs-invariant"], the only check that leaves the
    calling domain; pass [1] to keep the whole run in the calling
    domain (required while {!Aggshap_arith.Fault.current} is armed).
    ["kc-vs-naive"] runs on every trial whose aggregate the lineage
    tier supports: outside the frontier through the solver's forced
    [`Knowledge_compilation] route, inside it by driving
    {!Aggshap_lineage.Lineage} directly. ["auto-vs-naive"] checks the
    solve planner's [`Auto] pick on every trial outside the frontier;
    inside it [`Auto] plans the frontier DP, whose batch
    ["batch-vs-per-fact"] has already checked.
    The last check, ["banzhaf-vs-naive"], runs on every trial: the
    solver's Banzhaf values under [`Auto] (one worker) must equal the
    textbook {!Aggshap_core.Game.banzhaf} loop over the naive game, and
    so must forced [`Knowledge_compilation] outside the frontier when
    the lineage tier supports the aggregate.
    Exceptions escaping the system under test are reported as an
    ["exception"] failure rather than propagated. *)

val run_updates : Utrial.t -> failure option
(** Replays the trial's op script through a live
    {!Aggshap_incr.Session}, checking after the initial build and after
    every op that the session's values are bit-identical to naive
    enumeration ({!Aggshap_core.Naive.shapley_all} on the scan
    evaluator) over an independently tracked database and τ; once every
    step agrees, {!run}'s ["banzhaf-vs-naive"] check runs on the final
    database and τ. Runs entirely in the calling domain (safe while a
    fault is injected); exceptions are reported as ["exception"]
    failures. *)
