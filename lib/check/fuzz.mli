(** The seeded fuzzing driver behind [shapctl fuzz].

    Trial [i] of a run with master seed [s] is generated from the
    derived seed [trial_seed s i], so any failing trial can be replayed
    in isolation and a fixed-seed corpus replays bit-identically. *)

type config = {
  seed : int;  (** master seed *)
  trials : int;
  max_endo : int;  (** endogenous-fact cap per trial (naive-oracle cost) *)
  par_jobs : int;  (** pool width for the Monte-Carlo jobs-invariance check *)
  max_failures : int;  (** stop after this many (shrunk) failures *)
}

val default : config
(** [{ seed = 0; trials = 100; max_endo = 8; par_jobs = 2; max_failures = 3 }] *)

type 't failure_report = {
  trial : 't;  (** the trial as generated *)
  failure : Oracle.failure;  (** what it violated *)
  shrunk : 't;  (** the 1-minimal reproducer *)
  shrunk_failure : Oracle.failure;  (** the violation the reproducer shows *)
}

type 't report = {
  ran : int;  (** trials executed (≤ [trials] when failures stop the run) *)
  failures : 't failure_report list;
}

val trial_seed : master:int -> int -> int
(** The derived seed of the [i]-th trial. *)

val parse_corpus : string -> int list
(** Parses the contents of a fixed-seed corpus file: one trial seed per
    line, [#] comments and blank lines ignored.
    @raise Invalid_argument on a malformed line. *)

val run_one :
  ?max_endo:int -> ?par_jobs:int -> seed:int -> unit -> Trial.t * Oracle.failure option
(** Generate and check a single trial from a derived seed. *)

val run_updates_one : ?max_endo:int -> seed:int -> unit -> Utrial.t * Oracle.failure option
(** Generate and check a single update-sequence trial from a derived
    seed (same derivation as {!run_one}, so seeds are shared between the
    two corpora). Runs entirely in the calling domain. *)

val run : ?on_trial:(int -> Trial.t -> unit) -> config -> Trial.t report
(** The batch campaign: [config.trials] trials from the derived seeds of
    [config.seed] through {!Oracle.run}, each failure minimized with
    {!Shrink.minimize} before it is recorded; the run stops early once
    [config.max_failures] failures have been collected. [on_trial i t]
    sees every trial before it is checked. *)

val run_updates : ?on_trial:(int -> Utrial.t -> unit) -> config -> Utrial.t report
(** The update-sequence campaign, in the same loop on the same derived
    seeds: every trial through {!Oracle.run_updates}, failures minimized
    with {!Shrink.minimize_updates}; [config.par_jobs] is unused here
    since the session replay is single-domain. *)
