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
  kc_always : bool;
      (** also cross-check the knowledge-compilation tier on trials
          {e inside} the frontier (it is always checked outside) *)
  auto_always : bool;
      (** also cross-check the solve planner's [`Auto] route on trials
          {e inside} the frontier (it is always checked outside) *)
}

val default : config
(** [{ seed = 0; trials = 100; max_endo = 8; par_jobs = 2; max_failures = 3;
       kc_always = false; auto_always = false }] *)

type failure_report = {
  trial : Trial.t;  (** the trial as generated *)
  failure : Oracle.failure;  (** what it violated *)
  shrunk : Trial.t;  (** the 1-minimal reproducer *)
  shrunk_failure : Oracle.failure;  (** the violation the reproducer shows *)
}

type report = {
  ran : int;  (** trials executed (≤ [trials] when failures stop the run) *)
  failures : failure_report list;
}

val trial_seed : master:int -> int -> int
(** The derived seed of the [i]-th trial. *)

val parse_corpus : string -> int list
(** Parses the contents of a fixed-seed corpus file: one trial seed per
    line, [#] comments and blank lines ignored.
    @raise Invalid_argument on a malformed line. *)

val run_one :
  ?max_endo:int -> ?par_jobs:int -> ?kc_always:bool -> ?auto_always:bool ->
  seed:int -> unit ->
  Trial.t * Oracle.failure option
(** Generate and check a single trial from a derived seed. *)

val run : ?on_trial:(int -> Trial.t -> unit) -> config -> report
(** Runs [config.trials] trials. Each failure is minimized with
    {!Shrink.minimize} before being recorded; the run stops early once
    [config.max_failures] failures have been collected. *)

type ufailure_report = {
  utrial : Utrial.t;  (** the update trial as generated *)
  ufailure : Oracle.failure;  (** what it violated *)
  ushrunk : Utrial.t;  (** the 1-minimal reproducer *)
  ushrunk_failure : Oracle.failure;  (** the violation the reproducer shows *)
}

type ureport = {
  uran : int;  (** update trials executed *)
  usteps : int;  (** total ops replayed across all trials *)
  ufailures : ufailure_report list;
}

val run_updates_one : ?max_endo:int -> seed:int -> unit -> Utrial.t * Oracle.failure option
(** Generate and check a single update-sequence trial from a derived
    seed (same derivation as {!run_one}, so seeds are shared between the
    two corpora). Runs entirely in the calling domain. *)

val run_updates : ?on_trial:(int -> Utrial.t -> unit) -> config -> ureport
(** The update-sequence campaign: [config.trials] trials through
    {!Oracle.run_updates}, failures minimized with
    {!Shrink.minimize_updates}; [config.par_jobs] is unused here since
    the session replay is single-domain. *)
