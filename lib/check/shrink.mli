(** Greedy minimizer for failing trials.

    One greedy descent over single removals — database facts first,
    then query atoms (never the atom the value function is localized
    on) — accepts the first removal that keeps the trial failing the
    oracle and restarts from the smaller trial. It stops only when no
    single removal keeps the trial failing, so the result is 1-minimal:
    removing any single remaining fact or atom makes the failure
    disappear. *)

val minimize :
  (Trial.t -> Oracle.failure option) ->
  Trial.t ->
  Oracle.failure ->
  Trial.t * Oracle.failure
(** [minimize check t f] assumes [check t = Some f] and returns the
    minimized trial together with the failure it still exhibits (which
    may differ from [f] as the instance shrinks). *)

val minimize_updates :
  (Utrial.t -> Oracle.failure option) ->
  Utrial.t ->
  Oracle.failure ->
  Utrial.t * Oracle.failure
(** Same contract for update-sequence trials: one descent over single
    removals of script ops, then base-database facts, accepting only
    removals that keep the trial {!Utrial.wellformed} (a delete aimed at
    a just-removed fact would fail for the wrong reason) and still
    failing, so the result is 1-minimal over ops and base facts. *)
