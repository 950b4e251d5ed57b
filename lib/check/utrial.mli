(** One update-sequence trial: a within-frontier base trial plus a
    random script of insert/delete/set_tau operations, replayed through
    {!Aggshap_incr.Session} and cross-checked step by step against
    naive enumeration. *)

type t = {
  trial : Trial.t;  (** the initial query/database/aggregate/τ *)
  ops : Aggshap_incr.Update.t list;  (** the update stream, in order *)
}

val generate : ?max_endo:int -> seed:int -> unit -> t
(** Fully determined by [seed]. The base trial is drawn with
    {!Trial.generate} (scanning derived seeds until the query is inside
    the aggregate's frontier); 1–6 ops follow, with deletes aimed at
    facts present at that point of the stream and inserts capped so at
    most [max_endo] (default 8, at most {!Aggshap_core.Game.max_players})
    facts are endogenous at any step — each step's naive reference
    enumerates [2^max_endo] coalitions. *)

val wellformed : t -> bool
(** Every delete targets a present fact, every [set_tau] relation is an
    atom of the query, and the query is within the frontier — the
    invariant the shrinker must preserve. *)

val to_string : t -> string

val to_script : t -> string
(** Ready-to-run reproducer: database heredoc, update-script heredoc,
    and the [shapctl session] invocation. *)
