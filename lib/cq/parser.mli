(** Textual front-end for queries and facts.

    Query syntax (datalog-like):
    {v Q(x, z) <- R(x, y), S(y), T(z) v}
    Bare identifiers are variables; integer literals and quoted strings
    (['...'] or ["..."]) are constants; [_] is an anonymous (fresh)
    existential variable; [:-] is accepted for [<-]; a trailing period is
    optional.

    Fact syntax (one per line):
    {v R(1, 'alice')          -- endogenous (default)
       S(2) @exo              -- exogenous v}
    [#] starts a comment. *)

val quote : string -> string
(** How an error message quotes input text: escaped and double-quoted
    as by [%S], and past 64 bytes cut to its first 64 and followed by
    its full length, as in ["7777"... (100 bytes)] with 64 sevens. A
    refused request therefore never comes back whole in its error. *)

val parse_query : string -> (Cq.t, string) result

val parse_query_exn : string -> Cq.t
(** @raise Invalid_argument on parse errors. *)

val parse_fact :
  string ->
  (Aggshap_relational.Fact.t * Aggshap_relational.Database.provenance, string) result

val parse_database : string -> (Aggshap_relational.Database.t, string) result
(** Parses a multi-line fact listing; blank lines and comments allowed. *)
