(** The solve/session orchestration layer.

    Everything [shapctl] used to do between argument parsing and
    printing now lives here as result-typed functions, so the CLI, the
    {!Aggshap_server} session server, and the load generator drive one
    implementation. Nothing here prints or exits; [Invalid_argument]
    raised by the library is converted to [Error] at this boundary. *)

module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Solver = Aggshap_core.Solver
module Strategy = Aggshap_core.Strategy
module Json = Aggshap_json.Json
module Session = Aggshap_incr.Session
module Script = Aggshap_incr.Script
module Update = Aggshap_incr.Update

val trap : (unit -> 'a) -> ('a, string) result
(** Runs [f], converting [Invalid_argument msg] to [Error msg]. *)

(** {1 Parsing} *)

val parse_query : string -> (Cq.t, string) result
(** With a ["cannot parse query %S: ..."] context prefix. *)

val parse_database_text : string -> (Database.t, string) result
val load_database : string -> (Database.t, string) result
(** Reads and parses a database file; errors name the path. *)

val parse_fact :
  string -> (Fact.t * Database.provenance, string) result

val parse_tau : Cq.t -> string -> (Value_fn.t, string) result
(** {!Value_fn.of_spec}'s grammar ([id:REL:POS | relu:REL:POS |
    gt:REL:POS:BOUND | const:REL:VALUE]), then a check that [REL] is an
    atom of the query. *)

val default_tau : Cq.t -> (Value_fn.t, string) result
(** The constant-1 value function on the first atom. *)

val parse_aggregate : string -> (Aggregate.t, string) result

val make_agg_query :
  agg:string -> tau:string option -> Cq.t -> (Agg_query.t, string) result
(** Parses the aggregate and τ spec ([None] = {!default_tau}) and
    builds the aggregate query. *)

val parse_fallback :
  string -> (Strategy.fallback * int option, string) result
(** [auto | naive | knowledge-compilation (or kc) | fail |
    mc:SAMPLES[:SEED]]; the second component is the Monte-Carlo seed,
    if one was given. The fallback type is
    {!Aggshap_core.Strategy.fallback} — the solve planner owns its only
    definition. *)

val parse_wire_fallback : string -> (Strategy.fallback, string) result
(** {!parse_fallback} restricted to what the SHAPWIRE protocol carries:
    exact rationals only, so [mc:...] is rejected with the same message
    in [shapctl client] and raw-mode requests. *)

type score = Aggshap_arith.Score.t = Shapley | Banzhaf
(** The library's one score type, re-exported. *)

val parse_score : string -> (score, string) result

val schema_warnings : Cq.t -> Database.t -> string list
(** Arity mismatches between the query's induced schema and the
    database, phrased as warnings. *)

(** {1 Classify / explain} *)

type classify_row = {
  alpha : Aggregate.t;
  frontier : Hierarchy.cls;
  tractable : bool;
}

val classify : Cq.t -> Hierarchy.cls * classify_row list
(** The query's class and, per aggregate, its frontier and whether this
    query falls inside it. *)

type explanation = {
  chain : (string * bool) list;  (** hierarchy classes, outermost first *)
  cls : Hierarchy.cls;
  frontier : Hierarchy.cls;
  within_frontier : bool;
  algorithm : string;
  plan : Strategy.plan;  (** the full planner decision *)
}

val explain :
  ?fallback:Strategy.fallback ->
  ?db:Database.t ->
  ?kc_node_budget:int ->
  Agg_query.t ->
  explanation
(** Classification plus the solve plan. [db] feeds the planner's cost
    model (without it the cost column is empty and [`Auto] picks by
    applicability alone). *)

val plan_lines : explanation -> string list
(** One rendered line per planner candidate — what [shapctl explain]
    and the server's explain op print. *)

val explanation_to_json : Agg_query.t -> explanation -> Json.t
(** The machine-readable form behind [shapctl explain --json]: query,
    aggregate, hierarchy chain, frontier verdict, and the plan with
    per-candidate cost estimates and rejection reasons. *)

(** {1 Solving} *)

val eval : Agg_query.t -> Database.t -> (Q.t, string) result

val check_jobs : int option -> (unit, string) result

type solve_result = {
  values : (Fact.t * Solver.outcome) list;
  report : Solver.report option;
      (** always [Some], for either score; the option stays because
          existing callers match on it *)
}

val shapley_all :
  ?score:score -> ?fallback:Strategy.fallback -> ?mc_seed:int -> ?jobs:int ->
  ?kc_node_budget:int ->
  Agg_query.t -> Database.t -> (solve_result, string) result
(** All endogenous facts, through {!Solver.shapley_all}; [score]
    defaults to Shapley. *)

val shapley_fact :
  ?score:score -> ?fallback:Strategy.fallback -> ?mc_seed:int ->
  ?kc_node_budget:int ->
  Agg_query.t -> Database.t -> string -> (solve_result, string) result
(** One fact, given in fact syntax, through {!Solver.shapley}. *)

(** {1 Sessions} *)

(** Everything needed to (re)build a live session from strings: the
    payload of the server's [open] request and of on-disk snapshots.
    [tau = None] is the default constant-1 value function. *)
type session_spec = {
  query : string;
  db : string;  (** database text, {!Aggshap_cq.Parser.parse_database} syntax *)
  agg : string;
  tau : string option;
  jobs : int option;
      (** validated (at least 1) and kept in snapshots; a session solves
          in the calling domain whatever it says *)
}

val open_session : session_spec -> (Session.t, string) result

val render_database : Database.t -> string
(** Database text for the current facts (with [@exo] markers);
    {!parse_database_text} inverts it. The snapshot half of the
    session snapshot/restore cycle. *)

val parse_script : string -> ((int * Update.t) list, string) result
(** {!Script.parse} with a ["script "] context prefix on errors. *)

val apply_script : Session.t -> string -> (int, string) result
(** Parses and applies a whole update script, returning how many
    operations were applied. On failure the error names the 1-based
    script line; operations before it stay applied. *)
