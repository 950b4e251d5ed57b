(** The solve planner: one module that owns every route to an answer.

    The paper's dichotomy says which algorithm is polynomial; the repo
    has grown four ways to answer any query regardless — the six
    frontier DPs, the knowledge-compilation tier, Monte-Carlo sampling
    and naive enumeration. This module is the single place where those
    routes are enumerated, paired with an applicability predicate and a
    cost estimate (fed by the database's O(1) segment statistics), and
    ranked into an explainable {!plan}: which route runs, why, and what the solver
    degrades to when a tier aborts mid-solve (the d-DNNF node budget).

    Every call site — {!Solver.shapley}{,_all}, [Aggshap_api],
    [shapctl], the SHAPWIRE [solve_query]/[explain] ops, the check
    oracle, fuzz and bench — dispatches through {!plan}. The
    {!fallback} variant below is therefore the {e only} definition of
    the fallback request type in the repo. See DESIGN.md §11. *)

type fallback =
  [ `Auto  (** let the planner pick the cheapest applicable exact tier *)
  | `Naive
  | `Monte_carlo of int  (** samples *)
  | `Knowledge_compilation
  | `Fail ]
(** What the caller asked for outside the frontier. Inside the frontier
    the polynomial DP always runs and the request is moot. *)

type route =
  | Frontier_dp  (** the aggregate's polynomial DP (within frontier only) *)
  | Knowledge_compilation  (** lineage → d-DNNF → WMC; exact *)
  | Naive  (** exact enumeration over all 2ⁿ subsets *)
  | Monte_carlo of int  (** permutation sampling; approximate *)
  | Fail  (** diagnostic: raise instead of solving *)
      (** A concrete way to solve the instance — the planner's unit of
          choice. *)

type db_stats = {
  endo : int;  (** endogenous facts = players = the n of 2ⁿ *)
  facts : int;  (** total database size *)
  relations : int;  (** relations with at least one fact *)
}
(** The segment statistics the cost model reads; all O(1) or
    O(relations) on the indexed store. *)

val db_stats : Aggshap_relational.Database.t -> db_stats

type candidate = {
  route : route;
  algorithm : string;  (** human-readable name, same vocabulary as reports *)
  applicable : bool;
  cost : float option;  (** abstract units; [None] without {!db_stats} *)
  reason : string;  (** why it applies / why it was rejected *)
}

type plan = {
  requested : fallback;
  chosen : route;
  algorithm : string;
      (** the name {!Solver.report} carries for the chosen route,
          including the legacy forced-KC-on-unsupported-aggregate
          wording and the "(selected by the solve planner)" marker on
          auto picks *)
  ladder : route list;
      (** degradation ladder, chosen route first: when a tier aborts
          mid-solve (d-DNNF node budget), the solver falls to the next
          rung *)
  candidates : candidate list;
      (** every route the planner considered, in fixed display order *)
  stats : db_stats option;
  kc_node_budget : int option;
}

val plan :
  ?stats:db_stats ->
  ?kc_node_budget:int ->
  ?fallback:fallback ->
  Aggshap_agg.Agg_query.t ->
  plan
(** The full planning decision, without solving anything. Within the
    frontier the polynomial DP is chosen unconditionally. Outside it,
    forced modes ([`Naive], [`Knowledge_compilation], [`Monte_carlo],
    [`Fail], the default being [`Naive]) reproduce the historical
    dispatch exactly — including forced knowledge compilation on an
    unsupported aggregate degrading to naive enumeration — while
    [`Auto] picks the cheapest applicable {e exact} tier under the cost
    model (Monte-Carlo is never auto-selected: the wire and the oracle
    demand exact rationals). Without [stats] the cost column is empty
    and [`Auto] prefers knowledge compilation whenever the aggregate
    supports it (the asymptotically safer pick). *)

(** {1 Cost model}

    Abstract cost units (not seconds), comparable only to each other;
    [n] is the endogenous fact count. The constants are calibrated so
    the naive/KC crossover sits at n = 6, matching the E20 measurement
    that naive wins only on toy instances. *)

val dp_cost : int -> float
(** [n² + 1] — the frontier DPs are low-polynomial in the database. *)

val kc_cost : int -> float
(** [n³ + 64] — compilation is polynomial on hierarchical-ish lineage
    but pays a fixed extraction + compilation overhead; the node budget
    guards the genuinely exponential cases at run time. *)

val naive_cost : int -> float
(** [n · 2ⁿ] — exact enumeration evaluates the 2ⁿ subsets once per
    solve, plus [n·2ⁿ⁻¹] integer additions that sum them into every
    fact's value; the formula overstates that and awaits a measured
    fit. *)

val mc_cost : int -> int -> float
(** [mc_cost samples n = samples · n] — linear, but approximate. *)

(** {1 Naming and rendering} *)

val route_label : route -> string
(** Short machine-readable slug ("frontier-dp", "knowledge-compilation",
    "naive", "mc", "fail") — the vocabulary of [explain --json] and the
    E21 bench rows. *)

val fallback_label : fallback -> string
(** The CLI spelling: "auto", "naive", "knowledge-compilation",
    "mc:SAMPLES", "fail". *)

val route_name : Aggshap_agg.Agg_query.t -> route -> string
(** The human-readable algorithm name {!Solver.report} has always
    carried (the DP names depend on the aggregate). *)

val degraded_name : Aggshap_agg.Agg_query.t -> route -> string
(** [route_name] with the " (after a knowledge-compilation node-budget
    abort)" marker — the report wording when a later rung of the ladder
    answered. *)

val render_candidates : plan -> string list
(** One line per candidate ("*" marks the chosen route) with cost and
    reason — what [shapctl explain] and the server's explain op
    print. *)
