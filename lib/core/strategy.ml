(* The solve planner (DESIGN.md §11).

   One module enumerates every route to an answer, attaches an
   applicability predicate and a cost estimate, and ranks them into an
   explainable plan. The cost model reads only the database's O(1)
   segment statistics; it is calibrated to pick the empirically faster
   tier at the measured crossover, not to predict wall-clock. All dispatch — Solver, API, CLI, server, check,
   bench — goes through [plan], so the fallback variant type below is
   the only definition in the repo. *)

module Hierarchy = Aggshap_cq.Hierarchy
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Database = Aggshap_relational.Database
module Lineage = Aggshap_lineage.Lineage

type fallback =
  [ `Auto
  | `Naive
  | `Monte_carlo of int
  | `Knowledge_compilation
  | `Fail ]

type route =
  | Frontier_dp
  | Knowledge_compilation
  | Naive
  | Monte_carlo of int
  | Fail

type db_stats = {
  endo : int;
  facts : int;
  relations : int;
}

let db_stats db =
  { endo = Database.endo_size db;
    facts = Database.size db;
    relations = List.length (Database.relations db) }

type candidate = {
  route : route;
  algorithm : string;
  applicable : bool;
  cost : float option;
  reason : string;
}

type plan = {
  requested : fallback;
  chosen : route;
  algorithm : string;
  ladder : route list;
  candidates : candidate list;
  stats : db_stats option;
  kc_node_budget : int option;
}

(* {1 Cost model}

   Abstract units. The constants put the naive/KC crossover at n = 6:
   n³+64 < n·2ⁿ first holds there (280 < 384), matching E20's
   observation that enumeration only wins on toy instances while
   compilation amortizes one extraction across every fact. *)

let dp_cost n = (float_of_int n *. float_of_int n) +. 1.
let kc_cost n = (float_of_int n ** 3.) +. 64.
let naive_cost n = float_of_int n *. (2. ** float_of_int n)
let mc_cost samples n = float_of_int samples *. float_of_int n

(* {1 Naming} *)

let dp_name = function
  | Aggregate.Sum | Aggregate.Count -> "sum/count via linearity + Boolean DP"
  | Aggregate.Count_distinct -> "count-distinct via per-value Boolean DP"
  | Aggregate.Min | Aggregate.Max -> "min/max (a,k)-table DP"
  | Aggregate.Avg -> "avg first-moment (l,k)-table DP"
  | Aggregate.Median | Aggregate.Quantile _ -> "avg/quantile (a,k,l)-table DP"
  | Aggregate.Has_duplicates -> "has-duplicates P0/P1 DP"

let route_name (a : Agg_query.t) = function
  | Frontier_dp -> dp_name a.alpha
  | Knowledge_compilation ->
    "knowledge compilation (d-DNNF lineage, Shapley by weighted model counting)"
  | Naive -> "naive enumeration (exponential)"
  | Monte_carlo _ -> "Monte-Carlo permutation sampling"
  | Fail -> "none (outside the frontier, fallback disabled)"

let degraded_name a route =
  route_name a route ^ " (after a knowledge-compilation node-budget abort)"

let route_label = function
  | Frontier_dp -> "frontier-dp"
  | Knowledge_compilation -> "knowledge-compilation"
  | Naive -> "naive"
  | Monte_carlo _ -> "mc"
  | Fail -> "fail"

let fallback_label = function
  | `Auto -> "auto"
  | `Naive -> "naive"
  | `Knowledge_compilation -> "knowledge-compilation"
  | `Monte_carlo s -> Printf.sprintf "mc:%d" s
  | `Fail -> "fail"

(* {1 The planner} *)

let plan ?stats ?kc_node_budget ?(fallback = `Naive) (a : Agg_query.t) =
  let cls = Hierarchy.classify a.query in
  let front = Frontier.frontier a.alpha in
  let within = Hierarchy.cls_leq cls front in
  let supported = Lineage.supports a.alpha in
  let agg = Aggregate.to_string a.alpha in
  let cost_of f = Option.map (fun s -> f s.endo) stats in
  let candidates =
    [ { route = Frontier_dp;
        algorithm = route_name a Frontier_dp;
        applicable = within;
        cost = (if within then cost_of dp_cost else None);
        reason =
          (if within then "inside the frontier; polynomial in the database"
           else
             Printf.sprintf "the query is %s but the %s frontier is %s"
               (Hierarchy.cls_to_string cls) agg
               (Hierarchy.cls_to_string front)) };
      { route = Knowledge_compilation;
        algorithm = route_name a Knowledge_compilation;
        applicable = supported;
        cost = (if supported then cost_of kc_cost else None);
        reason =
          (if supported then
             "exact; exponential only in the lineage's branching structure"
           else
             Printf.sprintf "%s is not a linear combination of Boolean events"
               agg) };
      { route = Naive;
        algorithm = route_name a Naive;
        applicable = true;
        cost = cost_of naive_cost;
        reason = "exact enumeration over all 2^n subsets; always applicable" };
      (match fallback with
      | `Monte_carlo samples ->
        { route = Monte_carlo samples;
          algorithm = route_name a (Monte_carlo samples);
          applicable = true;
          cost = cost_of (mc_cost samples);
          reason = "approximate permutation sampling; runs only when forced" }
      | _ ->
        { route = Monte_carlo 0;
          algorithm = route_name a (Monte_carlo 0);
          applicable = false;
          cost = None;
          reason =
            "approximate; never auto-selected (force with mc:SAMPLES[:SEED])" });
      { route = Fail;
        algorithm = route_name a Fail;
        applicable = (fallback = `Fail);
        cost = None;
        reason = "diagnostic: raise instead of solving outside the frontier" } ]
  in
  let chosen, ladder =
    if within then (Frontier_dp, [ Frontier_dp ])
    else
      match fallback with
      | `Naive -> (Naive, [ Naive ])
      | `Knowledge_compilation ->
        if supported then (Knowledge_compilation, [ Knowledge_compilation; Naive ])
        else (Naive, [ Naive ])
      | `Monte_carlo samples -> (Monte_carlo samples, [ Monte_carlo samples ])
      | `Fail -> (Fail, [ Fail ])
      | `Auto ->
        (* Cheapest applicable exact tier. Monte-Carlo is approximate
           and never auto-selected. Without statistics, prefer the
           asymptotically safer compilation tier when it applies. *)
        let kc_wins =
          supported
          &&
          match stats with
          | None -> true
          | Some s -> kc_cost s.endo <= naive_cost s.endo
        in
        if kc_wins then (Knowledge_compilation, [ Knowledge_compilation; Naive ])
        else (Naive, [ Naive ])
  in
  let algorithm =
    if within then route_name a Frontier_dp
    else
      match (fallback, chosen) with
      | `Knowledge_compilation, Naive ->
        (* Legacy wording: forced compilation on an aggregate the
           lineage tier does not cover keeps the naive behaviour and
           says so. *)
        Printf.sprintf
          "naive enumeration (exponential; knowledge compilation does not \
           cover %s)"
          agg
      | `Auto, r -> route_name a r ^ " (selected by the solve planner)"
      | _, r -> route_name a r
  in
  { requested = fallback; chosen; algorithm; ladder; candidates; stats;
    kc_node_budget }

(* {1 Rendering} *)

let candidate_line chosen c =
  Printf.sprintf "%s %s (%s, %s): %s"
    (if c.route = chosen then "*" else "-")
    (route_label c.route)
    (if c.applicable then "applicable" else "not applicable")
    (match c.cost with
    | Some x -> Printf.sprintf "cost ~%.0f" x
    | None -> "cost n/a")
    c.reason

let render_candidates p = List.map (candidate_line p.chosen) p.candidates
