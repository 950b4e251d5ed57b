(* Closed-loop, one-caller workloads over a seeded pool of distinct
   one-shot instances: frontier_mix (the paper's polynomial DPs) and
   beyond_frontier (knowledge compilation and naive enumeration picked
   by the planner's auto mode). One request turns instance text into
   exact Shapley values through the public front door:
   Api.parse_query / parse_database_text / make_agg_query, then
   Api.shapley_all with jobs = 1. *)

module Api = Aggshap_api.Api
module Q = Aggshap_arith.Rational
module Database = Aggshap_relational.Database
module Agg_query = Aggshap_agg.Agg_query
module Solver = Aggshap_core.Solver
module Strategy = Aggshap_core.Strategy
module Batch = Aggshap_core.Batch
module Memo = Aggshap_core.Memo
module Eval = Aggshap_cq.Eval
module Hierarchy = Aggshap_cq.Hierarchy
module Lineage = Aggshap_lineage.Lineage

type slot = {
  inst : Gen.instance;
  mutable reference : (Aggshap_relational.Fact.t * Q.t) list;
  mutable route : string;  (** "frontier_dp", "kc" or "naive", from the report *)
  mutable uses : int;  (** requests made so far; odd ones are traced *)
  mutable traced_solves : int;
}

(* Sizes per class are fixed by the workload; the seed draws the
   constants. Each class spans a band of sizes, two instances per size,
   so the body of the latency distribution has no gap for the median to
   straddle and no one instance decides it. The tail is one instance of
   steady cost (a few per cent between seeds) that makes 2-4 % of the
   requests, so p99 falls near its own median rather than on the
   noisy top of a larger cluster. *)
let twice st f sizes = List.concat_map (fun n -> [ f st n; f st n ]) sizes

let frontier_pool ~smoke st =
  if smoke then
    [ Gen.max_xyy st 12; Gen.cdist_xyy st 12; Gen.avg_full st 5; Gen.median_full st 5;
      Gen.dup_q1 st 12; Gen.count_xyy st 12; Gen.sum_exists st 12 ]
  else
    List.concat
      [ twice st Gen.max_xyy [ 24; 27; 30 ];
        twice st Gen.cdist_xyy [ 30; 40; 50 ];
        twice st Gen.avg_full [ 7; 8; 9 ];
        twice st Gen.median_full [ 7; 8; 9 ];
        twice st Gen.dup_q1 [ 24; 30; 36 ];
        twice st Gen.count_xyy [ 20; 24; 28 ];
        twice st Gen.sum_exists [ 30; 36; 42 ];
        [ Gen.avg_full st 11 ] ]

let beyond_pool ~smoke st =
  if smoke then
    [ Gen.rst_count st 4; Gen.cdist_nonhier st 24; Gen.avg_naive st 7; Gen.rst_budget st 3 ]
  else
    List.concat
      [ twice st Gen.rst_count [ 5; 6; 6 ];
        twice st Gen.rst_max [ 5; 6; 6 ];
        twice st Gen.cdist_nonhier [ 60; 90; 90 ];
        twice st Gen.avg_naive [ 8; 9; 9 ];
        twice st Gen.rst_budget [ 3 ];
        [ Gen.avg_naive st 11 ] ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The route a solve took, read off the report's algorithm string. *)
let route_of_algorithm alg =
  if contains alg "naive" then "naive"
  else if contains alg "knowledge compilation" then "kc"
  else "frontier_dp"

let ( let* ) = Result.bind

let parse_fallback = function
  | None -> Ok None
  | Some s ->
    let* fb, _ = Api.parse_fallback s in
    Ok (Some fb)

(* The text of an instance, parsed through the front door. *)
let parse tr (i : Gen.instance) =
  let span name f = Trace.span tr name f in
  let* q = span "cq.parse_query" (fun () -> Api.parse_query i.query) in
  let* db = span "cq.parse_database" (fun () -> Api.parse_database_text i.db) in
  let* a = span "agg.make_query" (fun () -> Api.make_agg_query ~agg:i.agg ~tau:i.tau q) in
  let* fallback = span "core.parse_fallback" (fun () -> parse_fallback i.fallback) in
  Ok (q, db, a, fallback)

type reply = {
  values : (Aggshap_relational.Fact.t * Q.t) list;
  algorithm : string;
  solve_ms : float;  (** the Api.shapley_all call alone *)
}

(* One request: text in, exact values and the report's algorithm out. *)
let request tr (i : Gen.instance) =
  let* _, db, a, fallback = parse tr i in
  let r, solve_ms =
    Run.timed (fun () ->
        Trace.span tr "api.shapley_all" (fun () ->
            Api.shapley_all ?fallback ?kc_node_budget:i.kc_node_budget ~jobs:1 a db))
  in
  let* r = r in
  let algorithm = match r.Api.report with Some rep -> rep.Solver.algorithm | None -> "" in
  Ok { values = Run.exact r.Api.values; algorithm; solve_ms }

(* Set-up: generate the pool and solve every instance once, keeping
   the values the timed window is checked against. *)
let setup (c : Run.config) tally ~pool =
  let st = Random.State.make [| c.seed |] in
  let slots =
    Array.of_list
      (List.map
         (fun inst -> { inst; reference = []; route = ""; uses = 0; traced_solves = 0 })
         (pool ~smoke:c.smoke st))
  in
  Array.iter
    (fun s ->
      match (request None s.inst, parse None s.inst) with
      | Ok r, Ok (_, db, a, _) ->
        s.reference <- r.values;
        s.route <- route_of_algorithm r.algorithm;
        Run.check tally (s.inst.cls ^ ": efficiency axiom") (Run.efficient a db r.values)
      | Error msg, _ | _, Error msg -> Run.check tally (s.inst.cls ^ " warm-up: " ^ msg) false)
    slots;
  let order = Array.init (Array.length slots) Fun.id in
  Gen.shuffle st order;
  (slots, order)

type window = {
  mutable lat : float list;  (** untraced requests *)
  mutable lat_traced : float list;
  mutable facts : int;  (** returned by untraced requests *)
  mutable traced : int;
  route_ms : (string, float) Hashtbl.t;  (** self time of the solve call, by route *)
  mutable degrades : int;
}

(* The closed loop: the next request is sent when the previous one has
   returned. Every reply must be bit-identical to the instance's
   reference values. *)
let loop (c : Run.config) tally slots order ~tracing =
  let w =
    { lat = []; lat_traced = []; facts = 0; traced = 0; route_ms = Hashtbl.create 4;
      degrades = 0 }
  in
  let deadline = Run.deadline_after c.seconds in
  let i = ref 0 in
  let continue () = if c.smoke then !i < Array.length slots else Run.before deadline in
  while continue () do
    Host.tick ();
    let s = slots.(order.(!i mod Array.length order)) in
    let tr, sums = Run.pick tracing s.uses in
    s.uses <- s.uses + 1;
    incr i;
    let (r, delta), ms =
      Run.timed (fun () ->
          Trace.counted sums (fun () -> Trace.request tr s.inst.cls (fun () -> request tr s.inst)))
    in
    match r with
    | Error msg -> Run.check tally (s.inst.cls ^ ": " ^ msg) false
    | Ok r ->
      Run.check tally (s.inst.cls ^ ": repeated solve differs") (Run.same_values r.values s.reference);
      if tr = None then begin
        w.lat <- ms :: w.lat;
        w.facts <- w.facts + List.length r.values
      end
      else begin
        w.lat_traced <- ms :: w.lat_traced;
        w.traced <- w.traced + 1;
        s.traced_solves <- s.traced_solves + 1;
        (* The d-DNNF compiler keeps its own clocks; what is left of the
           solve call is the route's self time. *)
        let lib name = Option.value ~default:0.0 (List.assoc_opt name delta) in
        let route = route_of_algorithm r.algorithm in
        let self = r.solve_ms -. lib "ddnnf.compile_ms" -. lib "ddnnf.wmc_ms" in
        Hashtbl.replace w.route_ms route
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt w.route_ms route));
        if contains r.algorithm "node-budget abort" then w.degrades <- w.degrades + 1
      end
  done;
  w

(* After the window: beyond-frontier answers must equal forced naive
   enumeration wherever that is affordable (n <= 14). *)
let cross_check_naive tally slots =
  Array.iter
    (fun s ->
      match parse None s.inst with
      | Error msg -> Run.check tally msg false
      | Ok (_, db, a, _) ->
        if Database.endo_size db <= 14 then
          match Api.shapley_all ~fallback:`Naive ~jobs:1 a db with
          | Error msg -> Run.check tally msg false
          | Ok r ->
            Run.check tally (s.inst.cls ^ ": auto differs from naive")
              (Run.same_values (Run.exact r.Api.values) s.reference))
    slots

type replay = {
  weight : float;  (** traced solves of the instance *)
  eval_ms : float;
  classify_ms : float;
  plan_ms : float;
  extract_ms : float;
  memo : Memo.stats option;
}

(* Layer costs replayed once per instance after the window, weighted by
   how often the traced requests solved that instance: join evaluation,
   classification, planning, lineage extraction, and the DP-table memo
   of a batch run. *)
let replayed_layers slots =
  let rows =
    Array.to_list slots
    |> List.filter_map (fun s ->
           match parse None s.inst with
           | Error _ -> None
           | Ok _ when s.traced_solves = 0 -> None
           | Ok (q, db, a, fallback) ->
             let stats = Strategy.db_stats db in
             Some
               { weight = float_of_int s.traced_solves;
                 eval_ms = Run.replay_ms 5 (fun () -> Eval.answers q db);
                 classify_ms = Run.replay_ms 5 (fun () -> Hierarchy.classify q);
                 plan_ms =
                   Run.replay_ms 5 (fun () ->
                       Strategy.plan ~stats ?kc_node_budget:s.inst.kc_node_budget ?fallback a);
                 extract_ms =
                   (if s.route = "kc" then Run.replay_ms 3 (fun () -> Lineage.extract a db)
                    else 0.0);
                 memo =
                   (if Solver.within_frontier a.Agg_query.alpha q then
                      (snd (Batch.shapley_all ~jobs:1 a db)).Batch.cache
                    else None) })
  in
  let sum f = List.fold_left (fun acc r -> acc +. (r.weight *. f r)) 0.0 rows in
  let mean f = Run.ratio (sum f) (sum (fun _ -> 1.0)) in
  let memo f = sum (fun r -> match r.memo with Some m -> float_of_int (f m) | None -> 0.0) in
  [ Run.metric "eval.ms" "ms" (mean (fun r -> r.eval_ms));
    Run.metric "classify.us" "us" (1e3 *. mean (fun r -> r.classify_ms));
    Run.metric "plan.us" "us" (1e3 *. mean (fun r -> r.plan_ms));
    Run.metric "lineage.extract_ms" "ms" (mean (fun r -> r.extract_ms));
    Run.metric "memo.hit_ratio" "ratio"
      (Run.ratio (memo (fun m -> m.Memo.hits)) (memo (fun m -> m.Memo.hits + m.Memo.misses))) ]

let layer_metrics slots w (t : Run.tracing) =
  let selfs = Trace.self_times t.tr in
  let per_request x = Run.per w.traced x in
  let route name = per_request (Option.value ~default:0.0 (Hashtbl.find_opt w.route_ms name)) in
  let parse =
    Run.self_ms selfs (fun n ->
        n = "cq.parse_query" || n = "cq.parse_database" || n = "agg.make_query"
        || n = "core.parse_fallback")
  in
  [ Run.metric "parse.ms" "ms" (per_request parse);
    Run.metric "route.frontier_dp_ms" "ms" (route "frontier_dp");
    Run.metric "route.kc_ms" "ms" (route "kc");
    Run.metric "route.naive_ms" "ms" (route "naive");
    Run.metric "ladder.degrades" "count/op" (per_request (float_of_int w.degrades)) ]
  @ Run.counter_metrics t.sums w.traced
  @ replayed_layers slots
  @ [ Run.metric "trace.overhead_pct" "%" (Run.overhead_pct ~untraced:w.lat ~traced:w.lat_traced);
      Run.metric "trace.coverage_min_pct" "%" (Trace.min_coverage_pct t.tr) ]

let run ~pool ~naive_check (c : Run.config) =
  let tally = Run.tally () in
  let (slots, order), setup_s = Run.setups c tally (fun () -> setup c tally ~pool) in
  let tracing = Run.tracing c in
  let w = loop c tally slots order ~tracing in
  let peak = Run.own_peak_rss_mb () in
  let layers = Option.fold ~none:[] ~some:(layer_metrics slots w) tracing in
  if naive_check then cross_check_naive tally slots;
  { Run.setup_s; solve_ms = w.lat; facts = w.facts; attempted = tally.attempted;
    failed = tally.failed; peak_rss_mb = peak; layers; trace = Option.map (fun t -> t.Run.tr) tracing }

let frontier_mix = run ~pool:frontier_pool ~naive_check:false
let beyond_frontier = run ~pool:beyond_pool ~naive_check:true
