(* Batch-engine tests.

   The batch layer (Pool + Memo + Batch + Solver.shapley_all) must be an
   observationally pure optimisation: for every jobs/cache combination
   the all-facts results are bit-identical — as exact rationals — to the
   sequential per-fact path, across every algorithm family of the
   frontier and the out-of-frontier fallbacks. *)

module Q = Aggshap_arith.Rational
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Value = Aggshap_relational.Value
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Core = Aggshap_core
module Catalog = Aggshap_workload.Catalog
module Generate = Aggshap_workload.Generate

let vid rel pos = Value_fn.id ~rel ~pos

let vmod rel pos =
  Value_fn.custom ~rel ~descr:(Printf.sprintf "mod2[%d]" pos) (fun args ->
      match Value.as_int args.(pos) with
      | Some n -> Q.of_int (((n mod 2) + 2) mod 2)
      | None -> invalid_arg "vmod: non-integer")

let small_config = { Generate.tuples_per_relation = 3; domain = 3; exo_fraction = 0.3 }

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves input order" jobs)
        expected
        (Core.Pool.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 7 ]

let test_pool_default_jobs () =
  Alcotest.(check bool) "default_jobs >= 1" true (Core.Pool.default_jobs () >= 1);
  let xs = [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int))
    "default jobs agrees with sequential" (List.map succ xs)
    (Core.Pool.map succ xs)

let test_pool_edge_cases () =
  Alcotest.(check (list int)) "empty list" [] (Core.Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Core.Pool.map ~jobs:4 succ [ 7 ]);
  Alcotest.(check (list int)) "jobs clamped to 1" [ 2; 3 ] (Core.Pool.map ~jobs:0 succ [ 1; 2 ])

exception Boom of int

let test_pool_exception () =
  List.iter
    (fun jobs ->
      match Core.Pool.map ~jobs (fun x -> if x = 13 then raise (Boom x) else x) (List.init 20 Fun.id) with
      | _ -> Alcotest.failf "jobs=%d: expected Boom to propagate" jobs
      | exception Boom 13 -> ())
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Memo                                                                *)
(* ------------------------------------------------------------------ *)

let test_memo_stats () =
  let m = Core.Memo.create () in
  let calls = ref 0 in
  let get k =
    Core.Memo.find_or_compute (Some m) ~key:(fun () -> k) (fun () -> incr calls; String.length k)
  in
  Alcotest.(check int) "first compute" 3 (get "abc");
  Alcotest.(check int) "cached" 3 (get "abc");
  Alcotest.(check int) "second key" 2 (get "xy");
  Alcotest.(check int) "computed twice total" 2 !calls;
  let s = Core.Memo.stats m in
  Alcotest.(check int) "hits" 1 s.Core.Memo.hits;
  Alcotest.(check int) "misses" 2 s.Core.Memo.misses

let test_memo_disabled () =
  (* With no memo the key must not even be evaluated. *)
  let v =
    Core.Memo.find_or_compute None ~key:(fun () -> Alcotest.fail "key evaluated") (fun () -> 42)
  in
  Alcotest.(check int) "computes directly" 42 v

(* ------------------------------------------------------------------ *)
(* Batch vs sequential per-fact, across every algorithm family         *)
(* ------------------------------------------------------------------ *)

(* Every in-frontier (aggregate, tau, query) family the solver dispatches
   on: Sum/Count (linearity + Boolean DP), CDist (per-value Boolean DP),
   Min/Max ((a,k)-table DP), Avg/Median ((a,k,l)-table DP),
   Has-duplicates (P0/P1 DP). *)
let families =
  [
    ("sum q_exists", Aggregate.Sum, vid "R" 0, Catalog.q_exists);
    ("count q_xyy", Aggregate.Count, vid "R" 0, Catalog.q_xyy);
    ("cdist q_xyy", Aggregate.Count_distinct, vmod "R" 0, Catalog.q_xyy);
    ("max q_xyy", Aggregate.Max, vid "R" 0, Catalog.q_xyy);
    ("min q1", Aggregate.Min, vid "R" 1, Catalog.q1_sq);
    ("avg q4", Aggregate.Avg, vid "R" 1, Catalog.q4_q);
    ("median q4", Aggregate.Median, vid "R" 1, Catalog.q4_q);
    ("dup q1", Aggregate.Has_duplicates, vmod "R" 0, Catalog.q1_sq);
  ]

let check_same_results name expected actual =
  if List.length expected <> List.length actual then
    Alcotest.failf "%s: result count mismatch" name;
  List.iter2
    (fun (f1, v1) (f2, v2) ->
      if not (Fact.equal f1 f2) then Alcotest.failf "%s: fact order mismatch" name;
      if not (Q.equal v1 v2) then
        Alcotest.failf "%s: Shapley(%s) expected %s got %s" name (Fact.to_string f1)
          (Q.to_string v1) (Q.to_string v2))
    expected actual

let batch_agrees (name, alpha, tau, query) () =
  let a = Agg_query.make alpha tau query in
  for seed = 0 to 4 do
    let db = Generate.random_database ~seed ~config:small_config query in
    if Database.endo_size db > 0 then begin
      (* Reference: the sequential per-fact solver, one fact at a time. *)
      let expected =
        List.map (fun f -> (f, Core.Solver.shapley_exact a db f)) (Database.endogenous db)
      in
      List.iter
        (fun (jobs, cache) ->
          let actual, stats = Core.Batch.shapley_all ~jobs ~cache a db in
          check_same_results
            (Printf.sprintf "%s (seed %d, jobs=%d, cache=%b)" name seed jobs cache)
            expected actual;
          match stats.Core.Batch.cache with
          | Some _ when not cache -> Alcotest.failf "%s: stats for disabled cache" name
          | None when cache -> Alcotest.failf "%s: no stats for enabled cache" name
          | _ -> ())
        [ (1, false); (1, true); (4, false); (4, true) ]
    end
  done

(* The Minmax pass reads each block's slice through the leave-one-out
   table of its siblings; exercise it on a structured chain database where some blocks hold a single fact
   (so removing it makes the root value vanish from the partition) and
   against Min's negation path. The reference is the seed sequential
   shapley_all of the module itself. *)
let test_minmax_batch_structured () =
  let db = ref Database.empty in
  for i = 0 to 23 do
    db := Database.add (Fact.of_ints "R" [ i; i mod 5 ]) !db
  done;
  for j = 0 to 4 do
    db := Database.add (Fact.of_ints "S" [ j ]) !db
  done;
  (* a singleton block: root value 7 realized by exactly one R and one S *)
  db := Database.add (Fact.of_ints "R" [ 99; 7 ]) !db;
  db := Database.add (Fact.of_ints "S" [ 7 ]) !db;
  (* an exogenous fact and an irrelevant relation *)
  db := Database.add ~provenance:Database.Exogenous (Fact.of_ints "R" [ 50; 0 ]) !db;
  db := Database.add (Fact.of_ints "T" [ 1 ]) !db;
  let db = !db in
  List.iter
    (fun alpha ->
      let a = Agg_query.make alpha (vid "R" 0) Catalog.q_xyy in
      let expected = Core.Minmax.shapley_all a db in
      List.iter
        (fun (jobs, cache) ->
          let actual, _ = Core.Batch.shapley_all ~jobs ~cache a db in
          check_same_results
            (Printf.sprintf "minmax structured (%s, jobs=%d, cache=%b)"
               (Aggregate.to_string alpha) jobs cache)
            expected actual)
        [ (1, true); (1, false); (4, true) ])
    [ Aggregate.Max; Aggregate.Min ]

(* ------------------------------------------------------------------ *)
(* The variant pass against the per-fact reduction                     *)
(* ------------------------------------------------------------------ *)

(* The single-fact path of each family: [Sumk.score_of_db_fn] over the
   family's sum_k (per membership game for Sum/Count, per value for
   CDist), two full dynamic programs per fact. *)
let per_fact ~score (a : Agg_query.t) db f =
  match a.alpha with
  | Aggregate.Sum | Aggregate.Count -> Core.Sum_count.shapley ~score a db f
  | Aggregate.Count_distinct -> Core.Cdist.shapley ~score a db f
  | Aggregate.Min | Aggregate.Max -> Core.Minmax.shapley ~score a db f
  | Aggregate.Avg | Aggregate.Median | Aggregate.Quantile _ ->
    Core.Avg_quantile.shapley ~score a db f
  | Aggregate.Has_duplicates -> Core.Dup.shapley ~score a db f

let all_aggregates =
  [ Aggregate.Sum; Aggregate.Count; Aggregate.Count_distinct; Aggregate.Min;
    Aggregate.Max; Aggregate.Avg; Aggregate.Median; Aggregate.Quantile (Q.of_ints 1 3);
    Aggregate.Has_duplicates ]

(* Every in-frontier family of [a]'s query and τ, Shapley and Banzhaf,
   cache on and off: the batch values equal the per-fact reduction's
   exactly. Returns the number of (family, score) pairs compared. *)
let pass_matches_per_fact name (a : Agg_query.t) db =
  List.fold_left
    (fun compared alpha ->
      let a = Agg_query.make alpha a.tau a.query in
      if not (Core.Frontier.within alpha a.query) then compared
      else
        List.fold_left
          (fun compared score ->
            let expected =
              List.map (fun f -> (f, per_fact ~score a db f)) (Database.endogenous db)
            in
            List.iter
              (fun cache ->
                check_same_results
                  (Printf.sprintf "%s, %s, %s, cache=%b" name (Aggregate.to_string alpha)
                     (match score with
                      | Aggshap_arith.Score.Shapley -> "shapley"
                      | Aggshap_arith.Score.Banzhaf -> "banzhaf")
                     cache)
                  expected
                  (fst (Core.Batch.shapley_all ~score ~cache a db)))
              [ true; false ];
            compared + 1)
          compared
          [ Aggshap_arith.Score.Shapley; Aggshap_arith.Score.Banzhaf ])
    0 all_aggregates

(* A random trial instance widened with the fact shapes the pass treats
   apart: an irrelevant fact (its relation is not in the query), a fact
   in no block (it alone realizes a fresh root value), a block of one
   fact per atom (removing any of them dissolves the block), and an
   exogenous copy of that block's shape under another fresh value. The
   trial itself brings exogenous facts and blocks of every size. *)
let widened_instance seed =
  let t = Aggshap_check.Trial.generate ~max_endo:7 ~seed () in
  let q = t.Aggshap_check.Trial.query in
  let fact_at v (atom : Aggshap_cq.Cq.atom) =
    Fact.make atom.Aggshap_cq.Cq.rel
      (Array.to_list
         (Array.map
            (function Aggshap_cq.Cq.Var _ -> Value.Int v | Aggshap_cq.Cq.Const c -> c)
            atom.Aggshap_cq.Cq.terms))
  in
  let add ?provenance f db = if Database.mem f db then db else Database.add ?provenance f db in
  let db =
    List.fold_left
      (fun db atom ->
        db |> add (fact_at 88 atom)
        |> add ~provenance:Database.Exogenous (fact_at 77 atom))
      t.Aggshap_check.Trial.db q.Aggshap_cq.Cq.body
  in
  let db =
    match q.Aggshap_cq.Cq.body with
    | atom :: _ :: _ -> add (fact_at 99 atom) db
    | _ -> db
  in
  (Aggshap_check.Trial.agg_query t, add (Fact.of_ints "Zirrelevant" [ 1 ]) db)

let prop_pass_matches_per_fact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"every family's pass equals the per-fact reduction" ~count:150
       QCheck.(int_bound 1_000_000)
       (fun seed ->
         let a, db = widened_instance seed in
         ignore (pass_matches_per_fact (Printf.sprintf "seed %d" seed) a db);
         true))

(* Fuzz corpus seed 42000127: Rel0(v0, v0) and Rel2(v0) form a τ-free
   component, which Max hands to the Boolean DP instead of recursing.
   Their facts' variants must come from re-evaluating that component on
   the variant database. *)
let test_tau_free_component () =
  let q = Aggshap_cq.Parser.parse_query_exn "Q(v1, v2) <- Rel0(v0, v0), Rel1(v1, v2), Rel2(v0)" in
  let db =
    Database.of_facts
      [ Fact.of_ints "Rel0" [ 0; 0 ]; Fact.of_ints "Rel0" [ 2; 1 ]; Fact.of_ints "Rel1" [ 1; 1 ];
        Fact.of_ints "Rel1" [ 1; 2 ]; Fact.of_ints "Rel2" [ 0 ]; Fact.of_ints "Rel2" [ 1 ];
        Fact.of_ints "Rel2" [ 2 ] ]
  in
  let a = Agg_query.make Aggregate.Max (vid "Rel1" 0) q in
  Alcotest.(check bool) "max and its kin compared" true (pass_matches_per_fact "tau-free" a db > 0);
  let values, _ = Core.Batch.shapley_all a db in
  Alcotest.(check bool) "the tau-free fact Rel0(0, 0) is not a null player" false
    (Q.is_zero (List.assoc (Fact.of_ints "Rel0" [ 0; 0 ]) values))

let test_batch_cache_hits () =
  (* On a db with several hierarchy blocks the cached batch must actually
     hit: sibling blocks repeat across the per-fact loop. *)
  let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
  let db =
    List.fold_left
      (fun db f -> Database.add f db)
      Database.empty
      [
        Fact.of_ints "R" [ 1; 1 ]; Fact.of_ints "R" [ 2; 1 ]; Fact.of_ints "R" [ 3; 2 ];
        Fact.of_ints "S" [ 1 ]; Fact.of_ints "S" [ 2 ];
      ]
  in
  let _, stats = Core.Batch.shapley_all ~jobs:1 ~cache:true a db in
  match stats.Core.Batch.cache with
  | None -> Alcotest.fail "expected cache stats"
  | Some m ->
    Alcotest.(check bool)
      (Printf.sprintf "cache hits > 0 (%s)" (Core.Memo.stats_to_string m))
      true (m.Core.Memo.hits > 0)

let test_batch_outside_frontier () =
  let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_exists in
  let db = Generate.random_database ~seed:0 ~config:small_config Catalog.q_exists in
  Alcotest.check_raises "Batch refuses out-of-frontier queries"
    (Invalid_argument "Batch.shapley_all: query is outside the tractability frontier")
    (fun () -> ignore (Core.Batch.shapley_all ~jobs:1 a db))

(* ------------------------------------------------------------------ *)
(* Solver.shapley_all: frontier dispatch and fallbacks                 *)
(* ------------------------------------------------------------------ *)

let exact_of name = function
  | Core.Solver.Exact v -> v
  | Core.Solver.Estimate _ -> Alcotest.failf "%s: expected exact outcome" name

let test_solver_all_parallel () =
  let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
  let db = Generate.random_database ~seed:3 ~config:small_config Catalog.q_xyy in
  let seq, rep_seq = Core.Solver.shapley_all ~jobs:1 ~cache:false a db in
  let par, rep_par = Core.Solver.shapley_all ~jobs:4 a db in
  Alcotest.(check bool) "within frontier" true rep_seq.Core.Solver.within_frontier;
  Alcotest.(check string) "same algorithm reported" rep_seq.Core.Solver.algorithm
    rep_par.Core.Solver.algorithm;
  check_same_results "solver parallel vs sequential"
    (List.map (fun (f, o) -> (f, exact_of "seq" o)) seq)
    (List.map (fun (f, o) -> (f, exact_of "par" o)) par)

(* Avg on q_xyy is all-hierarchical but not q-hierarchical: outside the
   Avg frontier, so shapley_all must fan the naive solver across the
   pool — and still match the per-fact fallback exactly. *)
let test_solver_all_naive_fallback () =
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 20 do
    let db = Generate.random_database ~seed:!seed ~config:small_config Catalog.q_xyy in
    let n = Database.endo_size db in
    if n >= 2 && n <= 9 then begin
      found := true;
      let results, report = Core.Solver.shapley_all ~fallback:`Naive ~jobs:4 a db in
      Alcotest.(check bool) "outside frontier" false report.Core.Solver.within_frontier;
      let expected =
        List.map (fun f -> (f, Core.Solver.shapley_exact a db f)) (Database.endogenous db)
      in
      check_same_results "naive fallback batch"
        expected
        (List.map (fun (f, o) -> (f, exact_of "naive" o)) results)
    end;
    incr seed
  done;
  if not !found then Alcotest.fail "no usable instance for the naive fallback test"

let test_solver_all_monte_carlo_fallback () =
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
  let db = Generate.random_database ~seed:1 ~config:small_config Catalog.q_xyy in
  let results, report = Core.Solver.shapley_all ~fallback:(`Monte_carlo 50) ~jobs:4 a db in
  Alcotest.(check bool) "outside frontier" false report.Core.Solver.within_frontier;
  Alcotest.(check int) "one outcome per endogenous fact" (Database.endo_size db)
    (List.length results);
  List.iter
    (fun (f, o) ->
      match o with
      | Core.Solver.Estimate e ->
        Alcotest.(check int)
          (Printf.sprintf "samples for %s" (Fact.to_string f))
          50 e.Core.Monte_carlo.samples
      | Core.Solver.Exact _ -> Alcotest.failf "expected an estimate for %s" (Fact.to_string f))
    results

(* ------------------------------------------------------------------ *)
(* Kernel counters under parallel solves                               *)
(* ------------------------------------------------------------------ *)

module B = Aggshap_arith.Bigint
module Tables = Core.Tables

(* With the memo cache off, the multiset of kernel invocations is a
   function of the workload alone, so the Atomic counters in Bigint and
   Tables must report exactly the same totals whatever the domain
   count. This is what makes --stats trustworthy for cost-model work
   under --jobs N: a racy int counter would drop increments. *)
let test_kernel_counts_jobs_stable () =
  let bstr (s : B.stats) =
    Printf.sprintf
      "school=%d small=%d divmod=%d gcd=%d acc=%d promo=%d demo=%d"
      s.B.mul_schoolbook s.B.mul_small s.B.divmod s.B.gcd
      s.B.acc_mul s.B.promotions s.B.demotions
  in
  let tstr (s : Tables.stats) =
    Printf.sprintf "conv=%d small=%d rat=%d folds=%d wsum=%d" s.Tables.convolve
      s.Tables.convolve_small s.Tables.convolve_rat s.Tables.tree_folds
      s.Tables.weighted_sums
  in
  let total_work = ref 0 in
  List.iter
    (fun (name, alpha, tau, query) ->
      let a = Agg_query.make alpha tau query in
      let db = Generate.random_database ~seed:7 ~config:small_config query in
      if Database.endo_size db > 0 then begin
        let solve jobs = ignore (Core.Batch.shapley_all ~jobs ~cache:false a db) in
        (* Warm-up run: lazily built global tables (factorials, binomial
           rows) must not be charged to the first measured run. *)
        solve 1;
        let measure jobs =
          B.reset_stats ();
          Tables.reset_stats ();
          solve jobs;
          (B.stats (), Tables.stats ())
        in
        let b1, t1 = measure 1 in
        let bn, tn = measure 4 in
        Alcotest.(check string)
          (Printf.sprintf "%s: bigint counters jobs=1 vs jobs=4" name)
          (bstr b1) (bstr bn);
        Alcotest.(check string)
          (Printf.sprintf "%s: table counters jobs=1 vs jobs=4" name)
          (tstr t1) (tstr tn);
        total_work :=
          !total_work + b1.B.mul_small + b1.B.mul_schoolbook + b1.B.acc_mul
          + t1.Tables.convolve
      end)
    [ ("max q_xyy", Aggregate.Max, vid "R" 0, Catalog.q_xyy);
      ("dup q1", Aggregate.Has_duplicates, vmod "R" 0, Catalog.q1_sq);
      ("median q4", Aggregate.Median, vid "R" 1, Catalog.q4_q) ];
  (* Equality above must not be vacuous: the measured solves did real
     kernel work. *)
  Alcotest.(check bool) "measured runs exercised the kernels" true (!total_work > 0)

(* The engine's per-node counters obey the same contract: with the memo
   off, the nodes a batch enters do not depend on which domain enters
   them, so the totals must agree exactly whatever the domain count. *)
let test_engine_counts_jobs_stable () =
  let module Engine = Core.Engine in
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy_full in
  let db = Generate.chain_database ~rows:16 in
  let measure jobs =
    Engine.reset_stats ();
    ignore (Core.Batch.shapley_all ~jobs ~cache:false a db);
    Engine.stats ()
  in
  let show (s : Engine.stats) =
    Printf.sprintf "nodes=%d leaves=%d merges=%d combines=%d" s.Engine.nodes
      s.Engine.leaves s.Engine.merges s.Engine.combines
  in
  let s1 = measure 1 in
  Alcotest.(check string) "engine counters jobs=1 vs jobs=4" (show s1) (show (measure 4));
  Alcotest.(check bool) "the solve entered engine nodes" true (s1.Engine.nodes > 0)

(* ------------------------------------------------------------------ *)
(* Banzhaf through the solver: fact lookup on the out-of-frontier path *)
(* ------------------------------------------------------------------ *)

let banzhaf = Aggshap_arith.Score.Banzhaf

let exact = function
  | Core.Solver.Exact v -> v
  | Core.Solver.Estimate _ -> Alcotest.fail "expected an exact value"

let test_banzhaf_not_endogenous () =
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
  let db =
    List.fold_left
      (fun db f -> Database.add f db)
      Database.empty
      [ Fact.of_ints "R" [ 1; 1 ]; Fact.of_ints "S" [ 1 ] ]
  in
  Alcotest.check_raises "missing fact raises"
    (Invalid_argument "Naive: fact is not endogenous in the database")
    (fun () -> ignore (Core.Solver.shapley ~score:banzhaf a db (Fact.of_ints "R" [ 9; 9 ])))

let test_banzhaf_naive_lookup () =
  (* Outside the frontier, banzhaf of every endogenous fact must match a
     direct Game.banzhaf at that fact's own index — the old lookup kept
     scanning past the match — per fact and in the one-game batch. *)
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
  let db = Generate.random_database ~seed:2 ~config:small_config Catalog.q_xyy in
  if Database.endo_size db = 0 then Alcotest.fail "empty instance"
  else begin
    let players, game = Core.Naive.game a db in
    let batch, _ = Core.Solver.shapley_all ~score:banzhaf a db in
    Array.iteri
      (fun i f ->
        let expected = Core.Game.banzhaf game i in
        let check what actual =
          if not (Q.equal expected actual) then
            Alcotest.failf "banzhaf(%s) %s: expected %s got %s" (Fact.to_string f) what
              (Q.to_string expected) (Q.to_string actual)
        in
        check "per fact" (exact (fst (Core.Solver.shapley ~score:banzhaf a db f)));
        check "batch" (exact (List.assoc f batch)))
      players
  end

let () =
  Alcotest.run "batch"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hit/miss stats" `Quick test_memo_stats;
          Alcotest.test_case "disabled memo" `Quick test_memo_disabled;
        ] );
      ( "batch vs sequential",
        List.map
          (fun ((name, _, _, _) as fam) ->
            Alcotest.test_case name `Quick (batch_agrees fam))
          families
        @ [
            Alcotest.test_case "minmax structured blocks" `Quick test_minmax_batch_structured;
            prop_pass_matches_per_fact;
            Alcotest.test_case "fact in a tau-free component" `Quick test_tau_free_component;
            Alcotest.test_case "cache actually hits" `Quick test_batch_cache_hits;
            Alcotest.test_case "outside frontier rejected" `Quick test_batch_outside_frontier;
          ] );
      ( "solver batch",
        [
          Alcotest.test_case "parallel = sequential" `Quick test_solver_all_parallel;
          Alcotest.test_case "naive fallback" `Quick test_solver_all_naive_fallback;
          Alcotest.test_case "monte-carlo fallback" `Quick test_solver_all_monte_carlo_fallback;
        ] );
      ( "kernel counters",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 counts identical" `Quick
            test_kernel_counts_jobs_stable;
          Alcotest.test_case "engine counters jobs=1 vs jobs=4 identical" `Quick
            test_engine_counts_jobs_stable;
        ] );
      ( "banzhaf lookup",
        [
          Alcotest.test_case "not endogenous" `Quick test_banzhaf_not_endogenous;
          Alcotest.test_case "naive-path lookup" `Quick test_banzhaf_naive_lookup;
        ] );
    ]
