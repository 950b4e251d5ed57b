(* Batch-engine tests.

   The batch layer (Batch + Solver.shapley_all) must be an
   observationally pure optimisation: the all-facts results are
   bit-identical — as exact rationals — to the sequential per-fact
   path, across every algorithm family of the frontier and the
   out-of-frontier fallbacks. *)

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
      let actual, stats = Core.Batch.shapley_all a db in
      check_same_results (Printf.sprintf "%s (seed %d)" name seed) expected actual;
      if Option.is_some stats.Core.Batch.cache then
        Alcotest.failf "%s: cache stats from a solve that keeps no cache" name
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
      check_same_results
        (Printf.sprintf "minmax structured (%s)" (Aggregate.to_string alpha))
        (Core.Minmax.shapley_all a db)
        (fst (Core.Batch.shapley_all a db)))
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

(* Every in-frontier family of [a]'s query and τ, Shapley and Banzhaf:
   the batch values equal the per-fact reduction's exactly. Returns the
   number of (family, score) pairs compared. *)
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
            check_same_results
              (Printf.sprintf "%s, %s, %s" name (Aggregate.to_string alpha)
                 (match score with
                  | Aggshap_arith.Score.Shapley -> "shapley"
                  | Aggshap_arith.Score.Banzhaf -> "banzhaf"))
              expected
              (fst (Core.Batch.shapley_all ~score a db));
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

(* The identity the pass rests on: a table counts the subsets by key
   and size, so a fact's exogenous variant is read off the node's own
   table and the fact's removal table. Every public pass that hands out
   per-fact tables must agree with the tables of the variant databases
   computed from scratch: [Count_dp.variants]' differences, uncapped and
   capped, key by key, and [Boolean_dp.removals]' removal counts. A fact
   a pass leaves out must be a null player there: its two variant
   databases have equal tables. *)
let prop_diffs_match_variant_dbs =
  let module B = Aggshap_arith.Bigint in
  let module Hierarchy = Aggshap_cq.Hierarchy in
  let counts_equal a b = Array.length a = Array.length b && Array.for_all2 B.equal a b in
  let fail seed what f =
    QCheck.Test.fail_reportf "seed %d: %s of %s" seed what (Fact.to_string f)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"every variant's diff is exo - rm of its variant databases"
       ~count:150
       QCheck.(int_bound 1_000_000)
       (fun seed ->
         let a, db = widened_instance seed in
         let q = a.Agg_query.query in
         let db, _ = Aggshap_cq.Decompose.relevant_part q db in
         let variant_dbs f =
           (Database.set_provenance Database.Exogenous f db, Database.remove f db)
         in
         if Hierarchy.is_q_hierarchical q then
           List.iter
             (fun cap ->
               let _, vs = Core.Count_dp.variants ?cap q db in
               List.iter
                 (fun f ->
                   let db_exo, db_rm = variant_dbs f in
                   let exo = Core.Count_dp.answer_counts ?cap q db_exo in
                   let rm = Core.Count_dp.answer_counts ?cap q db_rm in
                   let diff =
                     match
                       List.find_opt (fun (v : _ Core.Engine.variant) -> Fact.equal v.fact f) vs
                     with
                     | Some v -> v.diff
                     | None -> { rm with Core.Count_dp.entries = Core.Count_dp.IntMap.empty }
                   in
                   let keys (t : Core.Count_dp.t) =
                     List.map fst (Core.Count_dp.IntMap.bindings t.Core.Count_dp.entries)
                   in
                   List.iter
                     (fun l ->
                       let expected =
                         Core.Tables.sub (Core.Count_dp.get exo l) (Core.Count_dp.get rm l)
                       in
                       if not (counts_equal expected (Core.Count_dp.get diff l)) then
                         fail seed
                           (Printf.sprintf "answer-count diff (cap %s) at %d"
                              (match cap with None -> "none" | Some c -> string_of_int c) l)
                           f)
                     (List.sort_uniq Int.compare (keys exo @ keys rm @ keys diff)))
                 (Database.endogenous db))
             [ None; Some 2 ];
         if Hierarchy.is_all_hierarchical q then begin
           let rms = Core.Boolean_dp.removals q db in
           List.iter
             (fun f ->
               let db_exo, db_rm = variant_dbs f in
               let rm = Core.Boolean_dp.counts q db_rm in
               match List.assoc_opt f rms with
               | Some rm' -> if not (counts_equal rm rm') then fail seed "removal counts" f
               | None ->
                 if not (counts_equal (Core.Boolean_dp.counts q db_exo) rm) then
                   fail seed "a left-out non-null player" f)
             (Database.endogenous db)
         end;
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

let test_batch_rerun_repeats_work () =
  (* One-shot solves keep no table between them: a second solve of an
     unchanged database returns the same values and enters exactly the
     engine nodes of the first. A cache carried from one solve to the
     next would make the second enter fewer. *)
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
  let run () =
    Core.Engine.reset_stats ();
    let values, _ = Core.Batch.shapley_all a db in
    let s = Core.Engine.stats () in
    (values, [ s.Core.Engine.nodes; s.leaves; s.merges; s.combines ])
  in
  let first, work1 = run () in
  let second, work2 = run () in
  check_same_results "rerun" first second;
  Alcotest.(check bool) "the first solve enters engine nodes" true (List.hd work1 > 0);
  Alcotest.(check (list int)) "nodes, leaves, merges, combines" work1 work2

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
  let seq, rep_seq = Core.Solver.shapley_all ~jobs:1 a db in
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

(* No table is cached, so the multiset of kernel invocations is a
   function of the workload alone: [copies] solves of one instance
   count exactly [copies] times one solve. Running the copies at once on parallel
   domains makes every increment race: the Atomic counters in Bigint,
   Tables and Engine must still report the exact totals. This is what
   makes --stats trustworthy under --jobs N: a racy int counter would
   drop increments. *)
let copies = 16

(* One sequential solve's counters, then [copies] parallel solves'
   counters, each from reset counters after a warm-up solve (lazily
   built global tables, factorials and binomial rows, must not be
   charged to a measured run). *)
let sequential_and_parallel ~reset ~read solve =
  solve ();
  let measure run =
    reset ();
    run ();
    read ()
  in
  let one = measure solve in
  let many =
    measure (fun () -> ignore (Core.Pool.map ~jobs:4 solve (List.init copies (fun _ -> ()))))
  in
  (one, many)

let check_counters name one many =
  List.iter2
    (fun (counter, v1) (_, vk) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s of %d parallel solves = %d × one" name counter copies copies)
        (copies * v1) vk)
    one many

let test_kernel_counts_parallel () =
  let bigint_and_tables () =
    let b = B.stats () and t = Tables.stats () in
    [ ("mul_schoolbook", b.B.mul_schoolbook); ("mul_small", b.B.mul_small);
      ("divmod", b.B.divmod); ("gcd", b.B.gcd); ("acc_mul", b.B.acc_mul);
      ("promotions", b.B.promotions); ("demotions", b.B.demotions);
      ("convolve", t.Tables.convolve); ("convolve_small", t.Tables.convolve_small);
      ("convolve_rat", t.Tables.convolve_rat); ("tree_folds", t.Tables.tree_folds);
      ("weighted_sums", t.Tables.weighted_sums) ]
  in
  let total_work = ref 0 in
  List.iter
    (fun (name, alpha, tau, query) ->
      let a = Agg_query.make alpha tau query in
      let db = Generate.random_database ~seed:7 ~config:small_config query in
      if Database.endo_size db > 0 then begin
        let one, many =
          sequential_and_parallel
            ~reset:(fun () ->
              B.reset_stats ();
              Tables.reset_stats ())
            ~read:bigint_and_tables
            (fun () -> ignore (Core.Batch.shapley_all a db))
        in
        check_counters name one many;
        total_work :=
          !total_work + List.assoc "mul_small" one + List.assoc "mul_schoolbook" one
          + List.assoc "acc_mul" one + List.assoc "convolve" one
      end)
    [ ("max q_xyy", Aggregate.Max, vid "R" 0, Catalog.q_xyy);
      ("dup q1", Aggregate.Has_duplicates, vmod "R" 0, Catalog.q1_sq);
      ("median q4", Aggregate.Median, vid "R" 1, Catalog.q4_q) ];
  (* Equality above must not be vacuous: the measured solves did real
     kernel work. *)
  Alcotest.(check bool) "measured runs exercised the kernels" true (!total_work > 0)

(* The engine's per-node counters obey the same contract. *)
let test_engine_counts_parallel () =
  let module Engine = Core.Engine in
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy_full in
  let db = Generate.chain_database ~rows:16 in
  let one, many =
    sequential_and_parallel ~reset:Engine.reset_stats
      ~read:(fun () ->
        let s = Engine.stats () in
        [ ("nodes", s.Engine.nodes); ("leaves", s.Engine.leaves);
          ("merges", s.Engine.merges); ("combines", s.Engine.combines) ])
      (fun () -> ignore (Core.Batch.shapley_all a db))
  in
  check_counters "engine" one many;
  Alcotest.(check bool) "the solve entered engine nodes" true (List.assoc "nodes" one > 0)

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
      ( "batch vs sequential",
        List.map
          (fun ((name, _, _, _) as fam) ->
            Alcotest.test_case name `Quick (batch_agrees fam))
          families
        @ [
            Alcotest.test_case "minmax structured blocks" `Quick test_minmax_batch_structured;
            prop_pass_matches_per_fact;
            prop_diffs_match_variant_dbs;
            Alcotest.test_case "fact in a tau-free component" `Quick test_tau_free_component;
            Alcotest.test_case "a rerun repeats the work" `Quick test_batch_rerun_repeats_work;
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
          Alcotest.test_case "parallel solves count exactly" `Quick
            test_kernel_counts_parallel;
          Alcotest.test_case "engine counters count parallel solves exactly" `Quick
            test_engine_counts_parallel;
        ] );
      ( "banzhaf lookup",
        [
          Alcotest.test_case "not endogenous" `Quick test_banzhaf_not_endogenous;
          Alcotest.test_case "naive-path lookup" `Quick test_banzhaf_naive_lookup;
        ] );
    ]
