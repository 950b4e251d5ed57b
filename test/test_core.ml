(* Core correctness tests.

   The central strategy: every polynomial algorithm must agree — as exact
   rationals — with the naive exponential solver on random databases of
   its query class, across value functions localized on different atoms.
   On top of that: Shapley axioms on random games, the closed formulas,
   and the solver's dispatch logic. *)

module B = Aggshap_arith.Bigint
module Score = Aggshap_arith.Score
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Parser = Aggshap_cq.Parser
module Hierarchy = Aggshap_cq.Hierarchy
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

let vconst rel n = Value_fn.const ~rel (Q.of_int n)

let small_config = { Generate.tuples_per_relation = 3; domain = 3; exo_fraction = 0.3 }

(* Compare a polynomial shapley_all against the naive oracle over random
   databases. *)
let agree_with_naive ?(seeds = 8) ?(config = small_config) name alpha tau query dp_shapley_all
    () =
  let a = Agg_query.make alpha tau query in
  let tested = ref 0 in
  let seed = ref 0 in
  while !tested < seeds && !seed < seeds * 5 do
    let db = Generate.random_database ~seed:!seed ~config query in
    incr seed;
    let n = Database.endo_size db in
    if n >= 1 && n <= 11 then begin
      incr tested;
      let expected = Core.Naive.shapley_all a db in
      let actual = dp_shapley_all a db in
      List.iter2
        (fun (f1, v1) (f2, v2) ->
          if not (Fact.equal f1 f2) then Alcotest.failf "%s: fact order mismatch" name;
          if not (Q.equal v1 v2) then
            Alcotest.failf "%s (seed %d): Shapley(%s) naive=%s dp=%s" name (!seed - 1)
              (Fact.to_string f1) (Q.to_string v1) (Q.to_string v2))
        expected actual
    end
  done;
  if !tested < seeds then Alcotest.failf "%s: not enough usable instances" name

(* Compare a DP sum_k vector against naive enumeration. *)
let sumk_agrees ?(seeds = 6) ?(config = small_config) name alpha tau query dp_sum_k () =
  let a = Agg_query.make alpha tau query in
  let tested = ref 0 in
  let seed = ref 100 in
  while !tested < seeds && !seed < 100 + (seeds * 5) do
    let db = Generate.random_database ~seed:!seed ~config query in
    incr seed;
    let n = Database.endo_size db in
    if n >= 1 && n <= 10 then begin
      incr tested;
      let expected = Core.Naive.sum_k a db in
      let actual = dp_sum_k a db in
      Array.iteri
        (fun k v ->
          if not (Q.equal v actual.(k)) then
            Alcotest.failf "%s (seed %d): sum_%d naive=%s dp=%s" name (!seed - 1) k
              (Q.to_string v) (Q.to_string actual.(k)))
        expected
    end
  done;
  if !tested < seeds then Alcotest.failf "%s: not enough usable instances" name

(* ------------------------------------------------------------------ *)
(* Game axioms                                                         *)
(* ------------------------------------------------------------------ *)

let random_game rng n =
  (* A random utility with v(∅) = 0. *)
  let values = Hashtbl.create 64 in
  Core.Game.make ~n (fun mask ->
      if mask = 0 then Q.zero
      else begin
        match Hashtbl.find_opt values mask with
        | Some v -> v
        | None ->
          let v = Q.of_int (Random.State.int rng 21 - 10) in
          Hashtbl.add values mask v;
          v
      end)

let test_game_efficiency () =
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let g = random_game rng (2 + Random.State.int rng 6) in
    if not (Q.is_zero (Core.Game.efficiency_gap g)) then
      Alcotest.fail "efficiency axiom violated"
  done

let test_game_symmetry_null () =
  (* A game where players 0 and 1 are interchangeable and player 2 is
     null: v(C) = 1 if C contains player 0 or 1, else 0. *)
  let g =
    Core.Game.make ~n:3 (fun mask -> if mask land 0b011 <> 0 then Q.one else Q.zero)
  in
  let s = Core.Game.shapley_all g in
  Alcotest.(check string) "symmetry" (Q.to_string s.(0)) (Q.to_string s.(1));
  Alcotest.(check string) "null player" "0" (Q.to_string s.(2));
  Alcotest.(check string) "value" "1/2" (Q.to_string s.(0))

let test_game_linearity () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 10 do
    let n = 2 + Random.State.int rng 4 in
    let g1 = random_game rng n and g2 = random_game rng n in
    let g_sum = Core.Game.make ~n (fun m -> Q.add (g1.Core.Game.utility m) (g2.Core.Game.utility m)) in
    for p = 0 to n - 1 do
      let lhs = Core.Game.shapley g_sum p in
      let rhs = Q.add (Core.Game.shapley g1 p) (Core.Game.shapley g2 p) in
      if not (Q.equal lhs rhs) then Alcotest.fail "linearity violated"
    done
  done

let test_game_banzhaf () =
  (* For the unanimity game both indices give 1/n to... Banzhaf of a
     2-player unanimity game: each pivotal in 1 of 2 coalitions. *)
  let g = Core.Game.make ~n:2 (fun mask -> if mask = 3 then Q.one else Q.zero) in
  Alcotest.(check string) "banzhaf" "1/2" (Q.to_string (Core.Game.banzhaf g 0));
  Alcotest.(check string) "shapley" "1/2" (Q.to_string (Core.Game.shapley g 0))

let test_game_guard () =
  Alcotest.(check bool) "max_players guard" true
    (try ignore (Core.Game.make ~n:60 (fun _ -> Q.zero)); false
     with Invalid_argument _ -> true)

(* Games for the integer summation: up to 10 players, v(∅) free, and
   utilities mixing zeros, small integers of both signs, fractions over
   assorted denominators and numerators past 2⁶² — so the common
   denominator L is rarely 1 and the per-size sums leave native ints. *)
let arb_game =
  let gen_utility =
    QCheck.Gen.(
      frequency
        [ (2, return Q.zero);
          (3, map Q.of_int (int_range (-20) 20));
          (3, map2 Q.of_ints (int_range (-1000) 1000) (int_range 1 36));
          (1,
           let* neg = bool in
           let* e = int_range 62 130 in
           let* low = int_bound 1_000_000 in
           let* d = int_range 1 12 in
           let num = B.add (B.pow B.two e) (B.of_int low) in
           return (Q.make (if neg then B.neg num else num) (B.of_int d))) ])
  in
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 10 in
      let* u = array_size (return (1 lsl n)) gen_utility in
      return (n, u))
  in
  QCheck.make gen ~print:(fun (n, u) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; " (Array.to_list (Array.map Q.to_string u))))

(* Both scores: the integer path's Banzhaf values are judged by the
   textbook Game.banzhaf loop. *)
let arb_score =
  QCheck.make
    ~print:(function Score.Shapley -> "shapley" | Score.Banzhaf -> "banzhaf")
    (QCheck.Gen.oneofl [ Score.Shapley; Score.Banzhaf ])

let shapley_all_int_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"shapley_all_int agrees with textbook shapley_all" ~count:200
       (QCheck.pair arb_score arb_game) (fun (score, (n, u)) ->
         let g = Core.Game.make ~n (fun mask -> u.(mask)) in
         let expected =
           match score with
           | Score.Shapley -> Core.Game.shapley_all g
           | Score.Banzhaf -> Array.init n (Core.Game.banzhaf g)
         in
         let actual = Core.Game.shapley_all_int ~score g in
         Array.length actual = n && Array.for_all2 Q.equal expected actual))

(* ------------------------------------------------------------------ *)
(* Boolean membership DP                                               *)
(* ------------------------------------------------------------------ *)

(* The indicator AggCQ: Max ∘ (τ≡1) ∘ Q equals "Q_bool is satisfied". *)
let boolean_agrees name query first_rel () =
  let q = Cq.make_boolean query in
  let a = Agg_query.make Aggregate.Max (vconst first_rel 1) q in
  let tested = ref 0 in
  let seed = ref 0 in
  while !tested < 8 && !seed < 40 do
    let db = Generate.random_database ~seed:!seed ~config:small_config query in
    incr seed;
    let n = Database.endo_size db in
    if n >= 1 && n <= 11 then begin
      incr tested;
      List.iter
        (fun (f, expected) ->
          let actual = Core.Boolean_dp.shapley q db f in
          if not (Q.equal expected actual) then
            Alcotest.failf "%s (seed %d): %s naive=%s dp=%s" name (!seed - 1)
              (Fact.to_string f) (Q.to_string expected) (Q.to_string actual))
        (Core.Naive.shapley_all a db)
    end
  done

let test_boolean_rejects_nonhierarchical () =
  let db = Generate.random_database ~seed:1 Catalog.q_nonhier in
  Alcotest.(check bool) "raises" true
    (try ignore (Core.Boolean_dp.counts Catalog.q_nonhier db); false
     with Invalid_argument _ -> true)

let test_boolean_counts_small () =
  (* Q() <- R(x): counts of k-subsets with nonempty R. *)
  let q = Cq.make_boolean Catalog.q_single in
  let db = Database.of_facts [ Fact.of_ints "R" [ 1 ]; Fact.of_ints "R" [ 2 ] ] in
  let c = Core.Boolean_dp.counts q db in
  Alcotest.(check (list string)) "counts" [ "0"; "2"; "1" ]
    (Array.to_list (Array.map B.to_string c));
  (* With one exogenous R-fact the query is always true. *)
  let db2 = Database.add ~provenance:Database.Exogenous (Fact.of_ints "R" [ 3 ]) db in
  let c2 = Core.Boolean_dp.counts q db2 in
  Alcotest.(check (list string)) "exo makes it certain" [ "1"; "2"; "1" ]
    (Array.to_list (Array.map B.to_string c2))

(* ------------------------------------------------------------------ *)
(* Monte Carlo                                                         *)
(* ------------------------------------------------------------------ *)

let test_monte_carlo_converges () =
  let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
  let db = Generate.random_database ~seed:3 ~config:small_config Catalog.q_xyy in
  match Database.endogenous db with
  | [] -> Alcotest.fail "empty instance"
  | f :: _ ->
    let exact = Q.to_float (Core.Naive.shapley a db f) in
    let est = Core.Monte_carlo.shapley ~seed:42 ~samples:4000 a db f in
    let err = abs_float (est.Core.Monte_carlo.mean -. exact) in
    let bound = (5.0 *. est.Core.Monte_carlo.std_error) +. 1e-9 in
    if err > bound then
      Alcotest.failf "monte carlo off: exact=%f est=%f ± %f" exact
        est.Core.Monte_carlo.mean est.Core.Monte_carlo.std_error

(* ------------------------------------------------------------------ *)
(* Closed forms                                                        *)
(* ------------------------------------------------------------------ *)

let single_atom_db seed =
  (* All endogenous, single unary relation with repeating τ-values. *)
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 6 in
  let facts = List.init n (fun i -> Fact.of_ints "R" [ i; Random.State.int rng 4 ]) in
  Database.of_facts facts

let q_pair = Parser.parse_query_exn "Q(u, v) <- R(u, v)"

let closed_form_agrees name alpha closed () =
  let tau = vid "R" 1 in
  let a = Agg_query.make alpha tau q_pair in
  for seed = 0 to 7 do
    let db = single_atom_db seed in
    List.iter
      (fun (f, expected) ->
        let actual = closed a db f in
        if not (Q.equal expected actual) then
          Alcotest.failf "%s (seed %d): %s naive=%s closed=%s" name seed (Fact.to_string f)
            (Q.to_string expected) (Q.to_string actual))
      (Core.Naive.shapley_all a db)
  done

let test_closed_form_guards () =
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
  let db = Database.of_facts [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "S" [ 2 ] ] in
  Alcotest.(check bool) "rejects multi-atom query" true
    (try ignore (Core.Closed_form.avg_single_atom a db (Fact.of_ints "R" [ 1; 2 ])); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Solver dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let test_solver_frontiers () =
  let check_frontier alpha cls =
    Alcotest.(check string)
      (Aggregate.to_string alpha)
      (Hierarchy.cls_to_string cls)
      (Hierarchy.cls_to_string (Core.Solver.frontier alpha))
  in
  check_frontier Aggregate.Sum Hierarchy.Exists_hierarchical;
  check_frontier Aggregate.Count Hierarchy.Exists_hierarchical;
  check_frontier Aggregate.Min Hierarchy.All_hierarchical;
  check_frontier Aggregate.Max Hierarchy.All_hierarchical;
  check_frontier Aggregate.Count_distinct Hierarchy.All_hierarchical;
  check_frontier Aggregate.Avg Hierarchy.Q_hierarchical;
  check_frontier Aggregate.Median Hierarchy.Q_hierarchical;
  check_frontier (Aggregate.Quantile (Q.of_ints 1 3)) Hierarchy.Q_hierarchical;
  check_frontier Aggregate.Has_duplicates Hierarchy.Sq_hierarchical

let test_solver_within_frontier () =
  (* Figure 1, operationally: Avg is tractable on q-hierarchical queries
     but not on q_xyy; Max is tractable on q_xyy; Dup is not tractable on
     q_xyy_full. *)
  Alcotest.(check bool) "avg on q4" true (Core.Solver.within_frontier Aggregate.Avg Catalog.q4_q);
  Alcotest.(check bool) "avg on q_xyy" false
    (Core.Solver.within_frontier Aggregate.Avg Catalog.q_xyy);
  Alcotest.(check bool) "max on q_xyy" true
    (Core.Solver.within_frontier Aggregate.Max Catalog.q_xyy);
  Alcotest.(check bool) "dup on q_xyy_full" false
    (Core.Solver.within_frontier Aggregate.Has_duplicates Catalog.q_xyy_full);
  Alcotest.(check bool) "dup on q1" true
    (Core.Solver.within_frontier Aggregate.Has_duplicates Catalog.q1_sq);
  Alcotest.(check bool) "sum on q_exists" true
    (Core.Solver.within_frontier Aggregate.Sum Catalog.q_exists);
  Alcotest.(check bool) "max on q_exists" false
    (Core.Solver.within_frontier Aggregate.Max Catalog.q_exists)

let test_solver_dispatch_and_fallback () =
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
  let db = Generate.random_database ~seed:5 ~config:small_config Catalog.q_xyy in
  match Database.endogenous db with
  | [] -> Alcotest.fail "empty instance"
  | f :: _ ->
    (* Outside the frontier: naive fallback must match Naive. *)
    let outcome, report = Core.Solver.shapley a db f in
    Alcotest.(check bool) "outside frontier" false report.Core.Solver.within_frontier;
    (match outcome with
     | Core.Solver.Exact v ->
       Alcotest.(check string) "naive fallback" (Q.to_string (Core.Naive.shapley a db f))
         (Q.to_string v)
     | Core.Solver.Estimate _ -> Alcotest.fail "expected exact");
    Alcotest.(check bool) "fail mode raises" true
      (try ignore (Core.Solver.shapley ~fallback:`Fail a db f); false
       with Invalid_argument _ -> true);
    (* Inside the frontier. *)
    let a2 = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
    let _, report2 = Core.Solver.shapley a2 db f in
    Alcotest.(check bool) "inside frontier" true report2.Core.Solver.within_frontier

let test_naive_one_game_per_solve () =
  (* Avg on q_xyy is beyond its frontier, so every batch below runs
     naive enumeration. A τ that counts its calls shows how many
     coalitions were evaluated: one game's worth, not one per fact. *)
  let calls = Atomic.make 0 in
  let tau =
    Value_fn.custom ~rel:"R" ~descr:"counted id" (fun args ->
        Atomic.incr calls;
        Value_fn.apply (vid "R" 0) args)
  in
  let a = Agg_query.make Aggregate.Avg tau Catalog.q_xyy in
  let db = Generate.random_database ~seed:5 ~config:small_config Catalog.q_xyy in
  let n = Database.endo_size db in
  if n < 2 then Alcotest.fail "instance too small to tell one game from n";
  let count f =
    Atomic.set calls 0;
    f ();
    Atomic.get calls
  in
  let one_game =
    count (fun () ->
        let _, g = Core.Naive.game a db in
        for mask = 0 to (1 lsl n) - 1 do
          ignore (g.Core.Game.utility mask)
        done)
  in
  if one_game = 0 then Alcotest.fail "the counting τ was never called";
  Alcotest.(check int) "Solver.shapley_all, naive" one_game
    (count (fun () -> ignore (Core.Solver.shapley_all ~fallback:`Naive a db)));
  Alcotest.(check int) "Api.shapley_all ~score:Banzhaf beyond the frontier" one_game
    (count (fun () -> ignore (Aggshap_api.Api.shapley_all ~score:Score.Banzhaf a db)));
  (* Without endogenous facts there is no game to play, so not even
     A(Dˣ) is evaluated. *)
  let exo_only =
    List.fold_left
      (fun db f -> Database.add ~provenance:Database.Exogenous f db)
      Database.empty
      [ Fact.of_ints "R" [ 1; 1 ]; Fact.of_ints "S" [ 1 ] ]
  in
  Alcotest.(check int) "no players, no evaluation" 0
    (count (fun () ->
         ignore (Core.Solver.shapley_all ~fallback:`Naive a exo_only);
         ignore (Aggshap_api.Api.shapley_all ~score:Score.Banzhaf a exo_only)))

let test_solver_efficiency_axiom () =
  (* End-to-end: the DP Shapley values of all facts sum to A(D) − A(Dˣ). *)
  let combos =
    [ (Aggregate.Max, vid "R" 0, Catalog.q_xyy);
      (Aggregate.Avg, vid "R" 1, Catalog.q_xyy_full);
      (Aggregate.Has_duplicates, vmod "R" 0, Catalog.q1_sq);
      (Aggregate.Sum, vid "R" 0, Catalog.q_exists);
    ]
  in
  List.iter
    (fun (alpha, tau, query) ->
      let a = Agg_query.make alpha tau query in
      for seed = 0 to 3 do
        let db = Generate.random_database ~seed ~config:small_config query in
        if Database.endo_size db >= 1 then begin
          let results, _ = Core.Solver.shapley_all ~fallback:`Fail a db in
          let total =
            List.fold_left
              (fun acc (_, o) ->
                match o with
                | Core.Solver.Exact v -> Q.add acc v
                | Core.Solver.Estimate _ -> Alcotest.fail "expected exact")
              Q.zero results
          in
          let exo = Database.filter (fun _ p -> p = Database.Exogenous) db in
          let expected = Q.sub (Agg_query.eval a db) (Agg_query.eval a exo) in
          if not (Q.equal total expected) then
            Alcotest.failf "efficiency: total=%s expected=%s (%s seed %d)"
              (Q.to_string total) (Q.to_string expected) (Aggregate.to_string alpha) seed
        end
      done)
    combos

(* ------------------------------------------------------------------ *)
(* Query corner cases shared by several DPs                            *)
(* ------------------------------------------------------------------ *)
(* convolution shape dispatch                                          *)
(* ------------------------------------------------------------------ *)

(* Tables.convolve runs all-small tables in the native int domain and
   everything else on the classic paths, which pick between a
   zero-skipping scatter loop and a multiply-accumulate path by operand
   shape: the dense path needs both operands at least acc_threshold (8)
   long AND mostly nonzero. The DP unit tests work on small tables that
   never reach the dense path, so each branch gets a named case here,
   checked against a schoolbook reference. *)
let reference_convolve a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb - 1) B.zero in
  for i = 0 to la - 1 do
    for j = 0 to lb - 1 do
      out.(i + j) <- B.add out.(i + j) (B.mul_schoolbook a.(i) b.(j))
    done
  done;
  out

let counts_testable =
  Alcotest.testable
    (fun ppf t ->
      Format.fprintf ppf "[|%s|]"
        (String.concat "; " (Array.to_list (Array.map B.to_string t))))
    (fun a b -> Array.length a = Array.length b && Array.for_all2 B.equal a b)

let test_convolve_shape name a b () =
  Alcotest.check counts_testable name (reference_convolve a b) (Core.Tables.convolve a b);
  Alcotest.check counts_testable (name ^ " (flipped)") (reference_convolve b a)
    (Core.Tables.convolve b a)

let dense_ramp n = Array.init n (fun i -> B.of_int (i + 1))
let sparse_spikes n = Array.init n (fun i -> if i mod 7 = 0 then B.of_int (i + 2) else B.zero)
let all_max = B.pred (B.pow B.two 900)

(* Small entries except one past 2^62 in the middle. *)
let one_wide n =
  Array.init n (fun i -> if i = n / 2 then B.succ (B.pow B.two 62) else B.of_int (i + 1))

(* All-small entries whose products, or only whose partial sums, leave
   the int range: 2^31 * 2^31 = 2^62, and 2^61 + 2^61 = 2^62. *)
let product_overflow n = Array.make n (B.pow B.two 31)
let sum_overflow_a = [| B.pow B.two 31; B.pow B.two 31 |]
let sum_overflow_b = [| B.pow B.two 30; B.pow B.two 30 |]

(* No product or partial sum overflows, but the middle entry,
   -2^61 - 2^61, is exactly min_int, which only a limb value holds. *)
let min_int_middle_a = [| B.of_int (-(1 lsl 61)); B.of_int (-(1 lsl 61)) |]
let min_int_middle_b = [| B.one; B.one |]

let convolve_shape_cases =
  [ (* min length below the threshold: scatter, however dense. *)
    ("thin x long", dense_ramp 3, dense_ramp 20);
    ("thin x thin", dense_ramp 2, dense_ramp 2);
    (* long operands, mostly zeros: density check keeps the scatter. *)
    ("sparse x sparse", sparse_spikes 16, sparse_spikes 16);
    ("sparse x dense", sparse_spikes 16, dense_ramp 16);
    (* both long and mostly nonzero: the multiply-accumulate path. *)
    ("dense x dense", dense_ramp 12, dense_ramp 12);
    ("dense at threshold", dense_ramp 8, dense_ramp 8);
    ("dense asymmetric", dense_ramp 9, dense_ramp 30);
    (* degenerate shapes. *)
    ("singleton", [| B.of_int 5 |], dense_ramp 10);
    ("all zeros", Array.make 10 B.zero, dense_ramp 10);
    (* long tables of signed multi-limb entries, ±(2^900 - 1). *)
    ("all-max 33x33", Array.make 33 all_max, Array.make 33 (B.neg all_max));
    ("all-max 32x17", Array.make 32 all_max, Array.make 17 (B.neg all_max));
    ("all-max 2x64", Array.make 2 all_max, Array.make 64 (B.neg all_max));
    ("all-max 64x64", Array.make 64 all_max, Array.make 64 (B.neg all_max));
    (* one entry past the int range: the int tier aborts and the
       classic paths start over. *)
    ("one wide entry", one_wide 30, dense_ramp 30);
    (* all-small entries that overflow mid-convolution: the int tier
       aborts on a product, or on a partial sum alone. *)
    ("product overflow", product_overflow 10, product_overflow 10);
    ("partial-sum overflow", sum_overflow_a, sum_overflow_b);
    (* an output entry of exactly min_int. *)
    ("min_int middle entry", min_int_middle_a, min_int_middle_b) ]

(* The int tier takes a convolution only when it finishes without
   overflow and with no output of min_int; every abort leaves the
   result to the classic paths. *)
let test_int_tier_dispatch () =
  let taken name a b expected =
    Core.Tables.reset_stats ();
    ignore (Core.Tables.convolve a b);
    let s = Core.Tables.stats () in
    Alcotest.(check int) (name ^ ": convolutions") 1 s.Core.Tables.convolve;
    Alcotest.(check int) (name ^ ": int tier") (if expected then 1 else 0)
      s.Core.Tables.convolve_small
  in
  taken "dense small" (dense_ramp 12) (dense_ramp 12) true;
  taken "sparse small" (sparse_spikes 16) (dense_ramp 3) true;
  taken "one wide entry" (one_wide 30) (dense_ramp 30) false;
  taken "product overflow" (product_overflow 10) (product_overflow 10) false;
  taken "partial-sum overflow" sum_overflow_a sum_overflow_b false;
  taken "min_int middle entry" min_int_middle_a min_int_middle_b false;
  let middle = (Core.Tables.convolve min_int_middle_a min_int_middle_b).(1) in
  Alcotest.(check string) "min_int middle: value" (string_of_int min_int) (B.to_string middle);
  Alcotest.(check bool) "min_int middle: a limb value" false (B.is_small middle)

let test_convolve_many_mixed_shapes () =
  let ts = [ dense_ramp 12; sparse_spikes 16; dense_ramp 3; dense_ramp 9 ] in
  let expected = List.fold_left reference_convolve [| B.one |] ts in
  Alcotest.check counts_testable "balanced fold matches reference" expected
    (Core.Tables.convolve_many ts)

(* Tables mixing zeros, native-range entries, and multi-limb entries of
   either sign: the value profile of the lifted rational tables the DPs
   feed through [Tables.convolve]. *)
let arb_table =
  let gen_entry =
    QCheck.Gen.(
      frequency
        [ (2, return B.zero);
          (3, map B.of_int (int_range (-1_000_000) 1_000_000));
          (2, map B.of_int int);
          (2,
           let* neg = bool in
           let* ndigits = int_range 1 60 in
           let* digits = list_size (return ndigits) (int_range 0 9) in
           let s = String.concat "" (List.map string_of_int digits) in
           return (B.of_string (if neg then "-" ^ s else s))) ])
  in
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      array_size (return n) gen_entry)
  in
  QCheck.make gen ~print:(fun t ->
      "[" ^ String.concat "; " (Array.to_list (Array.map B.to_string t)) ^ "]")

let convolve_agrees_with_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"convolve agrees with schoolbook reference" ~count:150
       QCheck.(pair arb_table arb_table)
       (fun (a, b) ->
         let out = Core.Tables.convolve a b and expected = reference_convolve a b in
         Array.length out = Array.length expected && Array.for_all2 B.equal out expected))

let convolve_exact_on_squares =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"convolve exact on squared tables" ~count:100 arb_table (fun a ->
         let out = Core.Tables.convolve a a and expected = reference_convolve a a in
         Array.length out = Array.length expected && Array.for_all2 B.equal out expected))

let convolve_many_agrees_with_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"convolve_many agrees with schoolbook fold" ~count:50
       QCheck.(list_of_size Gen.(int_range 0 5) arb_table)
       (fun ts ->
         let out = Core.Tables.convolve_many ts
         and expected = List.fold_left reference_convolve [| B.one |] ts in
         Array.length out = Array.length expected && Array.for_all2 B.equal out expected))

(* ------------------------------------------------------------------ *)

let q_diag = Parser.parse_query_exn "Q(x) <- R(x, x), S(x)"
let q_const_atom = Parser.parse_query_exn "Q(x) <- R(x, 5), S(x)"
let q_three = Parser.parse_query_exn "Q(x) <- R(x, y), S(x), T(x)"

let () =
  let minmax = Core.Minmax.shapley_all in
  let avgq = Core.Avg_quantile.shapley_all in
  let dup = Core.Dup.shapley_all in
  let cdist = Core.Cdist.shapley_all in
  let sumcount = Core.Sum_count.shapley_all in
  Alcotest.run "core"
    [ ( "convolution dispatch",
        List.map
          (fun (name, a, b) ->
            Alcotest.test_case name `Quick (test_convolve_shape name a b))
          convolve_shape_cases
        @ [ Alcotest.test_case "convolve_many mixed shapes" `Quick
              test_convolve_many_mixed_shapes;
            Alcotest.test_case "int tier dispatch and abort" `Quick test_int_tier_dispatch;
            convolve_agrees_with_reference;
            convolve_exact_on_squares;
            convolve_many_agrees_with_reference ] );
      ( "game",
        [ Alcotest.test_case "efficiency" `Quick test_game_efficiency;
          Alcotest.test_case "symmetry and null player" `Quick test_game_symmetry_null;
          Alcotest.test_case "linearity" `Quick test_game_linearity;
          Alcotest.test_case "banzhaf" `Quick test_game_banzhaf;
          Alcotest.test_case "player guard" `Quick test_game_guard;
          shapley_all_int_agrees;
        ] );
      ( "boolean dp",
        [ Alcotest.test_case "counts small" `Quick test_boolean_counts_small;
          Alcotest.test_case "vs naive: q_xyy" `Quick (boolean_agrees "bool q_xyy" Catalog.q_xyy "R");
          Alcotest.test_case "vs naive: q1" `Quick (boolean_agrees "bool q1" Catalog.q1_sq "R");
          Alcotest.test_case "vs naive: q3 (disconnected)" `Quick
            (boolean_agrees "bool q3" Catalog.q3_sq "R");
          Alcotest.test_case "vs naive: q_xyy_full" `Quick
            (boolean_agrees "bool full" Catalog.q_xyy_full "R");
          Alcotest.test_case "vs naive: diagonal atom" `Quick
            (boolean_agrees "bool diag" q_diag "R");
          Alcotest.test_case "rejects non-hierarchical" `Quick
            test_boolean_rejects_nonhierarchical;
        ] );
      ( "sum/count",
        [ Alcotest.test_case "sum vs naive: q_exists" `Quick
            (agree_with_naive "sum q_exists" Aggregate.Sum (vid "R" 0) Catalog.q_exists
               sumcount);
          Alcotest.test_case "sum vs naive: q_xyy" `Quick
            (agree_with_naive "sum q_xyy" Aggregate.Sum (vid "R" 0) Catalog.q_xyy sumcount);
          Alcotest.test_case "count vs naive: q_course" `Quick
            (agree_with_naive "count course" Aggregate.Count (vconst "Earns" 1)
               Catalog.q_course sumcount);
          Alcotest.test_case "sum vs naive: q3 (disconnected)" `Quick
            (agree_with_naive "sum q3" Aggregate.Sum (vid "T" 0) Catalog.q3_sq sumcount);
        ] );
      ( "count-distinct",
        [ Alcotest.test_case "vs naive: q_xyy" `Quick
            (agree_with_naive "cdist q_xyy" Aggregate.Count_distinct (vmod "R" 0)
               Catalog.q_xyy cdist);
          Alcotest.test_case "vs naive: q4" `Quick
            (agree_with_naive "cdist q4" Aggregate.Count_distinct (vmod "R" 1) Catalog.q4_q
               cdist);
          Alcotest.test_case "vs naive: q3" `Quick
            (agree_with_naive "cdist q3" Aggregate.Count_distinct (vmod "T" 0) Catalog.q3_sq
               cdist);
        ] );
      ( "min/max",
        [ Alcotest.test_case "max vs naive: q_xyy" `Quick
            (agree_with_naive "max q_xyy" Aggregate.Max (vid "R" 0) Catalog.q_xyy minmax);
          Alcotest.test_case "min vs naive: q_xyy" `Quick
            (agree_with_naive "min q_xyy" Aggregate.Min (vid "R" 0) Catalog.q_xyy minmax);
          Alcotest.test_case "max vs naive: q1" `Quick
            (agree_with_naive "max q1" Aggregate.Max (vid "S" 0) Catalog.q1_sq minmax);
          Alcotest.test_case "max vs naive: q3 (disconnected)" `Quick
            (agree_with_naive "max q3" Aggregate.Max (vid "T" 0) Catalog.q3_sq minmax);
          Alcotest.test_case "max vs naive: q2" `Quick
            (agree_with_naive "max q2" Aggregate.Max (vid "S" 1) Catalog.q2_sq minmax);
          Alcotest.test_case "max vs naive: diagonal" `Quick
            (agree_with_naive "max diag" Aggregate.Max (vid "R" 0) q_diag minmax);
          Alcotest.test_case "max vs naive: constant atom" `Quick
            (agree_with_naive "max const" Aggregate.Max (vid "R" 0) q_const_atom minmax);
          Alcotest.test_case "max sum_k vs naive" `Quick
            (sumk_agrees "max sum_k" Aggregate.Max (vid "R" 0) Catalog.q_xyy
               Core.Minmax.sum_k);
          Alcotest.test_case "rejects non-all-hierarchical" `Quick (fun () ->
              let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_exists in
              let db = Generate.random_database ~seed:0 Catalog.q_exists in
              Alcotest.(check bool) "raises" true
                (try ignore (Core.Minmax.sum_k a db); false
                 with Invalid_argument _ -> true));
        ] );
      ( "avg/quantile",
        [ Alcotest.test_case "avg vs naive: q4" `Quick
            (agree_with_naive "avg q4" Aggregate.Avg (vid "R" 1) Catalog.q4_q avgq);
          Alcotest.test_case "avg vs naive: q_xyy_full" `Quick
            (agree_with_naive "avg qfull" Aggregate.Avg (vid "S" 0) Catalog.q_xyy_full avgq);
          Alcotest.test_case "avg vs naive: q1" `Quick
            (agree_with_naive "avg q1" Aggregate.Avg (vid "R" 0) Catalog.q1_sq avgq);
          Alcotest.test_case "avg vs naive: q3 (disconnected)" `Quick
            (agree_with_naive "avg q3" Aggregate.Avg (vid "T" 0) Catalog.q3_sq avgq);
          Alcotest.test_case "avg vs naive: q3 tau on R" `Quick
            (agree_with_naive "avg q3R" Aggregate.Avg (vid "R" 0) Catalog.q3_sq avgq);
          Alcotest.test_case "median vs naive: q4" `Quick
            (agree_with_naive "med q4" Aggregate.Median (vid "R" 1) Catalog.q4_q avgq);
          Alcotest.test_case "median vs naive: q2" `Quick
            (agree_with_naive "med q2" Aggregate.Median (vid "R" 1) Catalog.q2_sq avgq);
          Alcotest.test_case "quantile 1/3 vs naive: q1" `Quick
            (agree_with_naive "qnt q1" (Aggregate.Quantile (Q.of_ints 1 3)) (vmod "R" 0)
               Catalog.q1_sq avgq);
          Alcotest.test_case "avg vs naive: three atoms" `Quick
            (agree_with_naive "avg three" Aggregate.Avg (vid "S" 0) q_three avgq);
          Alcotest.test_case "avg sum_k vs naive" `Quick
            (sumk_agrees "avg sum_k" Aggregate.Avg (vid "R" 1) Catalog.q4_q
               Core.Avg_quantile.sum_k);
          Alcotest.test_case "rejects non-q-hierarchical" `Quick (fun () ->
              let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
              let db = Generate.random_database ~seed:0 Catalog.q_xyy in
              Alcotest.(check bool) "raises" true
                (try ignore (Core.Avg_quantile.sum_k a db); false
                 with Invalid_argument _ -> true));
        ] );
      ( "has-duplicates",
        [ Alcotest.test_case "dup vs naive: q1" `Quick
            (agree_with_naive "dup q1" Aggregate.Has_duplicates (vmod "R" 0) Catalog.q1_sq
               dup);
          Alcotest.test_case "dup vs naive: q2" `Quick
            (agree_with_naive "dup q2" Aggregate.Has_duplicates (vmod "S" 0) Catalog.q2_sq
               dup);
          Alcotest.test_case "dup vs naive: q3 tau on R" `Quick
            (agree_with_naive "dup q3R" Aggregate.Has_duplicates (vmod "R" 0) Catalog.q3_sq
               dup);
          Alcotest.test_case "dup vs naive: q3 tau on T" `Quick
            (agree_with_naive "dup q3T" Aggregate.Has_duplicates (vmod "T" 0) Catalog.q3_sq
               dup);
          Alcotest.test_case "dup vs naive: single atom" `Quick
            (agree_with_naive "dup single" Aggregate.Has_duplicates (vmod "R" 1)
               Catalog.q_single_pair dup);
          Alcotest.test_case "dup sum_k vs naive" `Quick
            (sumk_agrees "dup sum_k" Aggregate.Has_duplicates (vmod "R" 0) Catalog.q1_sq
               Core.Dup.sum_k);
          Alcotest.test_case "rejects non-sq-hierarchical" `Quick (fun () ->
              let a =
                Agg_query.make Aggregate.Has_duplicates (vid "R" 0) Catalog.q_xyy_full
              in
              let db = Generate.random_database ~seed:0 Catalog.q_xyy_full in
              Alcotest.(check bool) "raises" true
                (try ignore (Core.Dup.sum_k a db); false
                 with Invalid_argument _ -> true));
        ] );
      ( "stress (dense joins)",
        (let dense = { Generate.tuples_per_relation = 7; domain = 3; exo_fraction = 0.4 } in
         let sparse = { Generate.tuples_per_relation = 4; domain = 5; exo_fraction = 0.1 } in
         [ Alcotest.test_case "max q_xyy dense" `Slow
             (agree_with_naive ~seeds:5 ~config:dense "max dense" Aggregate.Max (vid "R" 0)
                Catalog.q_xyy minmax);
           Alcotest.test_case "max q3 sparse" `Slow
             (agree_with_naive ~seeds:5 ~config:sparse "max sparse" Aggregate.Max (vid "T" 0)
                Catalog.q3_sq minmax);
           Alcotest.test_case "avg q4 dense" `Slow
             (agree_with_naive ~seeds:5 ~config:dense "avg dense" Aggregate.Avg (vid "R" 1)
                Catalog.q4_q avgq);
           Alcotest.test_case "avg q_xyy_full sparse" `Slow
             (agree_with_naive ~seeds:5 ~config:sparse "avg sparse" Aggregate.Avg (vid "S" 0)
                Catalog.q_xyy_full avgq);
           Alcotest.test_case "median q1 dense" `Slow
             (agree_with_naive ~seeds:5 ~config:dense "med dense" Aggregate.Median
                (vmod "R" 0) Catalog.q1_sq avgq);
           Alcotest.test_case "dup q1 dense" `Slow
             (agree_with_naive ~seeds:5 ~config:dense "dup dense" Aggregate.Has_duplicates
                (vmod "R" 0) Catalog.q1_sq dup);
           Alcotest.test_case "dup q3 dense" `Slow
             (agree_with_naive ~seeds:5 ~config:dense "dup3 dense" Aggregate.Has_duplicates
                (vmod "R" 0) Catalog.q3_sq dup);
           Alcotest.test_case "cdist q_xyy dense" `Slow
             (agree_with_naive ~seeds:5 ~config:dense "cdist dense" Aggregate.Count_distinct
                (vmod "R" 0) Catalog.q_xyy cdist);
           Alcotest.test_case "sum q_exists dense" `Slow
             (agree_with_naive ~seeds:5 ~config:dense "sum dense" Aggregate.Sum (vid "R" 0)
                Catalog.q_exists sumcount);
         ]) );
      ( "d-trees (Remark 4.5)",
        [ Alcotest.test_case "compiled counts match the Boolean DP" `Quick (fun () ->
              List.iter
                (fun (name, query, _) ->
                  let q = Cq.make_boolean query in
                  if Hierarchy.is_all_hierarchical q then
                    for seed = 0 to 4 do
                      let db = Generate.random_database ~seed ~config:small_config query in
                      let tree = Core.Dtree.compile q db in
                      if not (Core.Dtree.is_read_once tree) then
                        Alcotest.failf "%s: compiled tree is not read-once" name;
                      let from_tree = Core.Dtree.satisfying_counts tree db in
                      let from_dp = Core.Boolean_dp.counts q db in
                      Array.iteri
                        (fun k c ->
                          if not (B.equal c from_tree.(k)) then
                            Alcotest.failf "%s seed %d: counts differ at k=%d" name seed k)
                        from_dp
                    done)
                Catalog.figure1);
          Alcotest.test_case "evaluation matches direct CQ evaluation" `Quick (fun () ->
              let q = Cq.make_boolean Catalog.q_xyy in
              for seed = 0 to 4 do
                let db = Generate.random_database ~seed ~config:small_config Catalog.q_xyy in
                let tree = Core.Dtree.compile q db in
                let endo = Array.of_list (Database.endogenous db) in
                let n = Array.length endo in
                if n <= 10 then
                  for mask = 0 to (1 lsl n) - 1 do
                    let chosen f =
                      let i = ref (-1) in
                      Array.iteri (fun j g -> if Fact.equal f g then i := j) endo;
                      !i >= 0 && mask land (1 lsl !i) <> 0
                    in
                    let sub =
                      Database.filter
                        (fun f p -> p = Database.Exogenous || chosen f)
                        db
                    in
                    let direct = Aggshap_cq.Eval.is_satisfied q sub in
                    let via_tree = Core.Dtree.eval tree chosen in
                    if direct <> via_tree then
                      Alcotest.failf "seed %d mask %d: tree=%b direct=%b" seed mask
                        via_tree direct
                  done
              done);
          Alcotest.test_case "shapley via the tree matches Boolean DP" `Quick (fun () ->
              for seed = 0 to 4 do
                let db = Generate.random_database ~seed ~config:small_config Catalog.q1_sq in
                let q = Cq.make_boolean Catalog.q1_sq in
                let tree = Core.Dtree.compile q db in
                List.iter
                  (fun f ->
                    let a = Core.Dtree.shapley tree db f in
                    let b = Core.Boolean_dp.shapley q db f in
                    if not (Q.equal a b) then
                      Alcotest.failf "seed %d: %s" seed (Fact.to_string f))
                  (Database.endogenous db)
              done);
          Alcotest.test_case "rejects non-hierarchical queries" `Quick (fun () ->
              let db = Generate.random_database ~seed:0 Catalog.q_nonhier in
              Alcotest.(check bool) "raises" true
                (try ignore (Core.Dtree.compile Catalog.q_nonhier db); false
                 with Invalid_argument _ -> true));
        ] );
      ( "monotone monoid max (Sec 7.3)",
        (* Non-localized τ = monoid over head variables; ground truth is
           a hand-built game evaluating Max ∘ ⊗ directly. *)
        (let monoid_game m vars q db =
           let players = Array.of_list (Database.endogenous db) in
           let exo = Database.filter (fun _ p -> p = Database.Exogenous) db in
           let utility mask =
             let sub = ref exo in
             Array.iteri
               (fun i f -> if mask land (1 lsl i) <> 0 then sub := Database.add f !sub)
               players;
             let answers = Aggshap_cq.Eval.answers q !sub in
             List.fold_left
               (fun acc t ->
                 let v = Core.Minmax_monoid.tau m ~vars t q.Cq.head in
                 match acc with None -> Some v | Some w -> Some (Q.max v w))
               None answers
             |> Option.value ~default:Q.zero
           in
           (players, Core.Game.make ~n:(Array.length players) utility)
         in
         let check_monoid name m vars query () =
           for seed = 0 to 5 do
             let db = Generate.random_database ~seed ~config:small_config query in
             let n = Database.endo_size db in
             if n >= 1 && n <= 10 then begin
               let players, game = monoid_game m vars query db in
               Array.iteri
                 (fun i f ->
                   let expected = Core.Game.shapley game i in
                   let actual = Core.Minmax_monoid.shapley m ~vars query db f in
                   if not (Q.equal expected actual) then
                     Alcotest.failf "%s seed %d: %s game=%s dp=%s" name seed
                       (Fact.to_string f) (Q.to_string expected) (Q.to_string actual))
                 players
             end
           done
         in
         [ Alcotest.test_case "Max(x+y) on Qfull" `Quick
             (check_monoid "plus qfull" Core.Minmax_monoid.plus [ "x"; "y" ]
                Catalog.q_xyy_full);
           Alcotest.test_case "Max(x+z) on disconnected Q3" `Quick
             (check_monoid "plus q3" Core.Minmax_monoid.plus [ "x"; "z" ] Catalog.q3_sq);
           Alcotest.test_case "Max(max(x,z)) on disconnected Q3" `Quick
             (check_monoid "maxmax q3" Core.Minmax_monoid.max_monoid [ "x"; "z" ]
                Catalog.q3_sq);
           Alcotest.test_case "single tracked variable degenerates to Max" `Quick
             (fun () ->
               let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
               for seed = 0 to 4 do
                 let db = Generate.random_database ~seed ~config:small_config Catalog.q_xyy in
                 if Database.endo_size db >= 1 then
                   List.iter
                     (fun f ->
                       let via_monoid =
                         Core.Minmax_monoid.shapley Core.Minmax_monoid.plus ~vars:[ "x" ]
                           Catalog.q_xyy db f
                       in
                       let via_minmax = Core.Minmax.shapley a db f in
                       if not (Q.equal via_monoid via_minmax) then
                         Alcotest.failf "seed %d: %s" seed (Fact.to_string f))
                     (Database.endogenous db)
               done);
           Alcotest.test_case "rejects existential tracked variables" `Quick (fun () ->
               let db = Generate.random_database ~seed:0 Catalog.q_xyy in
               Alcotest.(check bool) "raises" true
                 (try
                    ignore
                      (Core.Minmax_monoid.sum_k Core.Minmax_monoid.plus ~vars:[ "y" ]
                         Catalog.q_xyy db);
                    false
                  with Invalid_argument _ -> true));
         ]) );
      ( "localization (Prop 7.3)",
        [ Alcotest.test_case "avg with τ on T vs naive" `Quick (fun () ->
              let tau = Value_fn.relu ~rel:"T" ~pos:0 in
              let a = Agg_query.make Aggregate.Avg tau Core.Localization.q_xyyz in
              for seed = 0 to 5 do
                let db =
                  Generate.random_database ~seed ~config:small_config
                    Core.Localization.q_xyyz
                in
                let n = Database.endo_size db in
                if n >= 1 && n <= 10 then
                  List.iter
                    (fun (f, expected) ->
                      let actual = Core.Localization.avg_on_t_shapley tau db f in
                      if not (Q.equal expected actual) then
                        Alcotest.failf "avg_on_t seed %d: %s naive=%s got=%s" seed
                          (Fact.to_string f) (Q.to_string expected) (Q.to_string actual))
                    (Core.Naive.shapley_all a db)
              done);
          Alcotest.test_case "median with τ on T vs naive" `Quick (fun () ->
              let tau = vid "T" 0 in
              let a = Agg_query.make Aggregate.Median tau Core.Localization.q_xyyz in
              for seed = 0 to 5 do
                let db =
                  Generate.random_database ~seed ~config:small_config
                    Core.Localization.q_xyyz
                in
                let n = Database.endo_size db in
                if n >= 1 && n <= 10 then
                  List.iter
                    (fun (f, expected) ->
                      let actual = Core.Localization.median_on_t_shapley tau db f in
                      if not (Q.equal expected actual) then
                        Alcotest.failf "median_on_t seed %d: %s naive=%s got=%s" seed
                          (Fact.to_string f) (Q.to_string expected) (Q.to_string actual))
                    (Core.Naive.shapley_all a db)
              done);
          Alcotest.test_case "dup with τ = y-value vs naive" `Quick (fun () ->
              let tau = vid "S" 0 in
              let a =
                Agg_query.make Aggregate.Has_duplicates tau Core.Localization.q_full
              in
              for seed = 0 to 7 do
                let db =
                  Generate.random_database ~seed ~config:small_config
                    Core.Localization.q_full
                in
                let n = Database.endo_size db in
                if n >= 1 && n <= 10 then
                  List.iter
                    (fun (f, expected) ->
                      let actual = Core.Localization.dup_on_y_shapley db f in
                      if not (Q.equal expected actual) then
                        Alcotest.failf "dup_on_y seed %d: %s naive=%s got=%s" seed
                          (Fact.to_string f) (Q.to_string expected) (Q.to_string actual))
                    (Core.Naive.shapley_all a db)
              done);
          Alcotest.test_case "τ on the first atom is outside the frontier" `Quick
            (fun () ->
              (* The same CQ is not q-hierarchical, so the generic DP
                 refuses it — Prop 7.3 is what makes τ-on-T solvable. *)
              Alcotest.(check bool) "q_xyyz not q-hierarchical" false
                (Hierarchy.is_q_hierarchical Core.Localization.q_xyyz));
        ] );
      ( "shapley-like scores (Sec 3.2)",
        [ Alcotest.test_case "banzhaf via sum_k: max" `Quick (fun () ->
              let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
              for seed = 0 to 5 do
                let db =
                  Generate.random_database ~seed ~config:small_config Catalog.q_xyy
                in
                let n = Database.endo_size db in
                if n >= 1 && n <= 10 then begin
                  let players, game = Core.Naive.game a db in
                  Array.iteri
                    (fun i f ->
                      let expected = Core.Game.banzhaf game i in
                      let actual = Core.Minmax.shapley ~score:Score.Banzhaf a db f in
                      if not (Q.equal expected actual) then
                        Alcotest.failf "banzhaf max seed %d: %s" seed (Fact.to_string f))
                    players
                end
              done);
          Alcotest.test_case "banzhaf via linearity: sum and cdist" `Quick (fun () ->
              let combos =
                [ (Aggregate.Sum, vid "R" 0, Catalog.q_exists);
                  (Aggregate.Count_distinct, vmod "R" 0, Catalog.q_xyy);
                ]
              in
              List.iter
                (fun (alpha, tau, query) ->
                  let a = Agg_query.make alpha tau query in
                  for seed = 0 to 4 do
                    let db = Generate.random_database ~seed ~config:small_config query in
                    let n = Database.endo_size db in
                    if n >= 1 && n <= 10 then begin
                      let players, game = Core.Naive.game a db in
                      Array.iteri
                        (fun i f ->
                          let expected = Core.Game.banzhaf game i in
                          let actual =
                            match Core.Solver.shapley ~score:Score.Banzhaf a db f with
                            | Core.Solver.Exact v, _ -> v
                            | Core.Solver.Estimate _, _ -> Alcotest.fail "estimate"
                          in
                          if not (Q.equal expected actual) then
                            Alcotest.failf "banzhaf %s seed %d: %s"
                              (Aggregate.to_string alpha) seed (Fact.to_string f))
                        players
                    end
                  done)
                combos);
          Alcotest.test_case "banzhaf via sum_k: dup" `Quick (fun () ->
              let a = Agg_query.make Aggregate.Has_duplicates (vmod "R" 0) Catalog.q1_sq in
              for seed = 0 to 5 do
                let db =
                  Generate.random_database ~seed ~config:small_config Catalog.q1_sq
                in
                let n = Database.endo_size db in
                if n >= 1 && n <= 10 then begin
                  let players, game = Core.Naive.game a db in
                  Array.iteri
                    (fun i f ->
                      let expected = Core.Game.banzhaf game i in
                      let actual = Core.Dup.shapley ~score:Score.Banzhaf a db f in
                      if not (Q.equal expected actual) then
                        Alcotest.failf "banzhaf dup seed %d: %s" seed (Fact.to_string f))
                    players
                end
              done);
        ] );
      ( "constant per singleton (Prop 3.2)",
        [ Alcotest.test_case "Shapley(f, α∘c∘Q) = α({c}) · Shapley(f, Q_bool)" `Quick
            (fun () ->
              (* For τ ≡ 5 and α = Avg (constant per singleton with
                 α({5}) = 5), the AggCQ game is 5 times the membership
                 game. *)
              let a = Agg_query.make Aggregate.Avg (vconst "R" 5) Catalog.q_xyy in
              let qbool = Cq.make_boolean Catalog.q_xyy in
              for seed = 0 to 5 do
                let db =
                  Generate.random_database ~seed ~config:small_config Catalog.q_xyy
                in
                if Database.endo_size db >= 1 && Database.endo_size db <= 10 then
                  List.iter
                    (fun (f, direct) ->
                      let via_membership =
                        Q.mul_int (Core.Boolean_dp.shapley qbool db f) 5
                      in
                      if not (Q.equal direct via_membership) then
                        Alcotest.failf "prop 3.2 seed %d: %s" seed (Fact.to_string f))
                    (Core.Naive.shapley_all a db)
              done);
        ] );
      ( "monte carlo",
        [ Alcotest.test_case "converges to exact" `Slow test_monte_carlo_converges ] );
      ( "closed forms",
        [ Alcotest.test_case "cdist (Prop 4.2)" `Quick
            (closed_form_agrees "cdist closed" Aggregate.Count_distinct
               Core.Closed_form.cdist_single_atom);
          Alcotest.test_case "max (Prop 4.4)" `Quick
            (closed_form_agrees "max closed" Aggregate.Max Core.Closed_form.max_single_atom);
          Alcotest.test_case "min (Prop 4.4 negated)" `Quick
            (closed_form_agrees "min closed" Aggregate.Min Core.Closed_form.min_single_atom);
          Alcotest.test_case "avg (Prop 5.2)" `Quick
            (closed_form_agrees "avg closed" Aggregate.Avg Core.Closed_form.avg_single_atom);
          Alcotest.test_case "premise guards" `Quick test_closed_form_guards;
        ] );
      ( "random queries vs naive",
        (* Beyond the fixed catalog: random CQs, random databases, the
           solver's frontier dispatch checked against enumeration. *)
        (let module Rcq = Aggshap_workload.Random_cq in
         let tau_for q =
           match Rcq.free_position q with
           | Some (rel, pos) -> vid rel pos
           | None -> vconst (List.hd (Cq.relations q)) 1
         in
         let run_alpha alpha () =
           let checked = ref 0 in
           let seed = ref 0 in
           while !checked < 12 && !seed < 400 do
             let q = Rcq.generate ~seed:!seed () in
             incr seed;
             if Core.Solver.within_frontier alpha q then begin
               let a = Agg_query.make alpha (tau_for q) q in
               let db =
                 Generate.random_database ~seed:(1000 + !seed)
                   ~config:{ Generate.tuples_per_relation = 2; domain = 2; exo_fraction = 0.25 }
                   q
               in
               let n = Database.endo_size db in
               if n >= 1 && n <= 9 then begin
                 incr checked;
                 List.iter
                   (fun (f, expected) ->
                     match Core.Solver.shapley ~fallback:`Fail a db f with
                     | Core.Solver.Exact actual, _ ->
                       if not (Q.equal expected actual) then
                         Alcotest.failf "%s on %s (seed %d): %s naive=%s dp=%s"
                           (Aggregate.to_string alpha) (Cq.to_string q) (!seed - 1)
                           (Fact.to_string f) (Q.to_string expected) (Q.to_string actual)
                     | Core.Solver.Estimate _, _ -> Alcotest.fail "expected exact")
                   (Core.Naive.shapley_all a db)
               end
             end
           done;
           if !checked < 12 then
             Alcotest.failf "%s: only %d random instances found" (Aggregate.to_string alpha)
               !checked
         in
         [ Alcotest.test_case "classification entailments" `Quick (fun () ->
               for seed = 0 to 200 do
                 let q = Rcq.generate ~seed () in
                 let sq = Hierarchy.is_sq_hierarchical q in
                 let qh = Hierarchy.is_q_hierarchical q in
                 let ah = Hierarchy.is_all_hierarchical q in
                 let eh = Hierarchy.is_exists_hierarchical q in
                 if sq && not qh then Alcotest.failf "sq but not q: %s" (Cq.to_string q);
                 if qh && not ah then Alcotest.failf "q but not all: %s" (Cq.to_string q);
                 if ah && not eh then Alcotest.failf "all but not exists: %s" (Cq.to_string q)
               done);
           Alcotest.test_case "parser roundtrip on generated queries" `Quick (fun () ->
               for seed = 0 to 100 do
                 let q = Rcq.generate ~seed () in
                 let q' = Parser.parse_query_exn (Cq.to_string q) in
                 if not (Cq.equal q q') then Alcotest.failf "roundtrip: %s" (Cq.to_string q)
               done);
           Alcotest.test_case "connected hierarchical queries have roots" `Quick (fun () ->
               for seed = 0 to 200 do
                 let q = Rcq.generate ~seed () in
                 if Hierarchy.is_all_hierarchical q then
                   List.iter
                     (fun comp ->
                       if not (Aggshap_cq.Decompose.is_ground comp)
                          && Aggshap_cq.Decompose.choose_root comp = None
                       then Alcotest.failf "no root in component of %s" (Cq.to_string q))
                     (Aggshap_cq.Decompose.connected_components q)
               done);
           Alcotest.test_case "sum on random queries" `Slow (run_alpha Aggregate.Sum);
           Alcotest.test_case "max on random queries" `Slow (run_alpha Aggregate.Max);
           Alcotest.test_case "count-distinct on random queries" `Slow
             (run_alpha Aggregate.Count_distinct);
           Alcotest.test_case "avg on random queries" `Slow (run_alpha Aggregate.Avg);
           Alcotest.test_case "median on random queries" `Slow (run_alpha Aggregate.Median);
           Alcotest.test_case "has-duplicates on random queries" `Slow
             (run_alpha Aggregate.Has_duplicates);
         ]) );
      ( "solver",
        [ Alcotest.test_case "frontier table" `Quick test_solver_frontiers;
          Alcotest.test_case "within_frontier (Figure 1)" `Quick test_solver_within_frontier;
          Alcotest.test_case "dispatch and fallback" `Quick test_solver_dispatch_and_fallback;
          Alcotest.test_case "efficiency axiom end-to-end" `Quick
            test_solver_efficiency_axiom;
          Alcotest.test_case "naive: one game per solve" `Quick
            test_naive_one_game_per_solve;
        ] );
    ]
