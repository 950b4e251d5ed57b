(* The incremental maintenance engine: session results must be
   bit-identical to from-scratch batch solves after every update, the
   persistent memo must refuse to serve tables stamped for a different
   (aggregate, τ, query), and the session's own argument checks must
   fire. *)

module Q = Aggshap_arith.Rational
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database
module Parser = Aggshap_cq.Parser
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Batch = Aggshap_core.Batch
module Solver = Aggshap_core.Solver
module Session = Aggshap_incr.Session
module Update = Aggshap_incr.Update
module Script = Aggshap_incr.Script

let query s =
  match Parser.parse_query s with Ok q -> q | Error m -> Alcotest.fail m

let db s =
  match Parser.parse_database s with Ok d -> d | Error m -> Alcotest.fail m

let fact s =
  match Parser.parse_fact s with Ok (f, _) -> f | Error m -> Alcotest.fail m

let results_testable =
  Alcotest.testable
    (fun ppf rs ->
      Format.fprintf ppf "[%s]"
        (String.concat "; "
           (List.map (fun (f, v) -> Fact.to_string f ^ "=" ^ Q.to_string v) rs)))
    (List.equal (fun (f1, v1) (f2, v2) -> Fact.equal f1 f2 && Q.equal v1 v2))

let q_rs = query "Q(x) <- R(x, y), S(y)"

let db0 =
  db "R(1, 10)\nR(2, 10)\nR(3, 20)\nS(10)\nS(20) @exo"

(* ------------------------------------------------------------------ *)
(* the memo's τ contract                                               *)
(* ------------------------------------------------------------------ *)

(* DP tables are keyed on (sub-query, block fingerprint) — τ is outside
   the key, so a memo created under one τ must never be consulted under
   another. The fingerprint stamp enforces this at the API boundary. *)
let test_memo_refuses_other_tau () =
  let a1 = Agg_query.make Aggregate.Sum (Value_fn.const ~rel:"R" Q.one) q_rs in
  let a2 = Agg_query.make Aggregate.Sum (Value_fn.id ~rel:"R" ~pos:1) q_rs in
  let memo = Batch.create_memo a1 in
  let r1, _ = Batch.shapley_all ~jobs:1 ~memo a1 db0 in
  let fresh, _ = Batch.shapley_all ~jobs:1 a1 db0 in
  Alcotest.check results_testable "memo run matches fresh run" fresh r1;
  Alcotest.check_raises "τ changed: memo refused"
    (Invalid_argument
       "Batch: memo was created for a different (aggregate, tau, query); \
        create a fresh one (tau is outside the DP-table cache key)")
    (fun () -> ignore (Batch.shapley_all ~jobs:1 ~memo a2 db0))

let test_memo_refuses_other_aggregate_and_query () =
  let a1 = Agg_query.make Aggregate.Sum (Value_fn.const ~rel:"R" Q.one) q_rs in
  let memo = Batch.create_memo a1 in
  let a_count = Agg_query.make Aggregate.Count (Value_fn.const ~rel:"R" Q.one) q_rs in
  let q' = query "Q(x) <- R(x, y)" in
  let a_q' = Agg_query.make Aggregate.Sum (Value_fn.const ~rel:"R" Q.one) q' in
  List.iter
    (fun a ->
      match Batch.shapley_all ~jobs:1 ~memo a db0 with
      | _ -> Alcotest.fail "memo accepted a mismatched query"
      | exception Invalid_argument _ -> ())
    [ a_count; a_q' ]

(* Database updates, by contrast, need no flush: changed blocks change
   their content fingerprint, so a memo stays valid across them. *)
let test_memo_survives_database_updates () =
  let a = Agg_query.make Aggregate.Max (Value_fn.id ~rel:"R" ~pos:1) q_rs in
  let memo = Batch.create_memo a in
  let check db =
    let with_memo, _ = Batch.shapley_all ~jobs:1 ~memo a db in
    let fresh, _ = Batch.shapley_all ~jobs:1 a db in
    Alcotest.check results_testable "memo run matches fresh run" fresh with_memo
  in
  check db0;
  check (Database.add (fact "R(4, 30)") db0);
  check (Database.remove (fact "R(1, 10)") db0)

(* ------------------------------------------------------------------ *)
(* session argument checks                                             *)
(* ------------------------------------------------------------------ *)

let test_delete_absent_raises () =
  let a = Agg_query.make Aggregate.Sum (Value_fn.const ~rel:"R" Q.one) q_rs in
  let session = Session.open_ a db0 in
  Alcotest.check_raises "absent delete refused"
    (Invalid_argument "Incr.Session: delete of absent fact R(9, 9)")
    (fun () -> Session.apply session (Update.Delete (fact "R(9, 9)")))

let test_open_outside_frontier_raises () =
  let q = query "Q() <- R(x), S(x, y), T(y)" in
  let a = Agg_query.make Aggregate.Count (Value_fn.const ~rel:"R" Q.one) q in
  assert (not (Solver.within_frontier Aggregate.Count q));
  match Session.open_ a Database.empty with
  | _ -> Alcotest.fail "session opened outside the frontier"
  | exception Invalid_argument _ -> ()

let test_set_tau_foreign_relation_raises () =
  let a = Agg_query.make Aggregate.Sum (Value_fn.const ~rel:"R" Q.one) q_rs in
  let session = Session.open_ a db0 in
  match Session.apply session (Update.Set_tau (Value_fn.const ~rel:"T" Q.one, "const:T:1")) with
  | () -> Alcotest.fail "set_tau accepted a relation outside the query"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* session vs batch, all six DP families                               *)
(* ------------------------------------------------------------------ *)

(* A fixed handcrafted update sequence replayed per aggregate: the
   session must agree with a from-scratch batch solve (independently
   tracked database and τ) after the initial build and every step.
   The Boolean-head query is sq-hierarchical, inside every aggregate's
   frontier, so one instance covers all six DP families. *)
let q_bool = query "Q() <- R(x, y), S(y)"
let script_ops =
  [ Update.Insert (fact "R(4, 10)", Database.Endogenous);
    Update.Insert (fact "S(30)", Database.Exogenous);
    Update.Delete (fact "R(3, 20)");
    Update.Set_tau (Value_fn.const ~rel:"R" (Q.of_int 3), "const:R:3");
    Update.Insert (fact "R(5, 30)", Database.Endogenous);
    Update.Delete (fact "R(2, 10)");
    Update.Set_tau (Value_fn.const ~rel:"R" Q.minus_one, "const:R:-1") ]

let test_session_matches_batch alpha () =
  let tau0 = Value_fn.const ~rel:"R" Q.one in
  let a0 = Agg_query.make alpha tau0 q_bool in
  assert (Solver.within_frontier alpha q_bool);
  let session = Session.open_ a0 db0 in
  let a = ref a0 and db = ref db0 in
  let check step =
    let expected, _ = Batch.shapley_all ~jobs:1 !a !db in
    Alcotest.check results_testable
      (Printf.sprintf "%s, step %d" (Aggregate.to_string alpha) step)
      expected
      (Session.shapley_all session)
  in
  check 0;
  List.iteri
    (fun i op ->
      (match op with
       | Update.Insert (f, prov) -> db := Database.add ~provenance:prov f !db
       | Update.Delete f -> db := Database.remove f !db
       | Update.Set_tau (tau, _) -> a := Agg_query.make alpha tau q_bool);
      Session.apply session op;
      check (i + 1))
    script_ops

(* The Linear engine's economy: after updates that touch one answer's
   block, untouched membership games are served from cache. *)
let test_linear_engine_reuses () =
  let a = Agg_query.make Aggregate.Sum (Value_fn.const ~rel:"R" Q.one) q_rs in
  let session = Session.open_ a db0 in
  ignore (Session.shapley_all session);
  Session.apply session (Update.Insert (fact "R(4, 10)", Database.Endogenous));
  ignore (Session.shapley_all session);
  let stats = Session.stats session in
  Alcotest.(check bool) "some games were reused" true (stats.Session.games_reused > 0);
  (match Session.reuse_ratio stats with
   | Some r -> Alcotest.(check bool) "reuse ratio positive" true (r > 0.)
   | None -> Alcotest.fail "no games read");
  Alcotest.(check int) "one update applied" 1 stats.Session.steps;
  Alcotest.(check int) "no set_tau flushes" 0 stats.Session.full_recomputes

(* Round-trip of the textual script format behind shapctl session. *)
let test_script_round_trip () =
  let text = Script.to_string script_ops in
  match Script.parse text with
  | Error m -> Alcotest.fail m
  | Ok parsed ->
    Alcotest.(check int) "same length" (List.length script_ops) (List.length parsed);
    List.iter2
      (fun expected (_, got) ->
        Alcotest.(check string) "op round-trips" (Update.to_string expected)
          (Update.to_string got))
      script_ops parsed

let test_script_errors_carry_line_numbers () =
  (match Script.parse "insert R(1, 2)\n\nfrobnicate R(1)" with
   | Ok _ -> Alcotest.fail "malformed op accepted"
   | Error m ->
     Alcotest.(check bool) ("mentions line 3: " ^ m) true
       (String.length m >= 7 && String.sub m 0 7 = "line 3:"));
  match Script.parse "delete R(1, 2) @exo" with
  | Ok _ -> Alcotest.fail "delete with provenance marker accepted"
  | Error m ->
    Alcotest.(check bool) ("mentions line 1: " ^ m) true
      (String.length m >= 7 && String.sub m 0 7 = "line 1:")

let () =
  Alcotest.run "incr"
    [ ( "memo contract",
        [ Alcotest.test_case "refuses other tau" `Quick test_memo_refuses_other_tau;
          Alcotest.test_case "refuses other aggregate/query" `Quick
            test_memo_refuses_other_aggregate_and_query;
          Alcotest.test_case "survives database updates" `Quick
            test_memo_survives_database_updates;
        ] );
      ( "session checks",
        [ Alcotest.test_case "delete of absent fact" `Quick test_delete_absent_raises;
          Alcotest.test_case "outside frontier" `Quick test_open_outside_frontier_raises;
          Alcotest.test_case "set_tau foreign relation" `Quick
            test_set_tau_foreign_relation_raises;
        ] );
      ( "session vs batch",
        List.map
          (fun alpha ->
            Alcotest.test_case (Aggregate.to_string alpha) `Quick
              (test_session_matches_batch alpha))
          [ Aggregate.Sum; Aggregate.Count; Aggregate.Count_distinct; Aggregate.Min;
            Aggregate.Max; Aggregate.Avg; Aggregate.Median;
            Aggregate.Quantile (Q.of_string "1/3"); Aggregate.Has_duplicates ] );
      ( "engine economy",
        [ Alcotest.test_case "linear engine reuses games" `Quick
            test_linear_engine_reuses ] );
      ( "scripts",
        [ Alcotest.test_case "round trip" `Quick test_script_round_trip;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_script_errors_carry_line_numbers;
        ] );
    ]
