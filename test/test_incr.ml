(* The incremental maintenance engine: session results must be
   bit-identical to from-scratch batch solves after every update, a
   Generic session read must do exactly the work of a one-shot solve,
   only the Linear engine keeps anything a skipped invalidation can
   leave stale, and the session's own argument checks must fire. *)

module Q = Aggshap_arith.Rational
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database
module Parser = Aggshap_cq.Parser
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Batch = Aggshap_core.Batch
module Engine = Aggshap_core.Engine
module Solver = Aggshap_core.Solver
module Session = Aggshap_incr.Session
module Update = Aggshap_incr.Update
module Script = Aggshap_incr.Script
module Fault = Aggshap_arith.Fault

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
(* set_tau and updates on a non-Boolean head                           *)
(* ------------------------------------------------------------------ *)

(* [q_rs] has one answer per R block, so one session serves several
   answers. After a set_tau or an update, a read must equal a fresh
   solve of the current database under the current τ. *)
let check_read what session a db =
  let expected, _ = Batch.shapley_all a db in
  Alcotest.check results_testable what expected (Session.shapley_all session)

(* The two τ give different values, so a table kept from the first
   read and served in the second would show. *)
let test_generic_set_tau () =
  let a1 = Agg_query.make Aggregate.Max (Value_fn.id ~rel:"R" ~pos:1) q_rs in
  let a2 = Agg_query.make Aggregate.Max (Value_fn.id ~rel:"R" ~pos:0) q_rs in
  Alcotest.(check bool) "the two tau give different values" false
    (Alcotest.equal results_testable (fst (Batch.shapley_all a1 db0))
       (fst (Batch.shapley_all a2 db0)));
  let session = Session.open_ a1 db0 in
  check_read "read under id:R:1" session a1 db0;
  Session.apply session (Update.Set_tau (a2.Agg_query.tau, "id:R:0"));
  check_read "read under id:R:0" session a2 db0

(* Membership games do not depend on τ: after a set_tau a Sum session
   recomputes no game and serves every game of its last read from its
   cache, re-weighted under the new τ. *)
let test_linear_set_tau_keeps_games () =
  let a1 = Agg_query.make Aggregate.Sum (Value_fn.const ~rel:"R" Q.one) q_rs in
  let a2 = Agg_query.make Aggregate.Sum (Value_fn.id ~rel:"R" ~pos:1) q_rs in
  let session = Session.open_ a1 db0 in
  check_read "read under const:R:1" session a1 db0;
  let s1 = Session.stats session in
  Session.apply session (Update.Set_tau (a2.Agg_query.tau, "id:R:1"));
  check_read "read under id:R:1" session a2 db0;
  let s2 = Session.stats session in
  Alcotest.(check int) "no game recomputed" s1.Session.games_computed
    s2.Session.games_computed;
  Alcotest.(check int) "every game reused" s1.Session.games_computed
    (s2.Session.games_reused - s1.Session.games_reused)

(* R(1, 20) joins the answer x = 1. Deleting S(10) takes x = 2 away
   and changes the game of x = 1. Inserting S(10) back, now exogenous,
   returns x = 2 with a different game than it left with. Each step
   changes a game the Sum session read before it, so a game served
   stale would show; the Max session re-solves. *)
let test_answers_leave_and_return () =
  List.iter
    (fun alpha ->
      let a = Agg_query.make alpha (Value_fn.id ~rel:"R" ~pos:0) q_rs in
      let session = Session.open_ a db0 in
      let db = ref db0 in
      let name what = Printf.sprintf "%s, %s" (Aggregate.to_string alpha) what in
      check_read (name "initial read") session a !db;
      List.iter
        (fun op ->
          (match op with
           | Update.Insert (f, prov) -> db := Database.add ~provenance:prov f !db
           | Update.Delete f -> db := Database.remove f !db
           | Update.Set_tau _ -> ());
          Session.apply session op;
          check_read (name (Update.to_string op)) session a !db)
        [ Update.Insert (fact "R(1, 20)", Database.Endogenous);
          Update.Delete (fact "S(10)");
          Update.Insert (fact "S(10)", Database.Exogenous) ])
    [ Aggregate.Sum; Aggregate.Max ]

(* Each cycle inserts a fact that makes a new answer, reads, deletes it
   and reads again. The departed answer's game must go with it: after
   warm-up cycles, further cycles leave the live heap where it was,
   where keeping every game ever read grew it by 59 words a cycle on
   this chain. *)
let test_departed_answers_are_forgotten () =
  let a = Agg_query.make Aggregate.Sum (Value_fn.id ~rel:"R" ~pos:0) q_rs in
  let db = Aggshap_workload.Generate.chain_database ~rows:30 in
  let session = Session.open_ a db in
  let cycle k =
    let f = Fact.of_ints "R" [ 1_000 + k; 1 ] in
    Session.apply session (Update.Insert (f, Database.Endogenous));
    ignore (Session.shapley_all session);
    Session.apply session (Update.Delete f);
    ignore (Session.shapley_all session)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for k = 0 to 19 do cycle k done;
  let before = live_words () in
  for k = 20 to 79 do cycle k done;
  let grown = live_words () - before in
  if grown > 8 * 60 then
    Alcotest.failf "60 cycles grew the live heap by %d words" grown;
  check_read "values after the cycles" session a db

(* `Stale_block skips one invalidation per update. Only the Linear
   engine has anything to invalidate: under the fault a Sum session
   serves the stale game of x = 1 after R(1, 20) joins it, while a Max
   session, which re-solves on every read, stays exact. *)
let test_stale_block_reaches_only_linear () =
  assert (!Fault.current = `None);
  Fault.current := `Stale_block;
  Fun.protect
    ~finally:(fun () -> Fault.current := `None)
    (fun () ->
      let after_insert alpha =
        let a = Agg_query.make alpha (Value_fn.id ~rel:"R" ~pos:0) q_rs in
        let session = Session.open_ a db0 in
        ignore (Session.shapley_all session);
        let f = fact "R(1, 20)" in
        Session.apply session (Update.Insert (f, Database.Endogenous));
        (fst (Batch.shapley_all a (Database.add f db0)), Session.shapley_all session)
      in
      let expected, read = after_insert Aggregate.Max in
      Alcotest.check results_testable "max session exact under the fault" expected read;
      let expected, read = after_insert Aggregate.Sum in
      Alcotest.(check bool) "sum session stale under the fault" false
        (Alcotest.equal results_testable expected read))

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
  Alcotest.(check int) "one update applied" 1 stats.Session.steps

(* The Generic engine keeps no table cache: a read of a warm session,
   after an update, enters the same engine nodes as a one-shot solve of
   the updated database. A table cache hidden anywhere below the
   session would make the read enter fewer. *)
let test_generic_read_is_a_solve () =
  let a = Agg_query.make Aggregate.Max (Value_fn.id ~rel:"R" ~pos:0) q_rs in
  let session = Session.open_ a db0 in
  ignore (Session.shapley_all session);
  Session.apply session (Update.Insert (fact "R(4, 10)", Database.Endogenous));
  let counted read =
    Engine.reset_stats ();
    ignore (read ());
    let s = Engine.stats () in
    [ s.Engine.nodes; s.Engine.leaves; s.Engine.merges; s.Engine.combines ]
  in
  let solve = counted (fun () -> Batch.shapley_all a (Session.database session)) in
  let read = counted (fun () -> Session.shapley_all session) in
  Alcotest.(check bool) "the solve enters engine nodes" true (List.hd solve > 0);
  Alcotest.(check (list int)) "nodes, leaves, merges, combines" solve read

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
    [ ( "tau and updates",
        [ Alcotest.test_case "generic set_tau re-solves" `Quick test_generic_set_tau;
          Alcotest.test_case "linear set_tau keeps every game" `Quick
            test_linear_set_tau_keeps_games;
          Alcotest.test_case "answers leave and return" `Quick
            test_answers_leave_and_return;
          Alcotest.test_case "stale-block reaches only the linear engine" `Quick
            test_stale_block_reaches_only_linear;
          Alcotest.test_case "departed answers leave no game behind" `Quick
            test_departed_answers_are_forgotten;
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
            test_linear_engine_reuses;
          Alcotest.test_case "a generic read does the work of a solve" `Quick
            test_generic_read_is_a_solve ] );
      ( "scripts",
        [ Alcotest.test_case "round trip" `Quick test_script_round_trip;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_script_errors_carry_line_numbers;
        ] );
    ]
