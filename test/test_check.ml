(* The differential-testing oracle itself: the fixed-seed corpora must
   replay clean, the shrinkers must produce runnable minimal
   reproducers, and every deliberately injected fault must be caught. *)

module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Fault = Aggshap_arith.Fault
module Cq = Aggshap_cq.Cq
module Agg_query = Aggshap_agg.Agg_query
module Solver = Aggshap_core.Solver
module Lineage = Aggshap_lineage.Lineage
module Trial = Aggshap_check.Trial
module Oracle = Aggshap_check.Oracle
module Shrink = Aggshap_check.Shrink
module Fuzz = Aggshap_check.Fuzz
module Utrial = Aggshap_check.Utrial

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Arm [fault] for the duration of [f]. The oracle must then run with
   [~par_jobs:1], in the calling domain. *)
let with_fault fault f =
  assert (!Fault.current = `None);
  Fault.current := fault;
  Fun.protect ~finally:(fun () -> Fault.current := `None) f

(* The campaigns of the fault tests: master seed 42, small trials, stop
   at the first failure. *)
let config trials = { Fuzz.seed = 42; trials; max_endo = 6; par_jobs = 1; max_failures = 1 }

let corpus = lazy (Fuzz.parse_corpus (read_file "fuzz.corpus"))

let test_corpus_parses () =
  let seeds = Lazy.force corpus in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length seeds >= 100);
  Alcotest.(check bool) "seeds are distinct" true
    (List.length (List.sort_uniq Int.compare seeds) = List.length seeds)

(* Every corpus seed replays with zero oracle disagreements — the
   regression net for the six DP families and the batch engine. *)
let test_corpus_replays_clean () =
  List.iter
    (fun seed ->
      let trial, outcome = Fuzz.run_one ~seed () in
      match outcome with
      | None -> ()
      | Some failure ->
        Alcotest.failf "corpus trial failed: %s\n  %s" (Trial.to_string trial)
          (Oracle.failure_to_string failure))
    (Lazy.force corpus)

let test_trial_generation_deterministic () =
  let t1 = Trial.generate ~seed:4242 () and t2 = Trial.generate ~seed:4242 () in
  Alcotest.(check string) "same query" (Cq.to_string t1.Trial.query)
    (Cq.to_string t2.Trial.query);
  Alcotest.(check bool) "same database" true (Database.equal t1.Trial.db t2.Trial.db);
  Alcotest.(check string) "same script" (Trial.to_script t1) (Trial.to_script t2)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_reproducer_script_shape () =
  let t = Trial.generate ~seed:7 () in
  let script = Trial.to_script t in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "script mentions %S" needle)
        true (contains script needle))
    [ "shapctl solve"; "repro.facts"; "-a "; "-t " ]

(* ------------------------------------------------------------------ *)
(* knowledge-compilation tier                                          *)
(* ------------------------------------------------------------------ *)

let lineage_corpus = lazy (Fuzz.parse_corpus (read_file "lineage.corpus"))

let test_lineage_corpus_parses () =
  let seeds = Lazy.force lineage_corpus in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length seeds >= 100);
  Alcotest.(check bool) "seeds are distinct" true
    (List.length (List.sort_uniq Int.compare seeds) = List.length seeds)

(* Every corpus trial is non-hierarchical with an aggregate the lineage
   tier supports, so each replay cross-validates lineage extraction,
   the Shannon d-DNNF compiler, and the WMC-to-Shapley pipeline against
   naive enumeration to the last bit. *)
let test_lineage_corpus_replays_clean () =
  List.iter
    (fun seed ->
      let trial, outcome = Fuzz.run_one ~seed () in
      let a = Trial.agg_query trial in
      Alcotest.(check bool) "trial is outside the frontier" false
        (Solver.within_frontier a.Agg_query.alpha a.Agg_query.query);
      Alcotest.(check bool) "aggregate is supported" true
        (Lineage.supports a.Agg_query.alpha);
      match outcome with
      | None -> ()
      | Some failure ->
        Alcotest.failf "lineage corpus trial failed: %s\n  %s" (Trial.to_string trial)
          (Oracle.failure_to_string failure))
    (Lazy.force lineage_corpus)

(* kc-vs-naive runs inside the frontier too, where the solver would
   pick the polynomial DP and the oracle drives the lineage pipeline
   directly: with the compile cache poisoned (`Ddnnf_cache_poison
   stores and serves a decision node with its children swapped), the
   default oracle must fail some hierarchical trial whose aggregate the
   lineage tier supports, and fail it under kc-vs-naive. *)
let test_kc_checked_inside_frontier () =
  with_fault `Ddnnf_cache_poison (fun () ->
      let rec hunt i =
        if i >= 200 then
          Alcotest.fail "no in-frontier kc-vs-naive disagreement in 200 trials"
        else begin
          let trial = Trial.generate ~seed:(Fuzz.trial_seed ~master:42 i) () in
          let a = Trial.agg_query trial in
          let caught () =
            match Oracle.run ~par_jobs:1 trial with
            | Some { Oracle.check = "kc-vs-naive"; _ } -> true
            | _ -> false
          in
          if
            not
              (Solver.within_frontier a.Agg_query.alpha a.Agg_query.query
              && Lineage.supports a.Agg_query.alpha
              && caught ())
          then hunt (i + 1)
        end
      in
      hunt 0)

(* ------------------------------------------------------------------ *)
(* update sequences                                                    *)
(* ------------------------------------------------------------------ *)

let ucorpus = lazy (Fuzz.parse_corpus (read_file "updates.corpus"))

let test_ucorpus_parses () =
  let seeds = Lazy.force ucorpus in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length seeds >= 100);
  Alcotest.(check bool) "seeds are distinct" true
    (List.length (List.sort_uniq Int.compare seeds) = List.length seeds)

(* Every corpus seed replays its update script through a live session
   with the values bit-identical to a from-scratch batch at every step —
   the regression net for the incremental engine. *)
let test_ucorpus_replays_clean () =
  List.iter
    (fun seed ->
      let utrial, outcome = Fuzz.run_updates_one ~seed () in
      match outcome with
      | None -> ()
      | Some failure ->
        Alcotest.failf "update corpus trial failed: %s\n  %s" (Utrial.to_string utrial)
          (Oracle.failure_to_string failure))
    (Lazy.force ucorpus)

let test_utrial_generation_deterministic () =
  let t1 = Utrial.generate ~seed:4242 () and t2 = Utrial.generate ~seed:4242 () in
  Alcotest.(check string) "same trial and ops" (Utrial.to_string t1) (Utrial.to_string t2);
  Alcotest.(check bool) "generated trials are wellformed" true (Utrial.wellformed t1);
  Alcotest.(check string) "same script" (Utrial.to_script t1) (Utrial.to_script t2)

(* ------------------------------------------------------------------ *)
(* fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* A fuzz campaign as the fault tests see it: how to run it, re-check a
   trial, measure it (no size may grow under shrinking), print it, and
   list its single removals, each of which must make a shrunk failure
   disappear. *)
type 't campaign = {
  run : Fuzz.config -> 't Fuzz.report;
  check : 't -> Oracle.failure option;
  sizes : 't -> int list;
  script : 't -> string;
  removals : 't -> (string * 't) list;
}

let batch =
  { run = Fuzz.run;
    check = Oracle.run ~par_jobs:1;
    sizes = (fun t -> [ Database.size t.Trial.db; List.length t.Trial.query.Cq.body ]);
    script = Trial.to_script;
    removals =
      (fun t ->
        List.map
          (fun fact ->
            ("removing " ^ Fact.to_string fact, { t with Trial.db = Database.remove fact t.Trial.db }))
          (Database.facts t.Trial.db)) }

(* Only removals that keep the script wellformed count: a delete aimed
   at a fact the removal dropped would fail for the wrong reason. *)
let updates =
  { run = Fuzz.run_updates;
    check = Oracle.run_updates;
    sizes =
      (fun u -> [ List.length u.Utrial.ops; Database.size u.Utrial.trial.Trial.db ]);
    script = Utrial.to_script;
    removals =
      (fun u ->
        List.filter_map
          (fun j ->
            let ops = List.filteri (fun k _ -> k <> j) u.Utrial.ops in
            let smaller = { u with Utrial.ops } in
            if Utrial.wellformed smaller then Some (Printf.sprintf "dropping op %d" j, smaller)
            else None)
          (List.init (List.length u.Utrial.ops) Fun.id)) }

(* The shrunk reproducer still fails, is no bigger than the original,
   prints as a script, and is 1-minimal: every single removal makes the
   failure disappear, or the shrinker would have taken it. *)
let check_shrunk c ~trial ~shrunk =
  Alcotest.(check bool) "shrunk still fails" true (c.check shrunk <> None);
  Alcotest.(check bool) "shrunk is no bigger" true
    (List.for_all2 ( <= ) (c.sizes shrunk) (c.sizes trial));
  Alcotest.(check bool) "reproducer script is printable" true
    (String.length (c.script shrunk) > 0);
  List.iter
    (fun (what, smaller) ->
      Alcotest.(check bool) (what ^ " un-fails") true (c.check smaller = None))
    (c.removals shrunk)

(* Every armed fault must be caught by the campaign's default oracle
   within [trials] trials, under the check named by [by] when given, and
   shrink to a 1-minimal reproducer. The kernel faults — a mis-paired
   sibling in the balanced convolution tree, a Karatsuba split that
   loses a cross term once both operands are large enough, an
   off-by-one convolution — are caught by the update campaign too,
   because its reference is naive enumeration and not a batch solve
   running the same faulty kernels. `Stale_index (a forgotten index
   invalidation) shows only through probes of a database updated after
   a probe built an index, which the update campaign's sessions do on
   every step. The two compiler faults reach only the
   knowledge-compilation tier: `Ddnnf_cache_poison swaps a cached
   decision's children, and `Kc_budget_leak truncates expansion to
   False past a small node count instead of aborting. *)
let test_fault_is_caught ?by c fault trials () =
  with_fault fault (fun () ->
      match (c.run (config trials)).Fuzz.failures with
      | [] -> Alcotest.failf "injected fault survived %d trials undetected" trials
      | { Fuzz.trial; shrunk; shrunk_failure; _ } :: _ ->
        Option.iter
          (fun by -> Alcotest.(check string) "caught by" by shrunk_failure.Oracle.check)
          by;
        check_shrunk c ~trial ~shrunk)

(* `Stale_block makes the session skip one cache invalidation per
   update: the Linear engine (Sum/Count) leaves one membership game
   clean that an insert or delete touched, so the session serves its
   stale contributions (a "session-vs-naive" disagreement). It is the
   only engine with a cache to invalidate: a Generic read re-solves
   from scratch.

   The campaign over seed 42 catches it (the "stale-block caught and
   shrunk" case below); the directed hunt asserts the disagreement is
   value-level and shrinks to a 1-minimal op script. *)
let test_stale_block_value_level () =
  with_fault `Stale_block (fun () ->
      let rec hunt i =
        if i >= 200 then
          Alcotest.fail "no value-level stale disagreement in 200 update trials"
        else
          match Fuzz.run_updates_one ~seed:(Fuzz.trial_seed ~master:42 i) () with
          | ut, Some f when f.Oracle.check <> "exception" -> (ut, f)
          | _ -> hunt (i + 1)
      in
      let ut, f = hunt 0 in
      let shrunk, shrunk_failure = Shrink.minimize_updates Oracle.run_updates ut f in
      Alcotest.(check bool) "shrunk failure is a value disagreement" true
        (shrunk_failure.Oracle.check <> "exception");
      check_shrunk updates ~trial:ut ~shrunk)

(* With the faults cleared again, the very trials that exposed them
   pass: the flags really were the only source of the disagreements. *)
let test_fault_flag_is_isolated c () =
  Alcotest.(check int) "clean without the fault" 0
    (List.length (c.run (config 20)).Fuzz.failures)

let () =
  Alcotest.run "check"
    [ ( "corpus",
        [ Alcotest.test_case "parses" `Quick test_corpus_parses;
          Alcotest.test_case "replays clean" `Slow test_corpus_replays_clean;
        ] );
      ( "trials",
        [ Alcotest.test_case "generation deterministic" `Quick
            test_trial_generation_deterministic;
          Alcotest.test_case "reproducer script shape" `Quick
            test_reproducer_script_shape;
        ] );
      ( "knowledge compilation",
        [ Alcotest.test_case "lineage corpus parses" `Quick test_lineage_corpus_parses;
          Alcotest.test_case "lineage corpus replays clean" `Slow
            test_lineage_corpus_replays_clean;
          Alcotest.test_case "ddnnf cache-poison caught and shrunk" `Slow
            (test_fault_is_caught ~by:"kc-vs-naive" batch `Ddnnf_cache_poison 300);
          Alcotest.test_case "kc budget-leak caught and shrunk" `Slow
            (test_fault_is_caught ~by:"kc-vs-naive" batch `Kc_budget_leak 300);
          Alcotest.test_case "kc checked inside the frontier" `Slow
            test_kc_checked_inside_frontier;
          Alcotest.test_case "ddnnf fault flag isolated" `Quick
            (test_fault_flag_is_isolated batch);
        ] );
      ( "update sequences",
        [ Alcotest.test_case "corpus parses" `Quick test_ucorpus_parses;
          Alcotest.test_case "corpus replays clean" `Slow test_ucorpus_replays_clean;
          Alcotest.test_case "generation deterministic" `Quick
            test_utrial_generation_deterministic;
          Alcotest.test_case "stale-block caught and shrunk" `Slow
            (test_fault_is_caught updates `Stale_block 100);
          Alcotest.test_case "stale-block value-level disagreement" `Slow
            test_stale_block_value_level;
          Alcotest.test_case "stale-block flag isolated" `Quick
            (test_fault_flag_is_isolated updates);
          Alcotest.test_case "stale-index caught and shrunk" `Slow
            (test_fault_is_caught updates `Stale_index 300);
          Alcotest.test_case "off-by-one caught and shrunk" `Slow
            (test_fault_is_caught updates `Convolve_off_by_one 300);
          Alcotest.test_case "tree-fold skew caught and shrunk" `Slow
            (test_fault_is_caught updates `Tree_fold_skew 300);
          Alcotest.test_case "karatsuba split caught and shrunk" `Slow
            (test_fault_is_caught updates `Karatsuba_split 300);
        ] );
      ( "fault injection",
        [ Alcotest.test_case "off-by-one caught and shrunk" `Slow
            (test_fault_is_caught batch `Convolve_off_by_one 100);
          Alcotest.test_case "tree-fold skew caught and shrunk" `Slow
            (test_fault_is_caught batch `Tree_fold_skew 300);
          Alcotest.test_case "karatsuba split caught and shrunk" `Slow
            (test_fault_is_caught batch `Karatsuba_split 300);
          Alcotest.test_case "engine block-drop caught and shrunk" `Slow
            (test_fault_is_caught batch `Block_drop 300);
          Alcotest.test_case "storage stale-index caught and shrunk" `Slow
            (test_fault_is_caught batch `Stale_index 300);
          Alcotest.test_case "fault flag isolated" `Quick (test_fault_flag_is_isolated batch);
        ] );
    ]
