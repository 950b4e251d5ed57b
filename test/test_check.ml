(* The differential-testing oracle itself: the fixed-seed corpus must
   replay clean, the shrinker must produce runnable minimal reproducers,
   and a deliberately injected DP fault must be caught. *)

module Q = Aggshap_arith.Rational
module Database = Aggshap_relational.Database
module Fault = Aggshap_arith.Fault
module Cq = Aggshap_cq.Cq
module Check = Aggshap_check
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

(* A deliberately injected off-by-one in the DP combine step must be
   caught by the oracle and shrunk to a still-failing 1-minimal
   reproducer. par_jobs:1 keeps everything in this domain while the
   fault flag is set. *)
let test_injected_fault_is_caught () =
  assert (!Fault.current = `None);
  Fault.current := `Convolve_off_by_one;
  Fun.protect
    ~finally:(fun () -> Fault.current := `None)
    (fun () ->
      let config =
        { Fuzz.seed = 42; trials = 100; max_endo = 6; par_jobs = 1; max_failures = 1; kc_always = false;
          auto_always = false }
      in
      let report = Fuzz.run config in
      match report.Fuzz.failures with
      | [] -> Alcotest.fail "injected off-by-one survived 100 trials undetected"
      | { Fuzz.trial; shrunk; shrunk_failure; _ } :: _ ->
        (* The shrunk reproducer still fails, is no bigger than the
           original, and prints as a runnable script. *)
        Alcotest.(check bool) "shrunk still fails" true
          (Oracle.run ~par_jobs:1 shrunk <> None);
        Alcotest.(check bool) "shrunk is no bigger" true
          (Database.size shrunk.Trial.db <= Database.size trial.Trial.db
          && List.length shrunk.Trial.query.Cq.body
             <= List.length trial.Trial.query.Cq.body);
        Alcotest.(check bool) "reproducer script is printable" true
          (String.length (Trial.to_script shrunk) > 0);
        (* 1-minimality: removing any remaining fact makes the failure
           disappear or the shrinker would have removed it. *)
        List.iter
          (fun fact ->
            let smaller =
              { shrunk with Trial.db = Database.remove fact shrunk.Trial.db }
            in
            Alcotest.(check bool)
              ("removing " ^ Aggshap_relational.Fact.to_string fact ^ " un-fails")
              true
              (Oracle.run ~par_jobs:1 smaller = None))
          (Database.facts shrunk.Trial.db);
        ignore shrunk_failure)

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
  let module Solver = Aggshap_core.Solver in
  let module Lineage = Aggshap_lineage.Lineage in
  let module Agg_query = Aggshap_agg.Agg_query in
  List.iter
    (fun seed ->
      let trial, outcome = Fuzz.run_one ~kc_always:true ~seed () in
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

(* `Ddnnf_cache_poison makes the Shannon compiler's formula-keyed cache
   store (and serve) a decision node with its children swapped. The
   kc-vs-naive differential check must catch it and shrink to a
   1-minimal reproducer; kc_always drives the lineage pipeline on every
   supported trial, inside the frontier included. *)
let test_ddnnf_cache_poison_is_caught () =
  assert (!Fault.current = `None);
  Fault.current := `Ddnnf_cache_poison;
  Fun.protect
    ~finally:(fun () -> Fault.current := `None)
    (fun () ->
      let config =
        { Fuzz.seed = 42; trials = 300; max_endo = 6; par_jobs = 1; max_failures = 1;
          kc_always = true; auto_always = false }
      in
      let report = Fuzz.run config in
      match report.Fuzz.failures with
      | [] -> Alcotest.fail "injected cache poison survived 300 trials undetected"
      | { Fuzz.trial; shrunk; shrunk_failure; _ } :: _ ->
        Alcotest.(check string) "caught by the kc differential check" "kc-vs-naive"
          shrunk_failure.Oracle.check;
        Alcotest.(check bool) "shrunk still fails" true
          (Oracle.run ~par_jobs:1 ~kc_always:true shrunk <> None);
        Alcotest.(check bool) "shrunk is no bigger" true
          (Database.size shrunk.Trial.db <= Database.size trial.Trial.db);
        Alcotest.(check bool) "reproducer script is printable" true
          (String.length (Trial.to_script shrunk) > 0);
        (* 1-minimality: removing any remaining fact makes the failure
           disappear, or the shrinker would have removed it. *)
        List.iter
          (fun fact ->
            let smaller =
              { shrunk with Trial.db = Database.remove fact shrunk.Trial.db }
            in
            Alcotest.(check bool)
              ("removing " ^ Aggshap_relational.Fact.to_string fact ^ " un-fails")
              true
              (Oracle.run ~par_jobs:1 ~kc_always:true smaller = None))
          (Database.facts shrunk.Trial.db))

(* `Kc_budget_leak breaks the node-budget abort path: instead of
   raising Budget_exceeded past the cap, the compiler silently truncates
   further expansion to False — under-counted models, wrong Shapley
   values. The kc-vs-naive differential check must catch it and shrink
   to a 1-minimal reproducer. *)
let test_kc_budget_leak_is_caught () =
  assert (!Fault.current = `None);
  Fault.current := `Kc_budget_leak;
  Fun.protect
    ~finally:(fun () -> Fault.current := `None)
    (fun () ->
      let config =
        { Fuzz.seed = 42; trials = 300; max_endo = 6; par_jobs = 1; max_failures = 1;
          kc_always = true; auto_always = false }
      in
      let report = Fuzz.run config in
      match report.Fuzz.failures with
      | [] -> Alcotest.fail "injected budget leak survived 300 trials undetected"
      | { Fuzz.trial; shrunk; shrunk_failure; _ } :: _ ->
        Alcotest.(check string) "caught by the kc differential check" "kc-vs-naive"
          shrunk_failure.Oracle.check;
        Alcotest.(check bool) "shrunk still fails" true
          (Oracle.run ~par_jobs:1 ~kc_always:true shrunk <> None);
        Alcotest.(check bool) "shrunk is no bigger" true
          (Database.size shrunk.Trial.db <= Database.size trial.Trial.db);
        List.iter
          (fun fact ->
            let smaller =
              { shrunk with Trial.db = Database.remove fact shrunk.Trial.db }
            in
            Alcotest.(check bool)
              ("removing " ^ Aggshap_relational.Fact.to_string fact ^ " un-fails")
              true
              (Oracle.run ~par_jobs:1 ~kc_always:true smaller = None))
          (Database.facts shrunk.Trial.db))

(* With the fault cleared, the same campaign is clean: the flag was the
   only source of the kc-vs-naive disagreements. *)
let test_ddnnf_fault_flag_is_isolated () =
  let config =
    { Fuzz.seed = 42; trials = 20; max_endo = 6; par_jobs = 1; max_failures = 1;
      kc_always = true; auto_always = false }
  in
  let report = Fuzz.run config in
  Alcotest.(check int) "clean without the fault" 0 (List.length report.Fuzz.failures)

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
  assert (!Fault.current = `None);
  Fault.current := `Stale_block;
  Fun.protect
    ~finally:(fun () -> Fault.current := `None)
    (fun () ->
      let found = ref None in
      let i = ref 0 in
      while !found = None && !i < 200 do
        let seed = Fuzz.trial_seed ~master:42 !i in
        let ut, outcome = Fuzz.run_updates_one ~seed () in
        (match outcome with
         | Some f when f.Oracle.check <> "exception" -> found := Some (ut, f)
         | _ -> ());
        incr i
      done;
      match !found with
      | None -> Alcotest.fail "no value-level stale disagreement in 200 update trials"
      | Some (ut, f) ->
        let shrunk, shrunk_failure = Shrink.minimize_updates Oracle.run_updates ut f in
        Alcotest.(check bool) "shrunk failure is a value disagreement" true
          (shrunk_failure.Oracle.check <> "exception");
        (* 1-minimality over the op script: dropping any remaining op
           (that keeps the trial wellformed) makes the failure vanish. *)
        List.iteri
          (fun j _ ->
            let ops = List.filteri (fun k _ -> k <> j) shrunk.Utrial.ops in
            let smaller = { shrunk with Utrial.ops } in
            if Utrial.wellformed smaller then
              Alcotest.(check bool)
                (Printf.sprintf "dropping op %d un-fails" j)
                true
                (Oracle.run_updates smaller = None))
          shrunk.Utrial.ops)

let test_stale_block_flag_is_isolated () =
  let config =
    { Fuzz.seed = 42; trials = 20; max_endo = 6; par_jobs = 1; max_failures = 1; kc_always = false;
          auto_always = false }
  in
  let report = Fuzz.run_updates config in
  Alcotest.(check int) "clean without the fault" 0 (List.length report.Fuzz.ufailures)

(* A fuzz campaign as the fault tests see it: run it and, for its first
   failure, report whether the shrunk trial still fails, whether it is
   no bigger than the original, and its reproducer script. *)
type caught = {
  still_fails : bool;
  no_bigger : bool;
  script : string;
}

let batch_campaign config =
  match (Fuzz.run config).Fuzz.failures with
  | [] -> None
  | { Fuzz.trial; shrunk; _ } :: _ ->
    Some
      { still_fails = Oracle.run ~par_jobs:1 shrunk <> None;
        no_bigger = Database.size shrunk.Trial.db <= Database.size trial.Trial.db;
        script = Trial.to_script shrunk }

let update_campaign config =
  match (Fuzz.run_updates config).Fuzz.ufailures with
  | [] -> None
  | { Fuzz.utrial; ushrunk; _ } :: _ ->
    Some
      { still_fails = Oracle.run_updates ushrunk <> None;
        no_bigger =
          List.length ushrunk.Utrial.ops <= List.length utrial.Utrial.ops
          && Database.size ushrunk.Utrial.trial.Trial.db
             <= Database.size utrial.Utrial.trial.Trial.db;
        script = Utrial.to_script ushrunk }

(* Every armed fault must be caught by the campaign's oracle within
   [trials] trials and shrink to a still-failing reproducer. The kernel
   faults — a mis-paired sibling in the balanced convolution tree, a
   Karatsuba split that loses a cross term once both operands are large
   enough, an off-by-one convolution — are caught by the update
   campaign too, because its reference is naive enumeration and not a
   batch solve running the same faulty kernels. `Stale_index (a
   forgotten index invalidation) shows only through probes of a
   database updated after a probe built an index, which the update
   campaign's sessions do on every step. *)
let test_kernel_fault_is_caught campaign fault trials () =
  assert (!Fault.current = `None);
  Fault.current := fault;
  Fun.protect
    ~finally:(fun () -> Fault.current := `None)
    (fun () ->
      let config =
        { Fuzz.seed = 42; trials; max_endo = 6; par_jobs = 1; max_failures = 1; kc_always = false;
          auto_always = false }
      in
      match campaign config with
      | None -> Alcotest.failf "injected fault survived %d trials undetected" trials
      | Some { still_fails; no_bigger; script } ->
        Alcotest.(check bool) "shrunk still fails" true still_fails;
        Alcotest.(check bool) "shrunk is no bigger" true no_bigger;
        Alcotest.(check bool) "reproducer script is printable" true
          (String.length script > 0))

(* With the fault cleared again, the very trials that exposed it pass:
   the flag really was the only source of the disagreements. *)
let test_fault_flag_is_isolated () =
  let config =
    { Fuzz.seed = 42; trials = 20; max_endo = 6; par_jobs = 1; max_failures = 1; kc_always = false;
          auto_always = false }
  in
  let report = Fuzz.run config in
  Alcotest.(check int) "clean without the fault" 0 (List.length report.Fuzz.failures)

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
            test_ddnnf_cache_poison_is_caught;
          Alcotest.test_case "kc budget-leak caught and shrunk" `Slow
            test_kc_budget_leak_is_caught;
          Alcotest.test_case "ddnnf fault flag isolated" `Quick
            test_ddnnf_fault_flag_is_isolated;
        ] );
      ( "update sequences",
        [ Alcotest.test_case "corpus parses" `Quick test_ucorpus_parses;
          Alcotest.test_case "corpus replays clean" `Slow test_ucorpus_replays_clean;
          Alcotest.test_case "generation deterministic" `Quick
            test_utrial_generation_deterministic;
          Alcotest.test_case "stale-block caught and shrunk" `Slow
            (test_kernel_fault_is_caught update_campaign `Stale_block 100);
          Alcotest.test_case "stale-block value-level disagreement" `Slow
            test_stale_block_value_level;
          Alcotest.test_case "stale-block flag isolated" `Quick
            test_stale_block_flag_is_isolated;
          Alcotest.test_case "stale-index caught and shrunk" `Slow
            (test_kernel_fault_is_caught update_campaign `Stale_index 300);
          Alcotest.test_case "off-by-one caught and shrunk" `Slow
            (test_kernel_fault_is_caught update_campaign `Convolve_off_by_one 300);
          Alcotest.test_case "tree-fold skew caught and shrunk" `Slow
            (test_kernel_fault_is_caught update_campaign `Tree_fold_skew 300);
          Alcotest.test_case "karatsuba split caught and shrunk" `Slow
            (test_kernel_fault_is_caught update_campaign `Karatsuba_split 300);
        ] );
      ( "fault injection",
        [ Alcotest.test_case "off-by-one caught and shrunk" `Slow
            test_injected_fault_is_caught;
          Alcotest.test_case "tree-fold skew caught and shrunk" `Slow
            (test_kernel_fault_is_caught batch_campaign `Tree_fold_skew 300);
          Alcotest.test_case "karatsuba split caught and shrunk" `Slow
            (test_kernel_fault_is_caught batch_campaign `Karatsuba_split 300);
          Alcotest.test_case "engine block-drop caught and shrunk" `Slow
            (test_kernel_fault_is_caught batch_campaign `Block_drop 300);
          Alcotest.test_case "storage stale-index caught and shrunk" `Slow
            (test_kernel_fault_is_caught batch_campaign `Stale_index 300);
          Alcotest.test_case "fault flag isolated" `Quick test_fault_flag_is_isolated;
        ] );
    ]
