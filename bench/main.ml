(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md.

   The paper is a theory paper with no measured tables, so each
   experiment here validates a theorem's observable footprint — the
   polynomial/exponential runtime split at each tractability frontier,
   the agreement of closed forms and reductions with brute force — and
   prints one table per experiment (E1..E21; E16 and E18 are retired,
   and E17 lives in bench/loadgen.exe). A final section runs one
   Bechamel micro-benchmark per experiment.

   Usage: bench/main.exe [--quick] [--only e14,e19] [--json FILE]
   (--quick shrinks the sweeps; --only restricts to the named
   experiments, for calibration loops) *)

module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Parser = Aggshap_cq.Parser
module Hierarchy = Aggshap_cq.Hierarchy
module Plan = Aggshap_cq.Plan
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Core = Aggshap_core
module Catalog = Aggshap_workload.Catalog
module Generate = Aggshap_workload.Generate
module Setcover = Aggshap_reductions.Setcover
module Avg_red = Aggshap_reductions.Avg_reduction
module Qnt_red = Aggshap_reductions.Quantile_reduction
module Perm_red = Aggshap_reductions.Permanent_reduction

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* Single experiments can run for minutes; flush after every [printf] so
   progress is visible when stdout is redirected (CI logs, nohup). *)
module Printf = struct
  include Printf

  let printf fmt = kfprintf (fun oc -> flush oc) Stdlib.stdout fmt
end

(* [--json FILE]: also write the E14 kernel-instrumented baseline as a
   BENCH_v1 report (see {!Bench_json}) for CI and regression tracking. *)
let json_path =
  let rec find = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* [--only e14,e19]: restrict the run to the named experiments. *)
let only =
  let rec find = function
    | "--only" :: names :: _ -> Some (String.split_on_char ',' names)
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let want name = match only with None -> true | Some names -> List.mem name names

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

let pp_time = function
  | None -> "-"
  | Some t -> Printf.sprintf "%.4fs" t

(* Every cross-check of the harness goes through [verdict]: it returns
   the table cell, "ok" or "MISMATCH", and remembers a failed check, so
   the run exits non-zero once every table has printed. *)
let failed_checks = ref []

let verdict what ok =
  if ok then "ok"
  else begin
    failed_checks := what :: !failed_checks;
    "MISMATCH"
  end

(* ------------------------------------------------------------------ *)
(* Database families (scaling workloads)                               *)
(* ------------------------------------------------------------------ *)

(* q_xyy / q_xyy_full family: R(i, i mod g), S(j); all endogenous. *)
let xyy_db rows = Generate.chain_database ~rows

(* q1 family: R(i, i mod g), S(i); all endogenous. *)
let q1_db rows =
  let groups = max 1 (int_of_float (sqrt (float_of_int rows))) in
  let db = ref Database.empty in
  for i = 0 to rows - 1 do
    db := Database.add (Fact.of_ints "R" [ i; i mod groups ]) !db;
    db := Database.add (Fact.of_ints "S" [ i ]) !db
  done;
  !db

(* q_exists family: R(i), S(i, i mod g), T(i mod g). *)
let exists_db rows =
  let groups = max 1 (int_of_float (sqrt (float_of_int rows))) in
  let db = ref Database.empty in
  for i = 0 to rows - 1 do
    db := Database.add (Fact.of_ints "R" [ i ]) !db;
    db := Database.add (Fact.of_ints "S" [ i; i mod groups ]) !db
  done;
  for j = 0 to groups - 1 do
    db := Database.add (Fact.of_ints "T" [ j ]) !db
  done;
  !db

(* q_xyyz family: R(i, i mod g), S(j), T(±i). *)
let xyyz_db rows =
  let groups = max 1 (int_of_float (sqrt (float_of_int rows))) in
  let db = ref Database.empty in
  for i = 0 to rows - 1 do
    db := Database.add (Fact.of_ints "R" [ i; i mod groups ]) !db;
    db := Database.add (Fact.of_ints "T" [ (if i mod 2 = 0 then i else -i) ]) !db
  done;
  for j = 0 to groups - 1 do
    db := Database.add (Fact.of_ints "S" [ j ]) !db
  done;
  !db

(* Single-relation family: R(i, v) with repeating values. *)
let single_db rows =
  let db = ref Database.empty in
  for i = 0 to rows - 1 do
    db := Database.add (Fact.of_ints "R" [ i; i mod 7 ]) !db
  done;
  !db

let first_endo db = List.hd (Database.endogenous db)

let vid rel pos = Value_fn.id ~rel ~pos

let vmod rel pos =
  Value_fn.custom ~rel ~descr:"mod2" (fun args ->
      match Aggshap_relational.Value.as_int args.(pos) with
      | Some n -> Q.of_int (((n mod 2) + 2) mod 2)
      | None -> Q.zero)

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 classification                                         *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1 (Figure 1): classification and tractability matrix";
  Printf.printf "%-36s %-22s" "query" "class";
  List.iter
    (fun alpha ->
      let s = Aggregate.to_string alpha in
      Printf.printf " %-6s" (if String.length s > 6 then String.sub s 0 6 else s))
    Aggregate.all;
  print_newline ();
  List.iter
    (fun (name, q, expected) ->
      let cls = Hierarchy.classify q in
      assert (cls = expected);
      Printf.printf "%-36s %-22s" name (Hierarchy.cls_to_string cls);
      List.iter
        (fun alpha ->
          Printf.printf " %-6s"
            (if Core.Solver.within_frontier alpha q then "poly" else "#P"))
        Aggregate.all;
      print_newline ())
    Catalog.figure1

(* ------------------------------------------------------------------ *)
(* Generic scaling experiment: DP vs naive over a size sweep           *)
(* ------------------------------------------------------------------ *)

let scaling_table ~title ~sizes ~naive_cap ~make_db ~make_agg ~dp_shapley =
  header title;
  Printf.printf "%8s %8s %12s %12s %10s\n" "rows" "players" "dp time" "naive time" "agree";
  List.iter
    (fun rows ->
      let db = make_db rows in
      let a = make_agg () in
      let f = first_endo db in
      let dp_value, dp_time = time (fun () -> dp_shapley a db f) in
      let naive =
        if rows <= naive_cap then begin
          let v, t = time (fun () -> Core.Naive.shapley a db f) in
          Some (v, t)
        end
        else None
      in
      let agree =
        match naive with
        | Some (v, _) ->
          verdict (Printf.sprintf "%s, rows %d: DP vs naive" title rows) (Q.equal v dp_value)
        | None -> "-"
      in
      Printf.printf "%8d %8d %12s %12s %10s\n" rows (Database.endo_size db)
        (pp_time (Some dp_time))
        (pp_time (Option.map snd naive))
        agree)
    sizes

(* E2: Theorem 4.1 — Max and CDist on the all-hierarchical q_xyy. *)
let e2 () =
  let sizes = if quick then [ 8; 12; 40 ] else [ 8; 10; 12; 14; 40; 100; 200 ] in
  scaling_table
    ~title:"E2 (Theorem 4.1): Max on all-hierarchical Qxyy(x) <- R(x,y), S(y)"
    ~sizes ~naive_cap:14 ~make_db:xyy_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy)
    ~dp_shapley:Core.Minmax.shapley;
  let sizes = if quick then [ 8; 12; 40 ] else [ 8; 10; 12; 14; 40; 100 ] in
  scaling_table
    ~title:"E2b (Theorem 4.1): CDist on all-hierarchical Qxyy(x) <- R(x,y), S(y)"
    ~sizes ~naive_cap:14 ~make_db:xyy_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Count_distinct (vmod "R" 0) Catalog.q_xyy)
    ~dp_shapley:Core.Cdist.shapley

(* E3: Theorem 5.1 — Avg and Median on the q-hierarchical q_xyy_full. *)
let e3 () =
  let sizes = if quick then [ 8; 12; 16 ] else [ 8; 10; 12; 14; 16; 24; 32 ] in
  scaling_table
    ~title:"E3 (Theorem 5.1): Avg on q-hierarchical Qfull(x,y) <- R(x,y), S(y)"
    ~sizes ~naive_cap:14 ~make_db:xyy_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy_full)
    ~dp_shapley:Core.Avg_quantile.shapley;
  scaling_table
    ~title:"E3b (Theorem 5.1): Median on q-hierarchical Qfull(x,y) <- R(x,y), S(y)"
    ~sizes ~naive_cap:14 ~make_db:xyy_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Median (vid "R" 0) Catalog.q_xyy_full)
    ~dp_shapley:Core.Avg_quantile.shapley

(* E4: Theorem 6.1 — Dup on the sq-hierarchical q1. *)
let e4 () =
  let sizes = if quick then [ 6; 10; 40 ] else [ 6; 8; 10; 40; 100; 160 ] in
  scaling_table
    ~title:"E4 (Theorem 6.1): Has-duplicates on sq-hierarchical Q1(x) <- R(x,y), S(x)"
    ~sizes ~naive_cap:10 ~make_db:q1_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Has_duplicates (vmod "R" 0) Catalog.q1_sq)
    ~dp_shapley:Core.Dup.shapley

(* E5: the hardness wall — Avg beyond the frontier is exponential. *)
let e5 () =
  header "E5 (Theorems 3.3/5.1): the frontier wall for Avg";
  Printf.printf
    "Same data, same aggregate; only the query's class differs.\n";
  Printf.printf "%8s %18s %18s\n" "rows" "Qxyy (naive)" "Qfull (poly DP)";
  let sizes = if quick then [ 8; 12; 14 ] else [ 8; 10; 12; 14; 16 ] in
  List.iter
    (fun rows ->
      let db = xyy_db rows in
      let hard = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
      let easy = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy_full in
      let f = first_endo db in
      let _, t_hard = time (fun () -> Core.Naive.shapley hard db f) in
      let _, t_easy = time (fun () -> Core.Avg_quantile.shapley easy db f) in
      Printf.printf "%8d %18s %18s\n" rows (pp_time (Some t_hard)) (pp_time (Some t_easy)))
    sizes

(* E6: closed formulas vs generic DPs (Props 4.2, 4.4, 5.2). *)
let e6 () =
  header "E6 (Props 4.2/4.4/5.2): closed formulas vs generic DPs, single atom";
  Printf.printf "%8s %12s %12s %12s %12s %8s\n" "rows" "max closed" "max DP" "avg closed"
    "avg DP" "agree";
  let q = Parser.parse_query_exn "Q(u, v) <- R(u, v)" in
  let sizes = if quick then [ 10; 40 ] else [ 10; 20; 40; 60 ] in
  List.iter
    (fun rows ->
      let db = single_db rows in
      let f = first_endo db in
      let a_max = Agg_query.make Aggregate.Max (vid "R" 1) q in
      let a_avg = Agg_query.make Aggregate.Avg (vid "R" 1) q in
      let v1, t1 = time (fun () -> Core.Closed_form.max_single_atom a_max db f) in
      let v2, t2 = time (fun () -> Core.Minmax.shapley a_max db f) in
      let v3, t3 = time (fun () -> Core.Closed_form.avg_single_atom a_avg db f) in
      let v4, t4 = time (fun () -> Core.Avg_quantile.shapley a_avg db f) in
      let agree =
        verdict (Printf.sprintf "E6, rows %d: closed forms vs DPs" rows)
          (Q.equal v1 v2 && Q.equal v3 v4)
      in
      Printf.printf "%8d %12s %12s %12s %12s %8s\n" rows (pp_time (Some t1))
        (pp_time (Some t2)) (pp_time (Some t3)) (pp_time (Some t4)) agree)
    sizes

(* E7: Monte-Carlo approximation error against exact ground truth. *)
let e7 () =
  header "E7 (Section 8): Monte-Carlo error vs samples (Avg on Qfull)";
  let db = xyy_db 14 in
  let a = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy_full in
  let f = first_endo db in
  let exact = Q.to_float (Core.Avg_quantile.shapley a db f) in
  Printf.printf "exact Shapley = %.6f\n" exact;
  Printf.printf "%10s %12s %12s %12s\n" "samples" "estimate" "std err" "abs error";
  let sweeps = if quick then [ 100; 1000 ] else [ 100; 400; 1600; 6400; 25600 ] in
  List.iter
    (fun samples ->
      let est = Core.Monte_carlo.shapley ~seed:11 ~samples a db f in
      Printf.printf "%10d %12.6f %12.6f %12.6f\n" samples est.Core.Monte_carlo.mean
        est.Core.Monte_carlo.std_error
        (abs_float (est.Core.Monte_carlo.mean -. exact)))
    sweeps

(* E8: Prop 7.3 — the atom τ is localized on decides the complexity. *)
let e8 () =
  header "E8 (Prop 7.3): Avg on Qxyyz(x,z) <- R(x,y), S(y), T(z)";
  Printf.printf "τ on R (first atom): #P-hard, naive only. τ on T (last atom): polynomial.\n";
  Printf.printf "%8s %8s %16s %16s %8s\n" "rows" "players" "naive (τ on R)" "poly (τ on T)"
    "agree";
  let tau_t = Value_fn.relu ~rel:"T" ~pos:0 in
  let sizes = if quick then [ 6; 8 ] else [ 6; 8; 30; 60 ] in
  List.iter
    (fun rows ->
      let db = xyyz_db rows in
      let f = first_endo db in
      let poly_v, poly_t = time (fun () -> Core.Localization.avg_on_t_shapley tau_t db f) in
      let naive =
        if rows <= 8 then begin
          let a = Agg_query.make Aggregate.Avg tau_t Core.Localization.q_xyyz in
          let v, t = time (fun () -> Core.Naive.shapley a db f) in
          Some (v, t)
        end
        else None
      in
      let agree =
        match naive with
        | Some (v, _) ->
          verdict (Printf.sprintf "E8, rows %d: localized DP vs naive" rows) (Q.equal v poly_v)
        | None -> "-"
      in
      Printf.printf "%8d %8d %16s %16s %8s\n" rows (Database.endo_size db)
        (pp_time (Option.map snd naive))
        (pp_time (Some poly_t)) agree)
    sizes

(* E9: Sum/Count over ∃-hierarchical queries (prior work baseline). *)
let e9 () =
  let sizes = if quick then [ 8; 12; 40 ] else [ 8; 30; 100; 200 ] in
  scaling_table
    ~title:"E9 (Theorem 3.1, positive side): Sum on ∃-hierarchical Qe(x) <- R(x), S(x,y), T(y)"
    ~sizes ~naive_cap:8 ~make_db:exists_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Sum (vid "R" 0) Catalog.q_exists)
    ~dp_shapley:Core.Sum_count.shapley

(* E10: the #Set-Cover ⇒ Avg reduction, end to end. *)
let e10 () =
  header "E10 (Lemma D.3): #Set-Cover solved through the Avg-Shapley oracle";
  Printf.printf "%-30s %10s %10s %10s %10s\n" "instance" "brute" "via shap" "agree" "time";
  let instances =
    [ ("X=3, Y={12,23,3}", Setcover.make ~universe:3 [ [ 1; 2 ]; [ 2; 3 ]; [ 3 ] ]);
      ("X=4, Y={12,34,23,4}", Setcover.make ~universe:4 [ [ 1; 2 ]; [ 3; 4 ]; [ 2; 3 ]; [ 4 ] ]);
      ("random(4,4)", Setcover.random ~seed:42 ~universe:4 ~sets:4 ~max_set_size:3 ());
    ]
  in
  List.iter
    (fun (name, sc) ->
      let brute = Setcover.count_covers sc in
      let via, t = time (fun () -> Avg_red.count_covers_via_shapley sc) in
      Printf.printf "%-30s %10s %10s %10s %10s\n" name (B.to_string brute)
        (B.to_string via)
        (verdict ("E10, " ^ name ^ ": covers via Shapley vs brute force") (B.equal brute via))
        (pp_time (Some t)))
    instances

(* E11: the Qnt gadget simulates the set-cover game. *)
let e11 () =
  header "E11 (Lemma D.4): quantile gadget simulates the set-cover game";
  let sc = Setcover.make ~universe:3 [ [ 1; 2 ]; [ 2; 3 ]; [ 3 ] ] in
  Printf.printf "%-10s %16s %16s %8s\n" "quantile" "gadget shapley" "game shapley" "agree";
  List.iter
    (fun quantile ->
      let game = Qnt_red.cover_game sc in
      let via = Qnt_red.shapley_via_gadget sc quantile 1 in
      let direct = Core.Game.shapley game 0 in
      Printf.printf "%-10s %16s %16s %8s\n" (Q.to_string quantile) (Q.to_string via)
        (Q.to_string direct)
        (verdict
           ("E11, quantile " ^ Q.to_string quantile ^ ": gadget vs game")
           (Q.equal via direct)))
    [ Q.half; Q.of_ints 1 3; Q.of_ints 2 3 ]

(* E12: the permanent via Dup-Shapley. *)
let e12 () =
  header "E12 (Lemma E.2): permanent via the Dup-Shapley oracle";
  Printf.printf "%-26s %10s %10s %8s %10s\n" "graph" "brute" "via shap" "agree" "time";
  let graphs =
    [ ("C4 (4-cycle)", Setcover.make ~universe:4 [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 1 ] ]);
      ("K22", Setcover.make ~universe:4 [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]);
    ]
    @ (if quick then [] else [ ("C6 (6-cycle)",
         Setcover.make ~universe:6 [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 6 ]; [ 6; 1 ] ]) ])
  in
  List.iter
    (fun (name, sc) ->
      let brute = Setcover.count_exact_covers sc in
      let via, t = time (fun () -> Perm_red.permanent_via_shapley sc) in
      Printf.printf "%-26s %10s %10s %8s %10s\n" name (B.to_string brute) (B.to_string via)
        (verdict ("E12, " ^ name ^ ": permanent via Shapley vs brute force") (B.equal brute via))
        (pp_time (Some t)))
    graphs

(* E13: the batch engine — all-facts shapley_all, sequential (seed path)
   vs the variant pass, on the scaling families. *)
let e13 () =
  header "E13 (batch engine): all-facts shapley_all — seq vs batch";
  Printf.printf
    "Both must return bit-identical rational values (column 'same').\n\
     speed-up = seq / batch. Both solve in the calling domain.\n";
  let run_family ~title ~sizes ~make_db ~make_agg ~seed_all =
    Printf.printf "\n-- %s --\n" title;
    Printf.printf "%6s %8s %10s %10s %9s %6s\n" "rows" "players" "seq" "batch" "speed-up"
      "same";
    List.iter
      (fun rows ->
        let db = make_db rows in
        let a = make_agg () in
        let seq, t_seq = time (fun () -> seed_all a db) in
        let (batch, _), t_batch = time (fun () -> Core.Batch.shapley_all a db) in
        let same =
          List.length batch = List.length seq
          && List.for_all2
               (fun (f1, v1) (f2, v2) -> Fact.equal f1 f2 && Q.equal v1 v2)
               seq batch
        in
        Printf.printf "%6d %8d %10s %10s %8.2fx %6s\n" rows (Database.endo_size db)
          (pp_time (Some t_seq)) (pp_time (Some t_batch)) (t_seq /. t_batch)
          (verdict (Printf.sprintf "E13, %s, rows %d: seq vs batch" title rows) same))
      sizes
  in
  run_family
    ~title:"Max on Qxyy(x) <- R(x,y), S(y)  (q_xyy family, min/max table DP)"
    ~sizes:(if quick then [ 12; 40 ] else [ 20; 60; 120; 200 ])
    ~make_db:xyy_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy)
    ~seed_all:Core.Minmax.shapley_all;
  run_family
    ~title:"CDist on Qxyy(x) <- R(x,y), S(y)  (q_xyy family, per-value Boolean DP)"
    ~sizes:(if quick then [ 12; 40 ] else [ 20; 60; 100 ])
    ~make_db:xyy_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Count_distinct (vmod "R" 0) Catalog.q_xyy)
    ~seed_all:Core.Cdist.shapley_all;
  run_family
    ~title:"Has-duplicates on Q1(x) <- R(x,y), S(x)  (q1 family, P0/P1 DP)"
    ~sizes:(if quick then [ 10; 30 ] else [ 40; 100; 160 ])
    ~make_db:q1_db
    ~make_agg:(fun () -> Agg_query.make Aggregate.Has_duplicates (vmod "R" 0) Catalog.q1_sq)
    ~seed_all:Core.Dup.shapley_all

(* E14: kernel instrumentation — wall time plus arithmetic/convolution
   kernel counters for a fixed workload set. This is the machine-readable
   bench baseline: with [--json FILE] the rows are also written out as a
   BENCH_v1 report (validated in CI by bench/validate.exe). *)
let e14 () =
  header "E14 (kernels): arithmetic/convolution kernel counters per workload";
  Printf.printf
    "Counters are process-wide per workload (stats reset before each run).\n";
  Printf.printf "%-24s %6s %8s %10s %12s %12s %10s %10s\n" "workload" "rows"
    "players" "wall" "mul(school)" "mul(small)" "acc_mul" "convolve";
  let results = ref [] in
  let run experiment workload sizes make_db act =
    List.iter
      (fun rows ->
        let db = make_db rows in
        let players = Database.endo_size db in
        B.reset_stats ();
        Core.Tables.reset_stats ();
        Database.reset_stats ();
        Plan.reset_stats ();
        let (), wall = time (fun () -> act db) in
        let bs = B.stats () in
        let ts = Core.Tables.stats () in
        let ds = Database.stats () in
        let ps = Plan.stats () in
        Printf.printf "%-24s %6d %8d %9.4fs %12d %12d %10d %10d\n" workload rows
          players wall bs.B.mul_schoolbook bs.B.mul_small bs.B.acc_mul
          ts.Core.Tables.convolve;
        let open Bench_json in
        let kernels =
          Obj
            [ ("mul_schoolbook", Int bs.B.mul_schoolbook);
              ("mul_small", Int bs.B.mul_small);
              ("divmod", Int bs.B.divmod);
              ("gcd", Int bs.B.gcd);
              ("acc_mul", Int bs.B.acc_mul);
              ("promotions", Int bs.B.promotions);
              ("demotions", Int bs.B.demotions);
              ("convolve", Int ts.Core.Tables.convolve);
              ("convolve_small", Int ts.Core.Tables.convolve_small);
              ("convolve_rat", Int ts.Core.Tables.convolve_rat);
              ("tree_folds", Int ts.Core.Tables.tree_folds);
              ("weighted_sums", Int ts.Core.Tables.weighted_sums);
              ("plan_compiles", Int ps.Plan.plan_compiles);
              ("index_builds", Int ds.Database.index_builds);
              ("index_probes", Int ds.Database.index_probes);
              ("rel_scans", Int ds.Database.rel_scans) ]
        in
        results :=
          Obj
            [ ("experiment", String experiment);
              ("workload", String workload);
              ("n", Int rows);
              ("players", Int players);
              ("wall_s", Float wall);
              ("kernels", kernels) ]
          :: !results)
      sizes
  in
  let q_bool = Cq.make_boolean Catalog.q_xyy in
  run "E14" "bool_shapley_q_xyy"
    (if quick then [ 60; 120 ] else [ 100; 200; 400; 800 ])
    xyy_db
    (fun db -> ignore (Core.Boolean_dp.shapley q_bool db (first_endo db)));
  run "E14" "max_batch_q_xyy"
    (if quick then [ 12; 40 ] else [ 60; 120; 200 ])
    xyy_db
    (fun db ->
      let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
      ignore (Core.Batch.shapley_all a db));
  run "E14" "dup_batch_q1"
    (if quick then [ 10; 30 ] else [ 40; 100; 160 ])
    q1_db
    (fun db ->
      let a = Agg_query.make Aggregate.Has_duplicates (vmod "R" 0) Catalog.q1_sq in
      ignore (Core.Batch.shapley_all a db));
  List.rev !results

(* E15: incremental maintenance under churn. A live Incr.Session absorbs
   a stream of updates (delete/re-insert pairs over ~1% of the players)
   against the from-scratch baseline: re-opening a cold session per step,
   which re-runs every per-block DP on the same code path — so the
   comparison isolates exactly the reuse, not engine differences. (The
   pre-session Batch engine is shown at small n for transparency.)
   Every step's results are checked bit-identical between the two paths.

   The headline family is Sum — the linear engine caches one membership
   game per answer and an update dirties only the games its fact's atoms
   match, so the per-step cost is ~independent of database size. The Max
   family (generic engine) is deliberately kept small: its session keeps
   no cache, so a live step and a cold session's step run the same solve
   and the ratio reads about 1 (see DESIGN.md §5). *)
let e15 () =
  header "E15 (incremental maintenance): live session vs from-scratch under ~1% churn";
  Printf.printf "%-22s %6s %8s %6s %12s %14s %12s %9s %7s\n" "workload" "rows"
    "players" "steps" "incr/step" "scratch/step" "batch/step" "speedup" "agree";
  let results = ref [] in
  let module Session = Aggshap_incr.Session in
  let module Update = Aggshap_incr.Update in
  let same_results r1 r2 =
    List.equal (fun (f1, v1) (f2, v2) -> Fact.equal f1 f2 && Q.equal v1 v2) r1 r2
  in
  let emit workload rows players steps wall extra =
    let open Bench_json in
    let bs = B.stats () in
    let ts = Core.Tables.stats () in
    results :=
      Obj
        ([ ("experiment", String "E15");
           ("workload", String workload);
           ("n", Int rows);
           ("players", Int players);
           ("steps", Int steps);
           ("wall_s", Float wall) ]
        @ extra
        @ [ ( "kernels",
              Obj
                [ ("mul_schoolbook", Int bs.B.mul_schoolbook);
                  ("mul_small", Int bs.B.mul_small);
                  ("acc_mul", Int bs.B.acc_mul);
                  ("convolve", Int ts.Core.Tables.convolve);
                  ("convolve_rat", Int ts.Core.Tables.convolve_rat);
                  ("tree_folds", Int ts.Core.Tables.tree_folds) ] ) ])
      :: !results
  in
  let run_family ~label ~agg ~sizes =
  List.iter
    (fun rows ->
      let db0 = xyy_db rows in
      let a = Agg_query.make agg (vid "R" 0) Catalog.q_xyy in
      let players = Database.endo_size db0 in
      (* ~1% churn, in delete/re-insert pairs so the database returns to
         its base state and sizes stay comparable across steps. *)
      let pairs = Stdlib.max 1 (players / 200) in
      let victims = List.filteri (fun i _ -> i < pairs) (Database.endogenous db0) in
      let ops =
        List.concat_map
          (fun f -> [ Update.Delete f; Update.Insert (f, Database.Endogenous) ])
          victims
      in
      let steps = List.length ops in
      (* Live session: build once (untimed), then absorb the stream. *)
      let session = Session.open_ a db0 in
      ignore (Session.shapley_all session);
      B.reset_stats ();
      Core.Tables.reset_stats ();
      let incr_results, t_incr =
        time (fun () ->
            List.map
              (fun op ->
                Session.apply session op;
                Session.shapley_all session)
              ops)
      in
      emit ("incr_" ^ label) rows players steps t_incr [];
      (* From-scratch baseline: a cold session per step. *)
      B.reset_stats ();
      Core.Tables.reset_stats ();
      let db = ref db0 in
      let scratch_results, t_scratch =
        time (fun () ->
            List.map
              (fun op ->
                (match op with
                 | Update.Insert (f, p) -> db := Database.add ~provenance:p f !db
                 | Update.Delete f -> db := Database.remove f !db
                 | Update.Set_tau _ -> ());
                let cold = Session.open_ a !db in
                Session.shapley_all cold)
              ops)
      in
      let speedup = t_scratch /. Stdlib.max 1e-9 t_incr in
      emit ("scratch_" ^ label) rows players steps t_scratch
        [ ("speedup_vs_incr", Bench_json.Float speedup) ];
      (* Old per-batch engine, small n only: it is much slower than even
         the cold session, so the speedup above is the conservative one. *)
      let t_batch =
        if players <= 150 then begin
          let db = ref db0 in
          let (), t =
            time (fun () ->
                List.iter
                  (fun op ->
                    (match op with
                     | Update.Insert (f, p) -> db := Database.add ~provenance:p f !db
                     | Update.Delete f -> db := Database.remove f !db
                     | Update.Set_tau _ -> ());
                    ignore (Core.Batch.shapley_all a !db))
                  ops)
          in
          Some (t /. float_of_int steps)
        end
        else None
      in
      let agree = List.for_all2 same_results incr_results scratch_results in
      Printf.printf "%-22s %6d %8d %6d %11.5fs %13.5fs %12s %8.1fx %7s\n"
        label rows players steps
        (t_incr /. float_of_int steps)
        (t_scratch /. float_of_int steps)
        (pp_time t_batch) speedup
        (verdict
           (Printf.sprintf "E15, %s, rows %d: incremental vs from-scratch" label rows)
           agree))
    sizes
  in
  (* Linear engine: the headline. ~1% churn at every size. *)
  run_family ~label:"churn_q_xyy" ~agg:Aggregate.Sum
    ~sizes:(if quick then [ 80; 800 ] else [ 200; 400; 800 ]);
  (* Generic engine: kept small — a churn step re-runs the per-fact
     recombination for the whole block, so there is little to reuse and
     the cost per step is essentially the cold cost (see DESIGN.md §5). *)
  run_family ~label:"churn_q_xyy_max" ~agg:Aggregate.Max
    ~sizes:(if quick then [ 40 ] else [ 60 ]);
  List.rev !results

(* E19: indexed storage and the compiled join planner. Each workload is
   solved once on the compiled plans and secondary indexes, with the
   index counters recorded beside the wall. The [:indexed] suffix keeps
   the row names pinned in BENCH_baseline.json; the scan-versus-indexed
   comparison is recorded in EXPERIMENTS.md E19. *)
let e19 () =
  header "E19 (join planner): indexed evaluation";
  Printf.printf "%-18s %6s %8s %11s %11s\n" "workload" "rows" "players" "indexed"
    "idx_probes";
  let results = ref [] in
  let run workload sizes make_db make_agg =
    List.iter
      (fun rows ->
        let db = make_db rows in
        let a = make_agg () in
        let players = Database.endo_size db in
        B.reset_stats ();
        Core.Tables.reset_stats ();
        Database.reset_stats ();
        Plan.reset_stats ();
        let (_ : _ list), t_indexed =
          time (fun () -> fst (Core.Batch.shapley_all a db))
        in
        let ds = Database.stats () in
        let ps = Plan.stats () in
        Printf.printf "%-18s %6d %8d %10.4fs %11d\n" workload rows players t_indexed
          ds.Database.index_probes;
        let open Bench_json in
        results :=
          Obj
            [ ("experiment", String "E19");
              ("workload", String (workload ^ ":indexed"));
              ("n", Int rows);
              ("players", Int players);
              ("wall_s", Float t_indexed);
              ( "kernels",
                Obj
                  [ ("plan_compiles", Int ps.Plan.plan_compiles);
                    ("index_builds", Int ds.Database.index_builds);
                    ("index_probes", Int ds.Database.index_probes);
                    ("rel_scans", Int ds.Database.rel_scans) ] ) ]
          :: !results)
      sizes
  in
  run "dup_q1"
    (if quick then [ 30 ] else [ 40; 100; 160 ])
    q1_db
    (fun () -> Agg_query.make Aggregate.Has_duplicates (vmod "R" 0) Catalog.q1_sq);
  run "avg_q_xyy_full"
    (if quick then [ 12 ] else [ 12; 16; 24 ])
    xyy_db
    (fun () -> Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy_full);
  run "median_q_xyy_full"
    (if quick then [ 12 ] else [ 12; 16 ])
    xyy_db
    (fun () -> Agg_query.make Aggregate.Median (vid "R" 0) Catalog.q_xyy_full);
  List.rev !results

(* A BENCH_v1 row's [kernels] for a solve that may compile lineage:
   the d-DNNF compiler's counters and those of the counting kernel its
   circuits count with ([Tables]). [counted] resets both, runs the
   solve under [time] and reads them. *)
let counted f =
  let module Ddnnf = Aggshap_lineage.Ddnnf in
  Ddnnf.reset_stats ();
  Core.Tables.reset_stats ();
  let result, wall = time f in
  let ks = Ddnnf.stats () and ts = Core.Tables.stats () in
  let open Bench_json in
  ( result,
    wall,
    ks,
    Obj
      [ ("ddnnf_nodes", Int ks.Ddnnf.nodes);
        ("ddnnf_cache_hits", Int ks.Ddnnf.cache_hits);
        ("ddnnf_cache_misses", Int ks.Ddnnf.cache_misses);
        ("ddnnf_compiles", Int ks.Ddnnf.compiles);
        ("ddnnf_wmc_passes", Int ks.Ddnnf.wmc_passes);
        ("convolve", Int ts.Core.Tables.convolve);
        ("convolve_small", Int ts.Core.Tables.convolve_small);
        ("tree_folds", Int ts.Core.Tables.tree_folds) ] )

(* E20: the knowledge-compilation tier vs naive enumeration beyond the
   frontier. The RST family instantiates the canonical non-hierarchical
   pattern Q() <- R(x), T(x,y), S(y): T is mostly a matching (plus two
   cross edges so lineage is genuinely shared), which keeps the d-DNNF
   near-linear while naive enumeration pays 2^n per fact. Both tiers
   are exact, so wherever naive runs the values must be bit-identical
   — a MISMATCH fails the whole bench. The full run additionally
   asserts the headline: at n >= 20 players the compiled tier beats a
   single naive evaluation by >= 10x even while answering for *every*
   fact. *)
let e20 () =
  header "E20 (KC tier): d-DNNF knowledge compilation vs naive beyond the frontier";
  Printf.printf
    "naive column is one fact (2^n subsets); kc column is ALL facts through\n\
     one shared compilation. naive(all) cross-checks the full vector at small n.\n";
  Printf.printf "%-14s %6s %8s %12s %12s %9s %7s %7s %7s\n" "workload" "m" "players"
    "naive(1)" "kc(all)" "speedup" "nodes" "passes" "agree";
  let module Lineage = Aggshap_lineage.Lineage in
  let module Ddnnf = Aggshap_lineage.Ddnnf in
  let q_rst = Parser.parse_query_exn "Q() <- R(x), T(x, y), S(y)" in
  (* m R-facts, m S-facts, m matching T-facts + 2 cross edges:
     n = 3m + 2 players, all endogenous. *)
  let rst_db m =
    let db = ref Database.empty in
    for i = 0 to m - 1 do
      db := Database.add (Fact.of_ints "R" [ i ]) !db;
      db := Database.add (Fact.of_ints "S" [ i ]) !db;
      db := Database.add (Fact.of_ints "T" [ i; i ]) !db
    done;
    for i = 0 to Stdlib.min 1 (m - 1) do
      db := Database.add (Fact.of_ints "T" [ i; (i + 1) mod m ]) !db
    done;
    !db
  in
  let results = ref [] in
  let naive_cap = if quick then 14 else 20 in
  let run workload alpha tau sizes =
    List.iter
      (fun m ->
        let db = rst_db m in
        let a = Agg_query.make alpha tau q_rst in
        let players = Database.endo_size db in
        let f = first_endo db in
        let kc_all, t_kc, ks, kernels = counted (fun () -> Lineage.shapley_all a db) in
        let naive =
          if players <= naive_cap then
            Some (time (fun () -> Core.Naive.shapley a db f))
          else None
        in
        (* Bit-identity: the single naive fact always; the full vector
           where n is small enough for n·2^n. *)
        let kc_lookup fact =
          match List.find_opt (fun (g, _) -> Fact.equal g fact) kc_all with
          | Some (_, v) -> v
          | None -> failwith "E20: kc result missing a fact"
        in
        let agree =
          match naive with
          | Some (v, _) ->
            Q.equal v (kc_lookup f)
            && (players > 14
                || List.for_all
                     (fun g -> Q.equal (Core.Naive.shapley a db g) (kc_lookup g))
                     (Database.endogenous db))
          | None -> true
        in
        let speedup =
          match naive with
          | Some (_, t_n) -> Some (t_n /. Stdlib.max 1e-9 t_kc)
          | None -> None
        in
        Printf.printf "%-14s %6d %8d %12s %12s %8s %7d %7d %7s\n" workload m players
          (pp_time (Option.map snd naive))
          (pp_time (Some t_kc))
          (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-")
          ks.Ddnnf.nodes ks.Ddnnf.wmc_passes
          (if naive = None then "-"
           else verdict (Printf.sprintf "E20, %s, m %d: kc vs naive" workload m) agree);
        (match speedup with
         | Some s when (not quick) && players >= 20 && s < 10.0 ->
           failwith
             (Printf.sprintf
                "E20: kc speedup %.1fx below the 10x bar at n=%d" s players)
         | _ -> ());
        let open Bench_json in
        results :=
          Obj
            ([ ("experiment", String "E20");
               ("workload", String (workload ^ ":kc"));
               ("n", Int m);
               ("players", Int players);
               ("wall_s", Float t_kc) ]
            @ (match speedup with
               | Some s -> [ ("speedup_vs_naive", Float s) ]
               | None -> [])
            @ [ ("kernels", kernels) ])
          :: !results;
        match naive with
        | Some (_, t_n) ->
          results :=
            Obj
              [ ("experiment", String "E20");
                ("workload", String (workload ^ ":naive"));
                ("n", Int m);
                ("players", Int players);
                ("wall_s", Float t_n);
                ("kernels", Obj []) ]
            :: !results
        | None -> ())
      sizes
  in
  run "count_rst" Aggregate.Count (Value_fn.const ~rel:"R" Q.one)
    (if quick then [ 3; 4 ] else [ 3; 4; 6; 8; 10; 12; 16; 24; 32; 64 ]);
  run "max_rst" Aggregate.Max (Value_fn.const ~rel:"R" Q.one)
    (if quick then [ 3 ] else [ 3; 4; 6; 12; 24 ]);
  List.rev !results

(* E21: the solve planner (`Auto) vs each forced exact tier on E20's
   beyond-frontier RST family. The planner must pick a route whose
   values are bit-identical to every forced exact tier (checked here —
   a MISMATCH fails the bench) and whose wall-clock stays within 1.2x
   of the best forced tier (bench/validate.exe gates that on the
   emitted [best_forced_s] field). A deliberately tiny d-DNNF node
   budget exercises the mid-solve degradation ladder: the forced
   knowledge-compilation run aborts at the budget and completes on the
   naive rung with the same values. *)
let e21 () =
  header "E21 (solve planner): --fallback auto vs forced exact tiers";
  Printf.printf
    "auto rows carry best_forced_s for validate.exe's 1.2x gate; the budget\n\
     row aborts knowledge compilation mid-solve and degrades to naive.\n";
  Printf.printf "%-18s %6s %8s %12s %12s %12s %7s %7s\n" "workload" "m" "players"
    "auto" "kc" "naive" "ratio" "agree";
  let module Ddnnf = Aggshap_lineage.Ddnnf in
  let q_rst = Parser.parse_query_exn "Q() <- R(x), T(x, y), S(y)" in
  (* Same family as E20: n = 3m + 2 players, all endogenous. *)
  let rst_db m =
    let db = ref Database.empty in
    for i = 0 to m - 1 do
      db := Database.add (Fact.of_ints "R" [ i ]) !db;
      db := Database.add (Fact.of_ints "S" [ i ]) !db;
      db := Database.add (Fact.of_ints "T" [ i; i ]) !db
    done;
    for i = 0 to Stdlib.min 1 (m - 1) do
      db := Database.add (Fact.of_ints "T" [ i; (i + 1) mod m ]) !db
    done;
    !db
  in
  let exact_vec (all, _report) =
    List.map
      (fun (f, outcome) ->
        match outcome with
        | Core.Solver.Exact v -> (f, v)
        | Core.Solver.Estimate _ -> failwith "E21: unexpected estimate")
      all
  in
  let same a b =
    List.length a = List.length b
    && List.for_all2 (fun (f, v) (g, w) -> Fact.equal f g && Q.equal v w) a b
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let a = Agg_query.make Aggregate.Count (Value_fn.const ~rel:"R" Q.one) q_rst in
  let results = ref [] in
  let row ?(kernels = Bench_json.Obj []) workload m players wall extra =
    let open Bench_json in
    results :=
      Obj
        ([ ("experiment", String "E21");
           ("workload", String workload);
           ("n", Int m);
           ("players", Int players);
           ("wall_s", Float wall) ]
        @ extra
        @ [ ("kernels", kernels) ])
      :: !results
  in
  (* Naive evaluates all 2^n coalitions once per solve: only run it
     where that is sane. *)
  let naive_cap = 14 in
  let sizes = if quick then [ 3; 4 ] else [ 3; 4; 6; 8; 12; 16; 24 ] in
  List.iter
    (fun m ->
      let db = rst_db m in
      let players = Database.endo_size db in
      let solve fallback = Core.Solver.shapley_all ~fallback ~jobs:1 a db in
      let auto_res, t_auto, _, auto_kernels = counted (fun () -> solve `Auto) in
      let kc_res, t_kc, _, kc_kernels = counted (fun () -> solve `Knowledge_compilation) in
      let naive =
        if players <= naive_cap then Some (time (fun () -> solve `Naive))
        else None
      in
      let auto_vec = exact_vec auto_res in
      let agree =
        same auto_vec (exact_vec kc_res)
        && (match naive with
            | Some (res, _) -> same auto_vec (exact_vec res)
            | None -> true)
      in
      let best_forced =
        match naive with
        | Some (_, t_n) -> Stdlib.min t_kc t_n
        | None -> t_kc
      in
      let ratio = t_auto /. Stdlib.max 1e-9 best_forced in
      Printf.printf "%-18s %6d %8d %12s %12s %12s %6.1fx %7s\n" "count_rst:auto" m
        players (pp_time (Some t_auto)) (pp_time (Some t_kc))
        (pp_time (Option.map snd naive))
        ratio
        (verdict (Printf.sprintf "E21, m %d: the auto pick vs the forced exact tiers" m) agree);
      let open Bench_json in
      row ~kernels:auto_kernels "count_rst:auto" m players t_auto
        [ ("best_forced_s", Float best_forced);
          ("algorithm", String (snd auto_res).Core.Solver.algorithm) ];
      row ~kernels:kc_kernels "count_rst:kc" m players t_kc [];
      match naive with
      | Some (_, t_n) -> row "count_rst:naive" m players t_n []
      | None -> ())
    sizes;
  (* The degradation-ladder row: force knowledge compilation with a
     node budget far below what the compilation needs; the solve must
     abort mid-compilation, fall to the naive rung, and still agree. *)
  let m = 3 in
  let db = rst_db m in
  let players = Database.endo_size db in
  Ddnnf.reset_stats ();
  let budget_res, t_budget =
    time (fun () ->
        Core.Solver.shapley_all ~fallback:`Knowledge_compilation
          ~kc_node_budget:5 ~jobs:1 a db)
  in
  let aborts = (Ddnnf.stats ()).Ddnnf.budget_aborts in
  let naive_vec =
    exact_vec (Core.Solver.shapley_all ~fallback:`Naive ~jobs:1 a db)
  in
  let degraded =
    contains (snd budget_res).Core.Solver.algorithm "node-budget abort"
  in
  let agree = same (exact_vec budget_res) naive_vec in
  Printf.printf "%-18s %6d %8d %12s %12s %12s %7s %7s\n" "count_rst:budget" m
    players (pp_time (Some t_budget)) "-" "-" "-"
    (verdict
       (Printf.sprintf
          "E21, budget row: aborted to naive %b, abort counter %d, agrees with naive %b"
          degraded aborts agree)
       (degraded && agree && aborts > 0));
  (let open Bench_json in
   row "count_rst:budget" m players t_budget
     [ ("kc_budget_aborts", Int aborts);
       ("algorithm", String (snd budget_res).Core.Solver.algorithm) ]);
  List.rev !results

let write_json path rows =
  let report =
    Bench_json.Obj
      [ ("schema", Bench_json.String Bench_json.schema_version);
        ("quick", Bench_json.Bool quick);
        ("results", Bench_json.List rows) ]
  in
  (match Bench_json.validate report with
   | Ok () -> ()
   | Error msg -> failwith ("bench: emitted report violates its own schema: " ^ msg));
  let oc = open_out path in
  output_string oc (Bench_json.to_string report);
  close_out oc;
  Printf.printf "\nwrote %s (%s, %d result rows)\n" path Bench_json.schema_version
    (List.length rows)

(* A1: ablation — Boolean membership via the direct DP vs knowledge
   compilation (Remark 4.5). The membership game is Count over the
   Boolean query with a constant τ; its read-once lineage compiles to
   the d-trees' independent AND/OR nodes, so the circuit stays linear
   in the lineage. *)
let a1 () =
  header "A1 (ablation, Remark 4.5): membership via direct DP vs knowledge compilation";
  Printf.printf "%8s %8s %10s %12s %12s %8s\n" "rows" "players" "kc nodes" "dp time"
    "kc time" "agree";
  let module Lineage = Aggshap_lineage.Lineage in
  let module Ddnnf = Aggshap_lineage.Ddnnf in
  let q = Cq.make_boolean Catalog.q_xyy in
  let a = Agg_query.make Aggregate.Count (Value_fn.const ~rel:"R" Q.one) q in
  let sizes = if quick then [ 20; 60; 120 ] else [ 20; 60; 120; 200 ] in
  List.iter
    (fun rows ->
      let db = xyy_db rows in
      let f = first_endo db in
      let v1, t1 = time (fun () -> Core.Boolean_dp.shapley q db f) in
      Ddnnf.reset_stats ();
      let v2, t2 = time (fun () -> Lineage.shapley a db f) in
      Printf.printf "%8d %8d %10d %12s %12s %8s\n" rows (Database.endo_size db)
        (Ddnnf.stats ()).Ddnnf.nodes (pp_time (Some t1)) (pp_time (Some t2))
        (verdict (Printf.sprintf "A1, rows %d: KC vs Boolean DP" rows) (Q.equal v1 v2)))
    sizes

(* A2: ablation — Shapley vs Banzhaf from the same sum_k machinery. *)
let a2 () =
  header "A2 (ablation, Sec 3.2): Shapley vs Banzhaf from the same sum_k vectors";
  Printf.printf "%8s %12s %12s\n" "rows" "shapley" "banzhaf";
  let sizes = if quick then [ 20; 60 ] else [ 20; 60; 120 ] in
  List.iter
    (fun rows ->
      let db = xyy_db rows in
      let f = first_endo db in
      let a = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
      let _, t_s = time (fun () -> Core.Minmax.shapley a db f) in
      let _, t_b =
        time (fun () -> Core.Minmax.shapley ~score:Aggshap_arith.Score.Banzhaf a db f)
      in
      Printf.printf "%8d %12s %12s\n" rows (pp_time (Some t_s)) (pp_time (Some t_b)))
    sizes

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment             *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let stage = Staged.stage in
  let db_xyy = xyy_db 30 in
  let f_xyy = first_endo db_xyy in
  let db_full = xyy_db 12 in
  let f_full = first_endo db_full in
  let db_q1 = q1_db 30 in
  let f_q1 = first_endo db_q1 in
  let db_ex = exists_db 30 in
  let f_ex = first_endo db_ex in
  let db_xyyz = xyyz_db 30 in
  let f_xyyz = first_endo db_xyyz in
  let db_single = single_db 60 in
  let f_single = first_endo db_single in
  let q_pair = Parser.parse_query_exn "Q(u, v) <- R(u, v)" in
  let sc = Setcover.make ~universe:3 [ [ 1; 2 ]; [ 2; 3 ]; [ 3 ] ] in
  let a_max = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy in
  let a_cdist = Agg_query.make Aggregate.Count_distinct (vmod "R" 0) Catalog.q_xyy in
  let a_avg = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy_full in
  let a_med = Agg_query.make Aggregate.Median (vid "R" 0) Catalog.q_xyy_full in
  let a_dup = Agg_query.make Aggregate.Has_duplicates (vmod "R" 0) Catalog.q1_sq in
  let a_sum = Agg_query.make Aggregate.Sum (vid "R" 0) Catalog.q_exists in
  let a_max1 = Agg_query.make Aggregate.Max (vid "R" 1) q_pair in
  let a_avg1 = Agg_query.make Aggregate.Avg (vid "R" 1) q_pair in
  let tau_t = Value_fn.relu ~rel:"T" ~pos:0 in
  [ Test.make ~name:"e1_classify"
      (stage (fun () -> List.map (fun (_, q, _) -> Hierarchy.classify q) Catalog.figure1));
    Test.make ~name:"e2_max_dp_n30"
      (stage (fun () -> Core.Minmax.shapley a_max db_xyy f_xyy));
    Test.make ~name:"e2b_cdist_dp_n30"
      (stage (fun () -> Core.Cdist.shapley a_cdist db_xyy f_xyy));
    Test.make ~name:"e3_avg_dp_n12"
      (stage (fun () -> Core.Avg_quantile.shapley a_avg db_full f_full));
    Test.make ~name:"e3b_median_dp_n12"
      (stage (fun () -> Core.Avg_quantile.shapley a_med db_full f_full));
    Test.make ~name:"e4_dup_dp_n30"
      (stage (fun () -> Core.Dup.shapley a_dup db_q1 f_q1));
    Test.make ~name:"e5_naive_avg_n10"
      (stage
         (let db = xyy_db 10 in
          let f = first_endo db in
          let hard = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy in
          fun () -> Core.Naive.shapley hard db f));
    Test.make ~name:"e6_closed_max_n60"
      (stage (fun () -> Core.Closed_form.max_single_atom a_max1 db_single f_single));
    Test.make ~name:"e6_closed_avg_n60"
      (stage (fun () -> Core.Closed_form.avg_single_atom a_avg1 db_single f_single));
    Test.make ~name:"e7_montecarlo_1k"
      (stage (fun () -> Core.Monte_carlo.shapley ~seed:1 ~samples:1000 a_avg db_full f_full));
    Test.make ~name:"e8_localized_avg_n30"
      (stage (fun () -> Core.Localization.avg_on_t_shapley tau_t db_xyyz f_xyyz));
    Test.make ~name:"e9_sum_dp_n30"
      (stage (fun () -> Core.Sum_count.shapley a_sum db_ex f_ex));
    Test.make ~name:"e10_avg_reduction"
      (stage (fun () -> Avg_red.count_covers_via_shapley sc));
    Test.make ~name:"a1_kc_membership_n60"
      (stage
         (let db = xyy_db 60 in
          let qb = Cq.make_boolean Catalog.q_xyy in
          let a = Agg_query.make Aggregate.Count (Value_fn.const ~rel:"R" Q.one) qb in
          let f = first_endo db in
          fun () -> Aggshap_lineage.Lineage.shapley a db f));
    Test.make ~name:"e12_perm_reduction"
      (stage
         (let c4 = Setcover.make ~universe:4 [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 1 ] ] in
          fun () -> Perm_red.permanent_via_shapley c4));
  ]

let run_bechamel () =
  header "Bechamel micro-benchmarks (one per experiment)";
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~kde:None ()
  in
  let grouped = Test.make_grouped ~name:"aggshap" (bechamel_tests ()) in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  Printf.printf "%-32s %16s %10s\n" "benchmark" "time/run" "r²";
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square r with Some v -> v | None -> nan in
      let human =
        if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
        else Printf.sprintf "%.1f us" (est /. 1e3)
      in
      Printf.printf "%-32s %16s %10.4f\n" name human r2)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let () =
  Printf.printf "aggshap benchmark harness%s\n" (if quick then " (--quick)" else "");
  List.iter
    (fun (name, f) -> if want name then f ())
    [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
      ("e13", e13) ];
  let rows_of name f = if want name then f () else [] in
  let e14_rows = rows_of "e14" e14 in
  let e15_rows = rows_of "e15" e15 in
  let e19_rows = rows_of "e19" e19 in
  let e20_rows = rows_of "e20" e20 in
  let e21_rows = rows_of "e21" e21 in
  if want "a1" then a1 ();
  if want "a2" then a2 ();
  if want "bechamel" then run_bechamel ();
  (match json_path with
   | Some path ->
     write_json path
       (e14_rows @ e15_rows @ e19_rows @ e20_rows @ e21_rows)
   | None -> ());
  print_newline ();
  match List.rev !failed_checks with
  | [] -> print_endline "all experiments completed; every cross-check above reports 'ok'"
  | failed ->
    List.iter (fun what -> Printf.printf "MISMATCH: %s\n" what) failed;
    exit 1
