(* The generic Fig. 2 decomposition engine: algebraic laws (qcheck) for
   the table algebra behind each engine instance, the static
   decomposition planner, per-node statistics, and the engine-level
   `Block_drop fault caught by the differential oracle in all six
   aggregate families. *)

module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Fault = Aggshap_arith.Fault
module Tables = Aggshap_core.Tables
module Engine = Aggshap_core.Engine
module Count_dp = Aggshap_core.Count_dp
module Minmax = Aggshap_core.Minmax
module Avg_quantile = Aggshap_core.Avg_quantile
module Cq = Aggshap_cq.Cq
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Catalog = Aggshap_workload.Catalog
module Trial = Aggshap_check.Trial
module Oracle = Aggshap_check.Oracle
module Shrink = Aggshap_check.Shrink

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_counts n = QCheck.Gen.(list_size (return (n + 1)) (int_range 0 9))
let counts_of cs = Array.of_list (List.map B.of_int cs)

let counts_equal a b = Array.length a = Array.length b && Array.for_all2 B.equal a b

(* Boolean/CDist algebra: plain per-k counts, combined by [convolve]. *)
let arb_counts =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 4 in
      let* cs = gen_counts n in
      return (counts_of cs))
  in
  QCheck.make gen ~print:(fun c ->
      String.concat ";" (Array.to_list (Array.map B.to_string c)))

(* Count/Dup algebra: answer-count tables. All rows share length n+1 so
   that [combine] convolves consistently. *)
let arb_count_table =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 3 in
      let* entries = list_size (int_range 1 3) (pair (int_range 0 4) (gen_counts n)) in
      return
        { Count_dp.n;
          entries =
            List.fold_left
              (fun acc (l, cs) ->
                let c = counts_of cs in
                Count_dp.IntMap.update l
                  (function None -> Some c | Some c' -> Some (Tables.add c' c))
                  acc)
              Count_dp.IntMap.empty entries })
  in
  QCheck.make gen ~print:(fun t ->
      Printf.sprintf "{n=%d; %s}" t.Count_dp.n
        (String.concat ","
           (List.map
              (fun (l, c) ->
                Printf.sprintf "%d->%s" l
                  (String.concat ";" (Array.to_list (Array.map B.to_string c))))
              (Count_dp.IntMap.bindings t.Count_dp.entries))))

(* Min/Max algebra: (a,k)-tables. *)
let arb_minmax_table =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 3 in
      let* empty = gen_counts n in
      let* values =
        list_size (int_range 0 3) (pair (int_range (-3) 3) (gen_counts n))
      in
      return
        (Minmax.table_of_values ~n ~empty:(counts_of empty)
           (List.map (fun (v, cs) -> (Q.of_int v, counts_of cs)) values)))
  in
  QCheck.make gen

(* Avg/Quantile algebra: (a,k,ℓ)-tables. *)
let arb_vtable =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 3 in
      let* entries =
        list_size (int_range 1 3)
          (pair (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)) (gen_counts n))
      in
      return
        (Avg_quantile.vtable_of ~n
           (List.map (fun (l, cs) -> (l, counts_of cs)) entries)))
  in
  QCheck.make gen

(* ------------------------------------------------------------------ *)
(* Algebraic laws, per TABLE_ALGEBRA instance                          *)
(* ------------------------------------------------------------------ *)

let boolean_laws =
  [ prop "convolve is associative" 300 QCheck.(triple arb_counts arb_counts arb_counts)
      (fun (a, b, c) ->
        counts_equal
          (Tables.convolve (Tables.convolve a b) c)
          (Tables.convolve a (Tables.convolve b c)));
    prop "convolve is commutative" 300 QCheck.(pair arb_counts arb_counts) (fun (a, b) ->
        counts_equal (Tables.convolve a b) (Tables.convolve b a));
    prop "full 0 is the unit" 300 arb_counts (fun a ->
        counts_equal (Tables.convolve a (Tables.full 0)) a);
    prop "complement is involutive" 300 arb_counts (fun a ->
        let n = Array.length a - 1 in
        counts_equal a (Tables.complement n (Tables.complement n a)));
  ]

let count_laws =
  let module C = Count_dp in
  [ prop "union combine is associative" 200
      QCheck.(triple arb_count_table arb_count_table arb_count_table)
      (fun (a, b, c) ->
        C.equal (C.combine ( + ) (C.combine ( + ) a b) c)
          (C.combine ( + ) a (C.combine ( + ) b c)));
    prop "union combine is commutative" 200 QCheck.(pair arb_count_table arb_count_table)
      (fun (a, b) -> C.equal (C.combine ( + ) a b) (C.combine ( + ) b a));
    prop "neutral_union is the unit of union" 200 arb_count_table (fun a ->
        C.equal (C.combine ( + ) a C.neutral_union) a);
    prop "cross combine is associative" 200
      QCheck.(triple arb_count_table arb_count_table arb_count_table)
      (fun (a, b, c) ->
        C.equal (C.combine ( * ) (C.combine ( * ) a b) c)
          (C.combine ( * ) a (C.combine ( * ) b c)));
    prop "cross combine is commutative" 200 QCheck.(pair arb_count_table arb_count_table)
      (fun (a, b) -> C.equal (C.combine ( * ) a b) (C.combine ( * ) b a));
    prop "neutral_cross is the unit of cross" 200 arb_count_table (fun a ->
        C.equal (C.combine ( * ) a C.neutral_cross) a);
    prop "pad 0 is the identity" 200 arb_count_table (fun a ->
        C.equal (C.pad_table 0 a) a);
  ]

let minmax_laws =
  [ prop "combine_union is associative" 200
      QCheck.(triple arb_minmax_table arb_minmax_table arb_minmax_table)
      (fun (a, b, c) ->
        Minmax.table_equal
          (Minmax.combine_union (Minmax.combine_union a b) c)
          (Minmax.combine_union a (Minmax.combine_union b c)));
    prop "combine_union is commutative" 200
      QCheck.(pair arb_minmax_table arb_minmax_table)
      (fun (a, b) ->
        Minmax.table_equal (Minmax.combine_union a b) (Minmax.combine_union b a));
    prop "neutral is the unit" 200 arb_minmax_table (fun a ->
        Minmax.table_equal (Minmax.combine_union a Minmax.neutral) a);
    prop "pad 0 is the identity" 200 arb_minmax_table (fun a ->
        Minmax.table_equal (Minmax.pad_table 0 a) a);
  ]
  (* [cross op], the monoid Max's conjunction, under the two monoids
     Minmax_monoid ships: the generated values lie in [-3, 3], so -1000
     is a unit of [Q.max] on them. *)
  @ List.concat_map
      (fun (name, op, unit_) ->
        let unit_table =
          Minmax.table_of_values ~n:0 ~empty:[| B.zero |] [ (unit_, [| B.one |]) ]
        in
        [ prop ("cross " ^ name ^ " is associative") 200
            QCheck.(triple arb_minmax_table arb_minmax_table arb_minmax_table)
            (fun (a, b, c) ->
              Minmax.table_equal
                (Minmax.cross op (Minmax.cross op a b) c)
                (Minmax.cross op a (Minmax.cross op b c)));
          prop ("cross " ^ name ^ " is commutative") 200
            QCheck.(pair arb_minmax_table arb_minmax_table)
            (fun (a, b) -> Minmax.table_equal (Minmax.cross op a b) (Minmax.cross op b a));
          prop ("cross " ^ name ^ ": the one-row unit table is the unit") 200
            arb_minmax_table (fun a -> Minmax.table_equal (Minmax.cross op a unit_table) a);
        ])
      [ ("add", Q.add, Q.zero); ("max", Q.max, Q.of_int (-1000)) ]

let avg_laws =
  let module A = Avg_quantile in
  [ prop "combine_vtables vec_add is associative" 200
      QCheck.(triple arb_vtable arb_vtable arb_vtable)
      (fun (a, b, c) ->
        A.vtable_equal
          (A.combine_vtables A.vec_add (A.combine_vtables A.vec_add a b) c)
          (A.combine_vtables A.vec_add a (A.combine_vtables A.vec_add b c)));
    prop "combine_vtables vec_add is commutative" 200 QCheck.(pair arb_vtable arb_vtable)
      (fun (a, b) ->
        A.vtable_equal (A.combine_vtables A.vec_add a b)
          (A.combine_vtables A.vec_add b a));
    prop "neutral_union is the unit" 200 arb_vtable (fun a ->
        A.vtable_equal (A.combine_vtables A.vec_add a A.neutral_union) a);
    prop "pad 0 is the identity" 200 arb_vtable (fun a ->
        A.vtable_equal (A.pad_vtable 0 a) a);
  ]

(* ------------------------------------------------------------------ *)
(* The static decomposition planner                                    *)
(* ------------------------------------------------------------------ *)

let test_shape_of_catalog () =
  (match Engine.shape Catalog.q_xyy with
   | Engine.Partition { root = "y"; free = false; sub = Engine.Cross comps } ->
     Alcotest.(check int) "two components under the root" 2 (List.length comps)
   | _ -> Alcotest.fail "q_xyy: expected an existential root partition over a conjunction");
  (match Engine.shape Catalog.q_xyy_full with
   | Engine.Partition { root = "y"; free = true; _ } -> ()
   | _ -> Alcotest.fail "q_xyy_full: expected a free root partition on y");
  (match Engine.shape Catalog.q3_sq with
   | Engine.Cross _ -> ()
   | _ -> Alcotest.fail "q3_sq: expected a top-level conjunction (disconnected)");
  (match Engine.shape Catalog.q_nonhier with
   | Engine.Stuck _ -> ()
   | _ -> Alcotest.fail "q_nonhier: expected a stuck decomposition (no root variable)");
  (* The renderer never raises and mentions the root it found. *)
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    go 0
  in
  let rendered = Format.asprintf "%a" Engine.pp_shape (Engine.shape Catalog.q_xyy) in
  Alcotest.(check bool) "rendering mentions the root" true
    (String.length rendered > 0 && contains rendered "partition on root y")

let test_partition_conserves_facts () =
  let db =
    Database.of_facts
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 3; 4 ]; Fact.of_ints "S" [ 2 ];
        Fact.of_ints "S" [ 4 ]; Fact.of_ints "S" [ 99 ] ]
  in
  let blocks, dropped = Aggshap_cq.Decompose.partition Catalog.q_xyy "y" db in
  let in_blocks = List.fold_left (fun acc (_, b) -> acc + Database.endo_size b) 0 blocks in
  (* S(99) has no matching R fact, so its root value forms no block: the
     fact is dropped into null-player padding instead. *)
  Alcotest.(check int) "two supported root values" 2 (List.length blocks);
  Alcotest.(check int) "every endogenous fact lands in a block or is dropped"
    (Database.endo_size db)
    (in_blocks + Database.endo_size dropped)

(* ------------------------------------------------------------------ *)
(* Per-node statistics                                                 *)
(* ------------------------------------------------------------------ *)

let wide_db =
  Database.of_facts
    [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 3; 4 ]; Fact.of_ints "R" [ 5; 6 ];
      Fact.of_ints "S" [ 2 ]; Fact.of_ints "S" [ 4 ]; Fact.of_ints "S" [ 6 ] ]

(* A chain of four blocks under root y, with an exogenous fact in one
   block and a null player (S(9) matches no R fact). *)
let pass_db =
  Aggshap_workload.Generate.chain_database ~rows:16
  |> Database.add ~provenance:Database.Exogenous (Fact.of_ints "R" [ 50; 0 ])
  |> Database.add (Fact.of_ints "S" [ 9 ])

(* One all-facts pass, counted exactly: nodes, leaves, merges, combines.
   A pass that walks a sibling component again, or carries a second
   table per fact, enters more nodes or combines. *)
let check_pass_counts name expected solve =
  Engine.reset_stats ();
  ignore (solve ());
  let s = Engine.stats () in
  Alcotest.(check (list int))
    (name ^ ": nodes, leaves, merges, combines")
    expected
    [ s.Engine.nodes; s.Engine.leaves; s.Engine.merges; s.Engine.combines ]

let test_stats_counters () =
  Engine.reset_stats ();
  ignore (Count_dp.answer_counts Catalog.q_xyy_full wide_db);
  let s = Engine.stats () in
  Alcotest.(check bool) "nodes counted" true (s.Engine.nodes > 0);
  Alcotest.(check bool) "leaves counted" true (s.Engine.leaves > 0);
  Alcotest.(check bool) "merges counted" true (s.Engine.merges > 0);
  let tau = Value_fn.id ~rel:"R" ~pos:0 in
  (* A pass that carried both variant tables per fact, and whose
     conjunctions walked the sibling components again for each of them,
     counted [132; 112; 16; 44] here. *)
  check_pass_counts "max q_xyy" [ 49; 41; 4; 24 ] (fun () ->
      Minmax.batch (Agg_query.make Aggregate.Max tau Catalog.q_xyy) pass_db);
  (* One pass per reference value, each over (ℓ=, ℓ≠)-tables, counted
     [1819; 1683; 68; 408] here: 17 passes of this one's size. Before
     that, with both variant tables per fact, [4437; 4097; 272; 748]. *)
  check_pass_counts "avg q_xyy_full" [ 107; 99; 4; 24 ] (fun () ->
      Avg_quantile.batch (Agg_query.make Aggregate.Avg tau Catalog.q_xyy_full) pass_db);
  (* Median keeps one (ℓ<, ℓ=, ℓ>)-table pass per reference value. *)
  check_pass_counts "median q_xyy_full" [ 1819; 1683; 68; 408 ] (fun () ->
      Avg_quantile.batch (Agg_query.make Aggregate.Median tau Catalog.q_xyy_full) pass_db);
  Engine.reset_stats ();
  Alcotest.(check int) "reset clears nodes" 0 (Engine.stats ()).Engine.nodes

(* Saturated answer-count tables: every row below the cap is
   bit-identical to the uncapped table, and the cap row absorbs exactly
   the tail mass ([at_least]). This is the contract Dup's fast path
   rests on — it reads rows 0 and 1 of [~cap:2] tables. *)
let test_capped_answer_counts () =
  let module C = Count_dp in
  let module Generate = Aggshap_workload.Generate in
  let config = { Generate.tuples_per_relation = 10; domain = 4; exo_fraction = 0.25 } in
  List.iter
    (fun q ->
      List.iter
        (fun seed ->
          let db = Generate.random_database ~seed ~config q in
          let exact = C.answer_counts q db in
          List.iter
            (fun cap ->
              let capped = C.answer_counts ~cap q db in
              let name = Printf.sprintf "%s seed %d cap %d" (Cq.to_string q) seed cap in
              for l = 0 to cap - 1 do
                Alcotest.(check bool)
                  (Printf.sprintf "%s: row %d exact" name l)
                  true
                  (counts_equal (C.get capped l) (C.get exact l))
              done;
              Alcotest.(check bool) (name ^ ": cap row is the tail") true
                (counts_equal (C.get capped cap) (C.at_least exact cap)))
            [ 1; 2; 3 ])
        [ 11; 12; 13 ])
    [ Catalog.q1_sq; Catalog.q3_sq; Catalog.q_xyy_full ]

(* ------------------------------------------------------------------ *)
(* `Block_drop caught in every aggregate family                        *)
(* ------------------------------------------------------------------ *)

(* One directed trial per frontier family, each with at least two blocks
   in some root partition the family's engine instance evaluates, so the
   engine-level fault has a block to drop. The trial must be clean
   without the fault, fail the oracle with it, and shrink to a
   still-failing reproducer. *)
let directed_block_drop (name, alpha, query, tau, facts) =
  Alcotest.test_case name `Quick (fun () ->
      let db = Database.of_facts facts in
      let trial = { Trial.seed = 0; query; db; alpha; tau } in
      Alcotest.(check bool) "clean without the fault" true
        (Oracle.run ~par_jobs:1 trial = None);
      assert (!Fault.current = `None);
      Fault.current := `Block_drop;
      Fun.protect
        ~finally:(fun () -> Fault.current := `None)
        (fun () ->
          match Oracle.run ~par_jobs:1 trial with
          | None -> Alcotest.failf "%s: `Block_drop was not caught" name
          | Some failure ->
            let shrunk, _ = Shrink.minimize (Oracle.run ~par_jobs:1) trial failure in
            Alcotest.(check bool) "shrunk still fails" true
              (Oracle.run ~par_jobs:1 shrunk <> None);
            Alcotest.(check bool) "shrunk is no bigger" true
              (Database.size shrunk.Trial.db <= Database.size db)))

let r1 = Fact.of_ints "R" [ 1 ]
let block_drop_families =
  [ ( "sum (Boolean DP)", Aggregate.Sum, Catalog.q_exists, Trial.Id ("R", 0),
      [ r1; Fact.of_ints "S" [ 1; 3 ]; Fact.of_ints "S" [ 1; 4 ]; Fact.of_ints "T" [ 3 ];
        Fact.of_ints "T" [ 4 ] ] );
    ( "count (Boolean DP)", Aggregate.Count, Catalog.q_exists, Trial.Const ("R", Q.one),
      [ r1; Fact.of_ints "S" [ 1; 3 ]; Fact.of_ints "S" [ 1; 4 ]; Fact.of_ints "T" [ 3 ];
        Fact.of_ints "T" [ 4 ] ] );
    (* Both root blocks must survive the per-value restriction, so the
       two R facts share one τ-value but differ on the root y. *)
    ( "count-distinct (per-value Boolean DP)", Aggregate.Count_distinct, Catalog.q_xyy,
      Trial.Id ("R", 0),
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 1; 4 ]; Fact.of_ints "S" [ 2 ];
        Fact.of_ints "S" [ 4 ] ] );
    ( "min ((a,k)-table DP)", Aggregate.Min, Catalog.q_xyy, Trial.Id ("R", 0),
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 3; 4 ]; Fact.of_ints "S" [ 2 ];
        Fact.of_ints "S" [ 4 ] ] );
    ( "avg (first-moment (l,k)-table DP)", Aggregate.Avg, Catalog.q_xyy_full, Trial.Id ("R", 0),
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 3; 4 ]; Fact.of_ints "S" [ 2 ];
        Fact.of_ints "S" [ 4 ] ] );
    ( "has-duplicates (P0/P1 DP)", Aggregate.Has_duplicates, Catalog.q1_sq,
      Trial.Const ("R", Q.one),
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "S" [ 1 ]; Fact.of_ints "R" [ 4; 5 ];
        Fact.of_ints "S" [ 4 ] ] );
  ]

(* ------------------------------------------------------------------ *)
(* Avg's first-moment table against brute force                        *)
(* ------------------------------------------------------------------ *)

(* Per answer count ℓ and size k: the number of subsets of the
   endogenous facts (with every exogenous fact) whose answer bag has ℓ
   answers, and the sum of their bags' τ-totals, by enumeration. *)
let brute_moments (a : Agg_query.t) db =
  let endo = Array.of_list (Database.endogenous db) in
  let n = Array.length endo in
  let exo = Array.fold_left (fun db f -> Database.remove f db) db endo in
  let rows = Hashtbl.create 8 in
  for mask = 0 to (1 lsl n) - 1 do
    let sub = ref exo and k = ref 0 in
    Array.iteri
      (fun i f ->
        if mask land (1 lsl i) <> 0 then begin
          incr k;
          sub := Database.add f !sub
        end)
      endo;
    let values = List.map snd (Agg_query.answer_values a !sub) in
    let l = List.length values in
    let c, t =
      match Hashtbl.find_opt rows l with
      | Some row -> row
      | None ->
        let row = (Array.make (n + 1) 0, Array.make (n + 1) Q.zero) in
        Hashtbl.add rows l row;
        row
    in
    c.(!k) <- c.(!k) + 1;
    t.(!k) <- Q.add t.(!k) (Q.sum values)
  done;
  rows

(* [None] when the pass's table is the enumeration's, else the first
   row that differs. *)
let moments_mismatch a db =
  let brute = brute_moments a db in
  let table = Avg_quantile.first_moments a db in
  let differs (l, c, t) =
    match Hashtbl.find_opt brute l with
    | None -> true
    | Some (c', t') ->
      not (counts_equal c (counts_of (Array.to_list c')) && Array.for_all2 Q.equal t t')
  in
  match List.find_opt differs table with
  | Some (l, _, _) -> Some l
  | None ->
    Hashtbl.fold
      (fun l _ acc -> if List.exists (fun (l', _, _) -> l' = l) table then acc else Some l)
      brute None

let batch_mismatch (a : Agg_query.t) db =
  List.find_map
    (fun score ->
      List.find_opt
        (fun (f, v) -> not (Q.equal v (Avg_quantile.shapley ~score a db f)))
        (Avg_quantile.batch ~score a db))
    [ Aggshap_arith.Score.Shapley; Aggshap_arith.Score.Banzhaf ]

(* The trial's τ position, mapped to values with denominators above 1:
   v/(|v|+2) + 1/7, or c/3 + 1/7 for a constant c. *)
let fractional_tau = function
  | Trial.Const (rel, c) -> Value_fn.const ~rel (Q.add (Q.div_int c 3) (Q.of_ints 1 7))
  | Trial.Id (rel, pos) | Trial.Relu (rel, pos) | Trial.Gt (rel, pos, _) ->
    Value_fn.custom ~rel ~descr:(Printf.sprintf "frac[%d]" pos) (fun args ->
        let v = Value_fn.numeric args.(pos) in
        Q.add (Q.div v (Q.add (Q.abs v) Q.two)) (Q.of_ints 1 7))

(* A random trial's query on a database of up to 12 endogenous facts
   (the surplus demoted to exogenous), under {!fractional_tau}. *)
let fractional_instance seed =
  let t = Trial.generate ~seed () in
  let config =
    { Aggshap_workload.Generate.tuples_per_relation = 6; domain = 3; exo_fraction = 0.25 }
  in
  let db = Aggshap_workload.Generate.random_database ~seed ~config t.Trial.query in
  let db =
    List.fold_left
      (fun db f -> Database.set_provenance Database.Exogenous f db)
      db
      (List.filteri (fun i _ -> i >= 12) (Database.endogenous db))
  in
  (Agg_query.make Aggregate.Avg (fractional_tau t.Trial.tau) t.Trial.query, db)

let prop_first_moments =
  prop "first-moment table equals brute force (fractional τ)" 200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let a, db = fractional_instance seed in
      if not (Aggshap_cq.Hierarchy.is_q_hierarchical a.Agg_query.query) then true
      else begin
        (match moments_mismatch a db with
         | Some l -> QCheck.Test.fail_reportf "seed %d: row ℓ = %d differs" seed l
         | None -> ());
        (match batch_mismatch a db with
         | Some (f, _) ->
           QCheck.Test.fail_reportf "seed %d: batch of %s differs from the per-fact reduction"
             seed (Fact.to_string f)
         | None -> ());
        true
      end)

(* Block x = 3 holds a satisfied τ-leaf R(3, u) whose τ-value 1/3 has
   a denominator no answer's value has (the answers' are 2 and 4), and
   a τ-free side S/T without answers: the pass files the leaf's
   τ-totals as 0, which the cross with that side makes exact. *)
let test_first_moments_dead_leaf () =
  let q = Aggshap_cq.Parser.parse_query_exn "Q(x, z, w) <- R(x, u), S(x, z, w), T(x, z, w)" in
  let inv =
    Value_fn.custom ~rel:"R" ~descr:"1/x" (fun args -> Q.inv (Value_fn.numeric args.(0)))
  in
  let a = Agg_query.make Aggregate.Avg inv q in
  let db =
    Database.of_facts
      [ Fact.of_ints "R" [ 3; 5 ]; Fact.of_ints "S" [ 3; 2; 3 ]; Fact.of_ints "T" [ 3; 2; 4 ];
        Fact.of_ints "R" [ 2; 7 ]; Fact.of_ints "S" [ 2; 2; 3 ]; Fact.of_ints "T" [ 2; 2; 3 ];
        Fact.of_ints "R" [ 4; 1 ]; Fact.of_ints "S" [ 4; 1; 1 ]; Fact.of_ints "T" [ 4; 1; 1 ] ]
  in
  Alcotest.(check bool) "q-hierarchical" true (Aggshap_cq.Hierarchy.is_q_hierarchical q);
  Alcotest.(check (option int)) "table equals brute force" None (moments_mismatch a db);
  Alcotest.(check (option string)) "batch equals the per-fact reduction" None
    (Option.map (fun (f, _) -> Fact.to_string f) (batch_mismatch a db))

let () =
  Alcotest.run "engine"
    [ ("Boolean/CDist table algebra (counts)", boolean_laws);
      ("Count/Dup table algebra (answer counts)", count_laws);
      ("Min/Max table algebra ((a,k)-tables)", minmax_laws);
      ("Avg/Quantile table algebra ((a,k,l)-tables)", avg_laws);
      ( "Avg first-moment table",
        [ prop_first_moments;
          Alcotest.test_case "a leaf whose value no answer has" `Quick
            test_first_moments_dead_leaf;
        ] );
      ( "decomposition planner",
        [ Alcotest.test_case "shapes of the catalog queries" `Quick test_shape_of_catalog;
          Alcotest.test_case "partition conserves facts" `Quick
            test_partition_conserves_facts;
        ] );
      ( "stats",
        [ Alcotest.test_case "per-node counters" `Quick test_stats_counters;
          Alcotest.test_case "capped answer counts" `Quick test_capped_answer_counts;
        ] );
      ("block-drop fault per family", List.map directed_block_drop block_drop_families);
    ]
