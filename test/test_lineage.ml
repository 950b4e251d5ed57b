(* Property tests (qcheck) for the knowledge-compilation tier: the
   d-DNNF compiler against brute-force model counting (≤16 variables),
   every variable's slice against brute force, circuit-level Shapley
   and Banzhaf against their subset-sum definitions, structural d-DNNF
   invariants (decomposability, determinism, disjoint parts, support),
   the formula-keyed cache as a pure optimization — each over random
   formulas and over formulas built from variable-disjoint parts — a
   node bound that pins the compiler's branch order, and the whole
   lineage pipeline against naive enumeration on random trials. *)

module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Score = Aggshap_arith.Score
module F = Aggshap_lineage.Formula
module D = Aggshap_lineage.Ddnnf
module L = Aggshap_lineage.Lineage
module Database = Aggshap_relational.Database
module Agg_query = Aggshap_agg.Agg_query
module Solver = Aggshap_core.Solver
module Naive = Aggshap_core.Naive
module Trial = Aggshap_check.Trial
module Fuzz = Aggshap_check.Fuzz

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Random monotone formulas                                            *)
(* ------------------------------------------------------------------ *)

(* A pure description of a monotone formula, so the reference semantics
   ([eval_fd]) is independent of every simplification [Formula] does
   when the description is interned ([build]). *)
type fd =
  | FTrue
  | FFalse
  | FVar of int
  | FAnd of fd list
  | FOr of fd list

let rec fd_to_string = function
  | FTrue -> "T"
  | FFalse -> "F"
  | FVar v -> Printf.sprintf "x%d" v
  | FAnd fs -> "(" ^ String.concat " & " (List.map fd_to_string fs) ^ ")"
  | FOr fs -> "(" ^ String.concat " | " (List.map fd_to_string fs) ^ ")"

let rec eval_fd a = function
  | FTrue -> true
  | FFalse -> false
  | FVar v -> a v
  | FAnd fs -> List.for_all (eval_fd a) fs
  | FOr fs -> List.exists (eval_fd a) fs

let rec build store = function
  | FTrue -> F.tru store
  | FFalse -> F.fls store
  | FVar v -> F.var store v
  | FAnd fs -> F.and_ store (List.map (build store) fs)
  | FOr fs -> F.or_ store (List.map (build store) fs)

let gen_fd nvars =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (8, map (fun v -> FVar v) (int_range 0 (nvars - 1)));
        (1, return FTrue); (1, return FFalse) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (3, map (fun l -> FAnd l) (list_size (int_range 2 3) (self (depth - 1))));
            (3, map (fun l -> FOr l) (list_size (int_range 2 3) (self (depth - 1)))) ])
    3

(* (number of players, formula over them) *)
let arb_inst lo hi =
  QCheck.make
    ~print:(fun (n, f) -> Printf.sprintf "n=%d %s" n (fd_to_string f))
    QCheck.Gen.(int_range lo hi >>= fun n -> map (fun f -> (n, f)) (gen_fd n))

(* Formulas built from variable-disjoint parts: a variable range splits
   at a random cut into two sub-ranges whose formulas are joined by AND
   or OR (nested splits flatten into wider nodes); a range that stops
   splitting holds a random formula over its own variables. Every split
   is an independent AND/OR the compiler decomposes, and the leaves
   still exercise Shannon expansion. *)
let gen_disjoint_fd nvars =
  let open QCheck.Gen in
  let rec shift lo = function
    | FVar v -> FVar (v + lo)
    | FAnd fs -> FAnd (List.map (shift lo) fs)
    | FOr fs -> FOr (List.map (shift lo) fs)
    | (FTrue | FFalse) as c -> c
  in
  let rec over lo hi depth =
    if hi - lo = 1 then return (FVar lo)
    else
      let leaf = map (shift lo) (gen_fd (hi - lo)) in
      if depth = 0 then leaf
      else
        frequency
          [ (1, leaf);
            ( 3,
              int_range (lo + 1) (hi - 1) >>= fun cut ->
              map3
                (fun conj l r -> if conj then FAnd [ l; r ] else FOr [ l; r ])
                bool (over lo cut (depth - 1)) (over cut hi (depth - 1)) ) ]
  in
  over 0 nvars 4

let arb_disjoint lo hi =
  QCheck.make
    ~print:(fun (n, f) -> Printf.sprintf "n=%d %s" n (fd_to_string f))
    QCheck.Gen.(int_range lo hi >>= fun n -> map (fun f -> (n, f)) (gen_disjoint_fd n))

let popcount mask =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 mask

let mem mask v = mask land (1 lsl v) <> 0

(* Per-size satisfying-subset counts of [fd] over n variables, by
   enumerating all 2^n assignments. *)
let brute_counts n fd =
  let counts = Array.make (n + 1) 0 in
  for mask = 0 to (1 lsl n) - 1 do
    if eval_fd (mem mask) fd then
      counts.(popcount mask) <- counts.(popcount mask) + 1
  done;
  counts

(* The definition of the score of player [p] in the n-player Boolean
   game u(S) = 1[fd(S)], as a subset sum: Shapley weighs a coalition of
   size s by s!(n−s−1)!/n! (the permutation definition), Banzhaf every
   coalition by 1/2ⁿ⁻¹. *)
let brute_score score n fd p =
  let fact k =
    let r = ref 1 in
    for i = 2 to k do r := !r * i done;
    !r
  in
  let weight s =
    match score with
    | Score.Shapley -> Q.of_ints (fact s * fact (n - 1 - s)) (fact n)
    | Score.Banzhaf -> Q.of_ints 1 (1 lsl (n - 1))
  in
  let total = ref Q.zero in
  for mask = 0 to (1 lsl n) - 1 do
    if not (mem mask p) then begin
      let u0 = eval_fd (mem mask) fd in
      let u1 = eval_fd (mem (mask lor (1 lsl p))) fd in
      if u1 <> u0 then begin
        let w = weight (popcount mask) in
        total := (if u1 then Q.add !total w else Q.sub !total w)
      end
    end
  done;
  !total

(* The slice of [p] over the ground set [ground] (a variable list
   containing it), by enumeration: Δ_p(k) is the number of size-k
   coalitions of the other ground variables that [p] turns from losing
   to winning, minus those it turns the other way. Variables outside
   [ground] are absent. *)
let brute_slice ground fd p =
  let others = Array.of_list (List.filter (fun v -> v <> p) ground) in
  let m = Array.length others in
  let slice = Array.make (m + 1) 0 in
  for mask = 0 to (1 lsl m) - 1 do
    let member b v =
      v = p && b
      || (let rec go i = i < m && ((others.(i) = v && mem mask i) || go (i + 1)) in
          go 0)
    in
    let d = Bool.to_int (eval_fd (member true) fd) - Bool.to_int (eval_fd (member false) fd) in
    slice.(popcount mask) <- slice.(popcount mask) + d
  done;
  slice

(* A circuit's score for every player of an n-player ground set, from
   its slices over its own variables; players outside them score 0. *)
let circuit_scores score mgr ~n c =
  let values = Array.make n Q.zero in
  let s = D.size c in
  List.iter
    (fun (p, slice) -> values.(p) <- Score.finish score ~den:B.one ~n:s (Array.get slice))
    (D.slices mgr c);
  values

let arb_score =
  QCheck.make
    ~print:(function Score.Shapley -> "shapley" | Score.Banzhaf -> "banzhaf")
    (QCheck.Gen.oneofl [ Score.Shapley; Score.Banzhaf ])

(* ------------------------------------------------------------------ *)
(* Formula layer                                                       *)
(* ------------------------------------------------------------------ *)

let formula_props =
  [ prop "interning: equal descriptions share one id" 300 (arb_inst 1 8)
      (fun (_, fd) ->
        let store = F.create_store () in
        F.id (build store fd) = F.id (build store fd));
    prop "eval agrees with the pure description" 300 (arb_inst 1 10)
      (fun (n, fd) ->
        let store = F.create_store () in
        let f = build store fd in
        let ok = ref true in
        for mask = 0 to (1 lsl n) - 1 do
          if F.eval f (mem mask) <> eval_fd (mem mask) fd then ok := false
        done;
        !ok);
    prop "cofactor is the semantic cofactor" 300 (arb_inst 1 8)
      (fun (n, fd) ->
        let store = F.create_store () in
        let f = build store fd in
        let ok = ref true in
        for v = 0 to n - 1 do
          List.iter
            (fun b ->
              let g = F.cond store f v b in
              if List.mem v (F.vars g) then ok := false;
              for mask = 0 to (1 lsl n) - 1 do
                let a u = if u = v then b else mem mask u in
                if F.eval g (mem mask) <> F.eval f a then ok := false
              done)
            [ true; false ]
        done;
        !ok);
    prop "vars covers the semantic support" 300 (arb_inst 1 8)
      (fun (n, fd) ->
        let store = F.create_store () in
        let f = build store fd in
        let depends v =
          let flips = ref false in
          for mask = 0 to (1 lsl n) - 1 do
            let a0 u = if u = v then false else mem mask u in
            let a1 u = if u = v then true else mem mask u in
            if F.eval f a0 <> F.eval f a1 then flips := true
          done;
          !flips
        in
        (* Simplification may keep a var the semantics ignores (e.g. a
           subsumed minterm's partner), but never drop one it needs. *)
        List.for_all (fun v -> List.mem v (F.vars f)) (List.filter depends (List.init n Fun.id)));
  ]

(* ------------------------------------------------------------------ *)
(* d-DNNF compiler                                                     *)
(* ------------------------------------------------------------------ *)

(* Structural d-DNNF invariants, checked over the whole DAG: a decision
   variable occurs in neither child (decomposability — determinism is
   by the ⟨v,hi,lo⟩ shape), an AND/OR node's two or more parts are
   pairwise variable-disjoint, and every node's recorded support is
   exactly its children's supports (plus a decision's variable). *)
let rec circuit_wellformed seen node =
  match node with
  | D.True | D.False -> true
  | _ when Hashtbl.mem seen (D.node_id node) -> true
  | D.Decision { id; var; hi; lo; _ } ->
    Hashtbl.add seen id ();
    (not (F.ISet.mem var (D.node_vars hi)))
    && (not (F.ISet.mem var (D.node_vars lo)))
    && F.ISet.equal (D.node_vars node)
         (F.ISet.add var (F.ISet.union (D.node_vars hi) (D.node_vars lo)))
    && circuit_wellformed seen hi
    && circuit_wellformed seen lo
  | D.And { id; parts; _ } | D.Or { id; parts; _ } ->
    Hashtbl.add seen id ();
    let rec disjoint = function
      | [] -> true
      | p :: rest ->
        List.for_all (fun q -> F.ISet.disjoint (D.node_vars p) (D.node_vars q)) rest
        && disjoint rest
    in
    List.length parts >= 2
    && disjoint parts
    && F.ISet.equal (D.node_vars node)
         (List.fold_left (fun acc p -> F.ISet.union acc (D.node_vars p)) F.ISet.empty parts)
    && List.for_all (circuit_wellformed seen) parts

let ddnnf_props ?(label = "") arb =
  let prop name = prop (label ^ name) in
  [ prop "model counts match brute force (≤10 vars)" 300 (arb 1 10)
      (fun (n, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let counts = D.model_counts mgr ~n c in
        let expected = brute_counts n fd in
        Array.length counts = n + 1
        && Array.for_all2 (fun b e -> B.equal b (B.of_int e)) counts expected);
    prop "model counts match brute force (≤16 vars)" 40 (arb 11 16)
      (fun (n, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let counts = D.model_counts mgr ~n c in
        let expected = brute_counts n fd in
        Array.for_all2 (fun b e -> B.equal b (B.of_int e)) counts expected);
    prop "circuits are decomposable with exact supports" 300 (arb 1 10)
      (fun (_, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        circuit_wellformed (Hashtbl.create 16) (D.compile mgr (build store fd)));
    prop "slices match brute force" 200 (arb 1 8)
      (fun (_, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let ground = F.ISet.elements (D.node_vars c) in
        let s = List.length ground in
        let slices = D.slices mgr c in
        List.map fst slices = ground
        && List.for_all
             (fun (p, slice) ->
               let expected = brute_slice ground fd p in
               Array.length slice = s
               && Array.for_all2 (fun b e -> B.equal b (B.of_int e)) slice expected)
             slices);
    (* Two players beyond the formula's range widen the ground set, so
       the null players' zero is checked too. *)
    prop "shapley_diff matches the permutation definition" 200
      (QCheck.pair arb_score (arb 1 7))
      (fun (score, (n, fd)) ->
        let n = n + 2 in
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let values = circuit_scores score mgr ~n c in
        List.for_all
          (fun p -> Q.equal values.(p) (brute_score score n fd p))
          (List.init n Fun.id));
    prop "circuit Shapley satisfies efficiency" 200 (arb 1 8)
      (fun (n, fd) ->
        let store = F.create_store () in
        let mgr = D.create store in
        let c = D.compile mgr (build store fd) in
        let total = Array.fold_left Q.add Q.zero (circuit_scores Score.Shapley mgr ~n c) in
        let grand = eval_fd (fun _ -> true) fd and empty = eval_fd (fun _ -> false) fd in
        let expected =
          Q.sub (if grand then Q.one else Q.zero) (if empty then Q.one else Q.zero)
        in
        Q.equal total expected);
    prop "cache off is semantically identical" 200
      (QCheck.pair arb_score (arb 1 9))
      (fun (score, (n, fd)) ->
        let store = F.create_store () in
        let cached = D.create ~cache:true store in
        let uncached = D.create ~cache:false store in
        let c1 = D.compile cached (build store fd) in
        let c2 = D.compile uncached (build store fd) in
        let m1 = D.model_counts cached ~n c1 in
        let m2 = D.model_counts uncached ~n c2 in
        Array.for_all2 B.equal m1 m2
        && Array.for_all2 Q.equal
             (circuit_scores score cached ~n c1)
             (circuit_scores score uncached ~n c2));
  ]

(* E20's RST family, Q() <- R(x), T(x,y), S(y) over m R-, S- and
   matching T-facts plus two cross edges: n = 3m + 2 endogenous facts
   and one Boolean lineage. Branching in the lineage's first-appearance
   order compiles it to n + 3 decision nodes at m = 12; id order, which
   decides every R fact before any T fact, needs 77,566. *)
let rst_db m =
  let db = ref Database.empty in
  let add rel args = db := Database.add (Aggshap_relational.Fact.of_ints rel args) !db in
  for i = 0 to m - 1 do
    add "R" [ i ];
    add "S" [ i ];
    add "T" [ i; i ]
  done;
  for i = 0 to min 1 (m - 1) do
    add "T" [ i; (i + 1) mod m ]
  done;
  !db

let ddnnf_order_tests =
  [ Alcotest.test_case "RST lineage at m = 12 compiles to at most 100 nodes" `Quick
      (fun () ->
        let a =
          Agg_query.make Aggshap_agg.Aggregate.Count
            (Aggshap_agg.Value_fn.const ~rel:"R" Q.one)
            (Aggshap_cq.Parser.parse_query_exn "Q() <- R(x), T(x, y), S(y)")
        in
        let ext = L.extract a (rst_db 12) in
        let lin =
          match ext.L.answers with
          | [ (_, lin) ] -> lin
          | _ -> Alcotest.fail "a Boolean query has one answer"
        in
        let mgr = D.create ext.L.store in
        let c = D.compile mgr lin in
        Alcotest.(check int) "every fact is a variable" 38 (D.size c);
        let nodes = D.node_count mgr in
        if nodes > 100 then Alcotest.failf "%d decision nodes, bound 100" nodes);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: lineage pipeline vs naive enumeration                   *)
(* ------------------------------------------------------------------ *)

(* Random oracle trials (the same generator the fuzzer uses): wherever
   the tier applies, Lineage.shapley_all must be exact-rational
   identical to per-fact naive enumeration — inside the frontier
   included. *)
let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let lineage_pipeline_props =
  [ prop "kc equals naive enumeration on random trials" 60 arb_seed (fun seed ->
        let t = Trial.generate ~max_endo:6 ~seed () in
        let a = Trial.agg_query t in
        QCheck.assume (L.supports a.Agg_query.alpha);
        QCheck.assume (Database.endo_size t.Trial.db > 0);
        let kc = L.shapley_all a t.Trial.db in
        let naive =
          List.map (fun f -> (f, Naive.shapley a t.Trial.db f))
            (Database.endogenous t.Trial.db)
        in
        List.length kc = List.length naive
        && List.for_all2
             (fun (f1, v1) (f2, v2) ->
               Aggshap_relational.Fact.equal f1 f2 && Q.equal v1 v2)
             kc naive);
    prop "solver dispatch agrees with direct pipeline" 40 arb_seed (fun seed ->
        let t = Trial.generate ~max_endo:6 ~seed () in
        let a = Trial.agg_query t in
        QCheck.assume (not (Solver.within_frontier a.Agg_query.alpha a.Agg_query.query));
        QCheck.assume (L.supports a.Agg_query.alpha);
        QCheck.assume (Database.endo_size t.Trial.db > 0);
        let direct = L.shapley_all a t.Trial.db in
        let dispatched =
          fst (Solver.shapley_all ~fallback:`Knowledge_compilation ~jobs:1 a t.Trial.db)
          |> List.map (fun (f, o) ->
                 match o with
                 | Solver.Exact v -> (f, v)
                 | Solver.Estimate _ -> Alcotest.fail "unexpected estimate")
        in
        List.for_all2
          (fun (f1, v1) (f2, v2) -> Aggshap_relational.Fact.equal f1 f2 && Q.equal v1 v2)
          direct dispatched);
  ]

(* ------------------------------------------------------------------ *)
(* The compiled tier on the counting kernel                            *)
(* ------------------------------------------------------------------ *)

let db_of facts =
  List.fold_left
    (fun db (rel, args) -> Database.add (Aggshap_relational.Fact.of_ints rel args) db)
    Database.empty facts

let rst = Aggshap_cq.Parser.parse_query_exn "Q() <- R(x), T(x, y), S(y)"
let rst_x = Aggshap_cq.Parser.parse_query_exn "Q(x) <- R(x), T(x, y), S(y)"

let same_values kc naive =
  List.length kc = List.length naive
  && List.for_all2
       (fun (f1, v1) (f2, v2) -> Aggshap_relational.Fact.equal f1 f2 && Q.equal v1 v2)
       kc naive

(* The circuits count with the DPs' kernel, so an off-by-one armed in
   its convolution corrupts forced knowledge compilation; naive
   enumeration over the legacy evaluator convolves nothing. *)
let test_convolve_fault_reaches_kc () =
  let module Fault = Aggshap_arith.Fault in
  let a =
    Agg_query.make Aggshap_agg.Aggregate.Count
      (Aggshap_agg.Value_fn.const ~rel:"R" Q.one) rst
  in
  let db =
    db_of
      [ ("R", [ 1 ]); ("R", [ 2 ]); ("R", [ 3 ]); ("S", [ 1 ]); ("S", [ 2 ]);
        ("T", [ 1; 1 ]); ("T", [ 2; 1 ]); ("T", [ 2; 2 ]); ("T", [ 3; 2 ]) ]
  in
  let naive = Naive.shapley_all ~visit:Aggshap_cq.Eval.Legacy.visit_homomorphisms a db in
  assert (!Fault.current = `None);
  Fault.current := `Convolve_off_by_one;
  let faulty =
    Fun.protect ~finally:(fun () -> Fault.current := `None) (fun () -> L.shapley_all a db)
  in
  Alcotest.(check bool) "disagrees under the fault" false (same_values faulty naive);
  Alcotest.(check bool) "agrees once cleared" true (same_values (L.shapley_all a db) naive)

(* Min's events are Max's over negated τ-values: values of both signs
   (and a zero) must come out as naive enumeration's, outside the
   frontier. *)
let test_kc_min_both_signs () =
  let a =
    Agg_query.make Aggshap_agg.Aggregate.Min
      (Aggshap_agg.Value_fn.id ~rel:"R" ~pos:0) rst_x
  in
  Alcotest.(check bool) "outside the frontier" false
    (Solver.within_frontier a.Agg_query.alpha a.Agg_query.query);
  let db =
    db_of
      [ ("R", [ -2 ]); ("R", [ 0 ]); ("R", [ 3 ]); ("R", [ -5 ]); ("S", [ 1 ]); ("S", [ 2 ]);
        ("T", [ -2; 1 ]); ("T", [ 0; 1 ]); ("T", [ 0; 2 ]); ("T", [ 3; 2 ]); ("T", [ -5; 2 ]) ]
  in
  Alcotest.(check bool) "kc equals naive" true
    (same_values (L.shapley_all a db) (Naive.shapley_all a db))

(* A one-fact solve compiles only the events whose formula mentions the
   fact: it is a null player of the others. *)
let test_one_fact_compiles_its_events () =
  let a =
    Agg_query.make Aggshap_agg.Aggregate.Sum
      (Aggshap_agg.Value_fn.id ~rel:"R" ~pos:0)
      (Aggshap_cq.Parser.parse_query_exn "Q(w) <- R(w, x), T(x, y), S(y)")
  in
  Alcotest.(check bool) "outside the frontier" false
    (Solver.within_frontier a.Agg_query.alpha a.Agg_query.query);
  let db =
    db_of
      [ ("R", [ 1; 1 ]); ("R", [ 2; 1 ]); ("R", [ 3; 2 ]); ("T", [ 1; 1 ]); ("T", [ 1; 2 ]);
        ("T", [ 2; 2 ]); ("S", [ 1 ]); ("S", [ 2 ]) ]
  in
  let f = Aggshap_relational.Fact.of_ints "S" [ 1 ] in
  let ext = L.extract a db in
  let p =
    match List.find_index (Aggshap_relational.Fact.equal f) (Array.to_list ext.L.players) with
    | Some p -> p
    | None -> Alcotest.fail "S(1) is a player"
  in
  let evs = L.events a.Agg_query.alpha ext.L.store ext.L.answers in
  let mentioning = List.filter (fun (_, fml) -> F.ISet.mem p (F.var_set fml)) evs in
  Alcotest.(check int) "three answers, three events" 3 (List.length evs);
  Alcotest.(check int) "two of them mention S(1)" 2 (List.length mentioning);
  D.reset_stats ();
  let v = L.shapley a db f in
  Alcotest.(check int) "one circuit per mentioning event" (List.length mentioning)
    (D.stats ()).D.compiles;
  Alcotest.(check string) "the fact's entry of shapley_all"
    (Q.to_string (List.assoc f (L.shapley_all a db)))
    (Q.to_string v)

let kernel_tests =
  [ Alcotest.test_case "convolution faults reach the compiled tier" `Quick
      test_convolve_fault_reaches_kc;
    Alcotest.test_case "kc min with values of both signs equals naive" `Quick
      test_kc_min_both_signs;
    Alcotest.test_case "a one-fact solve compiles only its events" `Quick
      test_one_fact_compiles_its_events;
  ]

let () =
  Alcotest.run "lineage"
    [ ("formula", formula_props);
      ("ddnnf", ddnnf_props arb_inst);
      ("ddnnf disjoint parts", ddnnf_props ~label:"disjoint parts: " arb_disjoint);
      ("ddnnf order", ddnnf_order_tests);
      ("pipeline", lineage_pipeline_props);
      ("counting kernel", kernel_tests);
    ]
