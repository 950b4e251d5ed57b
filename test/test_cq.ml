(* Tests for the CQ front-end: parser, classification (the Figure 1
   catalog), evaluation, and decomposition. *)

module Cq = Aggshap_cq.Cq
module Parser = Aggshap_cq.Parser
module Hierarchy = Aggshap_cq.Hierarchy
module Eval = Aggshap_cq.Eval
module Decompose = Aggshap_cq.Decompose
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Value = Aggshap_relational.Value
module Catalog = Aggshap_workload.Catalog

let parse = Parser.parse_query_exn

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_roundtrip () =
  let cases =
    [ "Q(x) <- R(x)";
      "Q(x, z) <- R(x, y), S(y), T(z)";
      "Q() <- R(x), S(x, y)";
      "Q(p, s) <- Earns(p, s), Took(p, c), Course(n, c)";
    ]
  in
  List.iter (fun s -> Alcotest.(check string) s s (Cq.to_string (parse s))) cases

let test_parser_features () =
  let q = parse "Q(x) <- R(x, 3), S(x, 'alice')" in
  Alcotest.(check (list string)) "vars" [ "x" ] (Cq.vars q);
  let q2 = parse "Q(x) <- R(x, _), S(_)" in
  Alcotest.(check int) "anonymous vars are fresh" 3 (List.length (Cq.vars q2));
  let q3 = parse "Q(x) :- R(x)." in
  Alcotest.(check string) "alternative syntax" "Q(x) <- R(x)" (Cq.to_string q3)

let test_parser_errors () =
  let fails s =
    match Parser.parse_query s with
    | Ok _ -> Alcotest.failf "expected parse failure for %s" s
    | Error _ -> ()
  in
  fails "Q(x <- R(x)";
  fails "Q(x) <- R(x,y), R(y,z)" (* self-join *);
  fails "Q(z) <- R(x)" (* head variable not in body *);
  fails "Q(x, x) <- R(x)" (* duplicate head variable *);
  fails "Q(3) <- R(x)" (* constant in head *);
  fails ""

let test_parse_database () =
  let text = "# comment\nR(1, 2)\nR(1, 3) @exo\n\nS('a') @endo\n" in
  match Parser.parse_database text with
  | Error msg -> Alcotest.failf "parse_database: %s" msg
  | Ok db ->
    Alcotest.(check int) "size" 3 (Database.size db);
    Alcotest.(check int) "endo" 2 (Database.endo_size db);
    Alcotest.(check bool) "string constant" true
      (Database.mem (Fact.make "S" [ Value.Str "a" ]) db)

(* ------------------------------------------------------------------ *)
(* Structure and classification                                        *)
(* ------------------------------------------------------------------ *)

let test_vars_and_atoms () =
  let q = Catalog.q_xyy in
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Cq.vars q);
  Alcotest.(check (list string)) "free" [ "x" ] (Cq.free_vars q);
  Alcotest.(check (list string)) "existential" [ "y" ] (Cq.exist_vars q);
  Alcotest.(check (list string)) "atoms of x" [ "R" ] (Cq.atoms_of q "x");
  Alcotest.(check (list string)) "atoms of y" [ "R"; "S" ] (Cq.atoms_of q "y");
  Alcotest.(check bool) "boolean" false (Cq.is_boolean q);
  Alcotest.(check bool) "boolean after make_boolean" true
    (Cq.is_boolean (Cq.make_boolean q))

let test_classification_catalog () =
  List.iter
    (fun (name, q, expected) ->
      Alcotest.(check string) name
        (Hierarchy.cls_to_string expected)
        (Hierarchy.cls_to_string (Hierarchy.classify q)))
    Catalog.figure1

let test_classification_entailments () =
  (* sq ⇒ q ⇒ all ⇒ ∃, on every catalog query. *)
  List.iter
    (fun (name, q, _) ->
      let sq = Hierarchy.is_sq_hierarchical q in
      let qh = Hierarchy.is_q_hierarchical q in
      let ah = Hierarchy.is_all_hierarchical q in
      let eh = Hierarchy.is_exists_hierarchical q in
      Alcotest.(check bool) (name ^ ": sq => q") true ((not sq) || qh);
      Alcotest.(check bool) (name ^ ": q => all") true ((not qh) || ah);
      Alcotest.(check bool) (name ^ ": all => exists") true ((not ah) || eh))
    Catalog.figure1

let test_classification_boolean_coincide () =
  (* Remark 2.1: for Boolean CQs the classes coincide. *)
  List.iter
    (fun (name, q, _) ->
      let b = Cq.make_boolean q in
      let ah = Hierarchy.is_all_hierarchical b in
      Alcotest.(check bool) (name ^ " bool: all=q") ah (Hierarchy.is_q_hierarchical b);
      Alcotest.(check bool) (name ^ " bool: all=sq") ah (Hierarchy.is_sq_hierarchical b);
      Alcotest.(check bool) (name ^ " bool: all=exists") ah
        (Hierarchy.is_exists_hierarchical b))
    Catalog.figure1

let test_course_query_class () =
  (* Example 2.2's query: Q(p,s) <- Earns(p,s), Took(p,c), Course(n,c).
     The atom sets of p ({Earns,Took}) and c ({Took,Course}) overlap
     without nesting, so the query is only ∃-hierarchical — the paper's
     own running example sits beyond the Avg frontier. *)
  Alcotest.(check string) "course query is exists-hierarchical" "exists-hierarchical"
    (Hierarchy.cls_to_string (Hierarchy.classify Catalog.q_course))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let db_xyy =
  Database.of_facts
    [ Fact.of_ints "R" [ 1; 10 ];
      Fact.of_ints "R" [ 1; 11 ];
      Fact.of_ints "R" [ 2; 10 ];
      Fact.of_ints "S" [ 10 ];
      Fact.of_ints "S" [ 12 ];
    ]

let test_eval_answers () =
  let answers = Eval.answers Catalog.q_xyy db_xyy in
  let strings =
    List.map (fun t -> String.concat "," (Array.to_list (Array.map Value.to_string t))) answers
  in
  Alcotest.(check (list string)) "answers" [ "1"; "2" ] strings;
  Alcotest.(check int) "homomorphisms" 2 (List.length (Eval.homomorphisms Catalog.q_xyy db_xyy));
  Alcotest.(check bool) "satisfied" true (Eval.is_satisfied Catalog.q_xyy db_xyy);
  Alcotest.(check bool) "unsatisfied on empty" false
    (Eval.is_satisfied Catalog.q_xyy Database.empty)

let test_eval_constants () =
  let q = parse "Q(y) <- R(1, y), S(y)" in
  let answers = Eval.answers q db_xyy in
  Alcotest.(check int) "constant filter" 1 (List.length answers)

let test_eval_support () =
  let support = Eval.support Catalog.q_xyy db_xyy in
  (* R(1,11) and S(12) join with nothing. *)
  Alcotest.(check int) "support size" 3 (List.length support);
  Alcotest.(check bool) "R(1,11) not in support" false
    (List.exists (Fact.equal (Fact.of_ints "R" [ 1; 11 ])) support)

(* ------------------------------------------------------------------ *)
(* Decomposition                                                       *)
(* ------------------------------------------------------------------ *)

let test_components () =
  let comps = Decompose.connected_components Catalog.q3_sq in
  Alcotest.(check int) "two components" 2 (List.length comps);
  let comps1 = Decompose.connected_components Catalog.q_xyy in
  Alcotest.(check int) "connected query" 1 (List.length comps1);
  (* Heads split with the components. *)
  let heads = List.map (fun c -> String.concat "," c.Cq.head) comps in
  Alcotest.(check (list string)) "heads" [ "x"; "z" ] heads

let test_roots () =
  Alcotest.(check (list string)) "root of q_xyy" [ "y" ]
    (Decompose.root_variables Catalog.q_xyy);
  Alcotest.(check (option string)) "choose_root prefers free" (Some "x")
    (Decompose.choose_root Catalog.q1_sq);
  Alcotest.(check (option string)) "existential root chosen if only one" (Some "y")
    (Decompose.choose_root Catalog.q_xyy);
  Alcotest.(check (option string)) "non-hierarchical: no root" None
    (Decompose.choose_root (parse "Q() <- R(x), S(x, y), T(y)"))

let test_substitute () =
  let q = Cq.substitute Catalog.q_xyy "x" (Value.Int 1) in
  Alcotest.(check string) "substitute head var" "Qxyy() <- R(1, y), S(y)" (Cq.to_string q);
  let q2 = Cq.substitute Catalog.q_xyy "y" (Value.Int 10) in
  Alcotest.(check string) "substitute body var" "Qxyy(x) <- R(x, 10), S(10)"
    (Cq.to_string q2)

let test_partition () =
  let blocks, dropped = Decompose.partition Catalog.q_xyy "y" db_xyy in
  (* Root values of y: values in both R's 2nd column and S's column = {10}. *)
  Alcotest.(check int) "one block" 1 (List.length blocks);
  let _, block = List.hd blocks in
  Alcotest.(check int) "block size" 3 (Database.size block);
  Alcotest.(check int) "dropped" 2 (Database.size dropped)

let test_relevant () =
  let db =
    Database.add (Fact.of_ints "Z" [ 9 ]) db_xyy
    |> Database.add (Fact.of_ints "R" [ 7 ]) (* wrong arity: cannot match *)
    |> Database.add ~provenance:Database.Exogenous (Fact.of_ints "Z" [ 8 ])
  in
  let rel, pad = Decompose.relevant_part Catalog.q_xyy db in
  Alcotest.(check bool) "relevant facts" true (Database.equal rel db_xyy);
  Alcotest.(check int) "pad counts the endogenous irrelevant facts only" 2 pad;
  let all, no_pad = Decompose.relevant_part Catalog.q_xyy db_xyy in
  Alcotest.(check bool) "all relevant: the input itself" true (all == db_xyy);
  Alcotest.(check int) "all relevant: no pad" 0 no_pad

(* ------------------------------------------------------------------ *)
(* Join planner: compilation, and equivalence with the scan evaluator *)
(* ------------------------------------------------------------------ *)

module Plan = Aggshap_cq.Plan
module Generate = Aggshap_workload.Generate

let gen_config =
  { Generate.tuples_per_relation = 14; domain = 5; exo_fraction = 0.3 }

(* The query shapes the planner sees in practice: every Figure-1
   catalog entry plus constant-carrying and cartesian-product bodies. *)
let planner_queries =
  List.map (fun (_, q, _) -> q) Catalog.figure1
  @ [ parse "Q(y) <- R(1, y), S(y)";
      parse "Q(x) <- R(x, 3)";
      parse "Q(x, z) <- R(x, y), S(y), T(z)";
      parse "Q() <- R(x), S(y)";
    ]

(* A database whose secondary indexes were built and then carried
   through updates: evaluate once and build every (relation, position)
   index the query can probe, then apply a seeded add/remove/
   set_provenance sequence, so the planned evaluator and the partition
   read incrementally maintained indexes rather than fresh ones. *)
let maintained_db q seed =
  let db = Generate.random_database ~seed ~config:gen_config q in
  ignore (Eval.answers q db);
  List.iter
    (fun (a : Cq.atom) ->
      Array.iteri (fun pos _ -> ignore (Database.indexed db ~rel:a.Cq.rel ~pos)) a.Cq.terms)
    q.Cq.body;
  let rng = Random.State.make [| seed; 0x1dc5 |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let random_fact () =
    let a = pick q.Cq.body in
    Fact.make a.Cq.rel
      (List.init (Array.length a.Cq.terms) (fun _ ->
           Value.Int (Random.State.int rng gen_config.Generate.domain)))
  in
  let update db _ =
    match (Random.State.int rng 3, Database.facts db) with
    | 0, (_ :: _ as facts) -> Database.remove (pick facts) db
    | 1, (_ :: _ as facts) ->
      let f = pick facts in
      let flipped =
        match Database.provenance db f with
        | Some Database.Endogenous -> Database.Exogenous
        | _ -> Database.Endogenous
      in
      Database.set_provenance flipped f db
    | _ ->
      let provenance = if Random.State.bool rng then Database.Endogenous else Database.Exogenous in
      Database.add ~provenance (random_fact ()) db
  in
  List.fold_left update db (List.init 12 Fun.id)

let planner_dbs q =
  List.map (fun seed -> Generate.random_database ~seed ~config:gen_config q) [ 1; 2; 3 ]
  @ List.map (maintained_db q) [ 4; 5 ]

let sorted_tuples ts =
  List.sort Stdlib.compare
    (List.map (fun t -> Array.to_list (Array.map Value.to_string t)) ts)

let sorted_facts fs = List.sort_uniq Fact.compare fs

(* A homomorphism is determined by the facts it sends the atoms to, so
   the multiset of atom-image lists is an order-insensitive view of the
   full homomorphism set. *)
let hom_multiset q homs =
  List.sort Stdlib.compare
    (List.map
       (fun h -> List.map (fun a -> Fact.to_string (Eval.atom_image a h)) q.Cq.body)
       homs)

let check_evaluators_agree name q db =
  Alcotest.(check (list (list string))) (name ^ ": answers")
    (sorted_tuples (Eval.Legacy.answers q db))
    (sorted_tuples (Eval.answers q db));
  Alcotest.(check bool) (name ^ ": satisfied")
    (Eval.Legacy.is_satisfied q db) (Eval.is_satisfied q db);
  Alcotest.(check (list string)) (name ^ ": support")
    (List.map Fact.to_string (sorted_facts (Eval.Legacy.support q db)))
    (List.map Fact.to_string (sorted_facts (Eval.support q db)));
  Alcotest.(check (list (list string))) (name ^ ": homomorphism multiset")
    (hom_multiset q (Eval.Legacy.homomorphisms q db))
    (hom_multiset q (Eval.homomorphisms q db))

let test_planned_vs_legacy () =
  List.iter
    (fun q ->
      let name = Cq.to_string q in
      List.iter (check_evaluators_agree name q) (planner_dbs q))
    planner_queries

(* Every atom order — including adversarial ones the greedy compiler
   would never pick — enumerates the same homomorphism set. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
      l

let test_adversarial_orders () =
  List.iter
    (fun q ->
      let n = List.length q.Cq.body in
      if n >= 2 && n <= 3 then
        let orders = permutations (List.init n Fun.id) in
        List.iter
          (fun db ->
            let reference = hom_multiset q (Eval.Legacy.homomorphisms q db) in
            List.iter
              (fun order ->
                let plan = Plan.compile ~order q in
                Alcotest.(check (list (list string)))
                  (Cq.to_string q ^ ": order " ^ Plan.to_string plan)
                  reference
                  (hom_multiset q (Eval.Planned.homomorphisms plan db)))
              orders)
          (planner_dbs q))
    planner_queries

let test_plan_shapes () =
  (* Constants are bound before any variable is: the first step of
     Q(y) <- R(1, y), S(y) probes R on its constant. *)
  let p = Plan.compile (parse "Q(y) <- R(1, y), S(y)") in
  (match (List.hd p.Plan.steps).Plan.access with
   | Plan.Probe_const (0, v) ->
     Alcotest.(check string) "probes position 0 with 1" "1" (Value.to_string v)
   | _ -> Alcotest.fail "expected a constant probe on R");
  (* Later steps probe on variables bound by earlier ones. *)
  (match List.map (fun s -> s.Plan.access) p.Plan.steps with
   | [ _; Plan.Probe_var (0, "y") ] -> ()
   | _ -> Alcotest.failf "unexpected plan %s" (Plan.to_string p));
  (* A cartesian product degenerates to scans. *)
  let p2 = Plan.compile (parse "Q() <- R(x), S(y)") in
  Alcotest.(check bool) "cartesian product scans" true
    (List.for_all (fun s -> s.Plan.access = Plan.Scan) p2.Plan.steps);
  Alcotest.check_raises "order must be a permutation"
    (Invalid_argument "Plan.compile: order is not a permutation of the body")
    (fun () -> ignore (Plan.compile ~order:[ 0; 0 ] (parse "Q() <- R(x), S(y)")))

(* The rescanning partition, the reference of the equivalence suite
   below: it shares no index code with [Decompose.partition]. *)
module ValueSet = Set.Make (Value)

let matches = Decompose.matches

(* The value the root variable takes in a fact matching an atom, if any. *)
let root_value_of (a : Cq.atom) x (f : Aggshap_relational.Fact.t) =
  if matches a [] f then begin
    let v = ref None in
    Array.iteri
      (fun i t -> match t with Cq.Var y when String.equal y x && !v = None -> v := Some f.args.(i) | _ -> ())
      a.terms;
    !v
  end
  else None

let root_values q x db =
  let per_atom (a : Cq.atom) =
    List.fold_left
      (fun acc f -> match root_value_of a x f with Some v -> ValueSet.add v acc | None -> acc)
      ValueSet.empty
      (Database.relation db a.rel)
  in
  match q.Cq.body with
  | [] -> []
  | first :: rest ->
    let init = per_atom first in
    let inter = List.fold_left (fun acc a -> ValueSet.inter acc (per_atom a)) init rest in
    ValueSet.elements inter

(* Recompute the root values by scanning every atom's relation, then
   filter the whole database once per value. O(values × |db|). *)
let partition_scan q x db =
  let values = root_values q x db in
  let block a =
    Database.filter
      (fun f _ ->
        List.exists (fun at -> matches at [ (x, a) ] f) q.Cq.body)
      db
  in
  let blocks = List.map (fun a -> (a, block a)) values in
  let in_some_block f =
    List.exists (fun (_, b) -> Database.mem f b) blocks
  in
  let dropped = Database.filter (fun f _ -> not (in_some_block f)) db in
  (blocks, dropped)

(* The indexed partition and the rescanning partition produce identical
   blocks in identical order, on every (catalog query, root, random
   database) combination that has a root at all. *)
let test_partition_equivalence () =
  let check_blocks name (b1, d1) (b2, d2) =
    Alcotest.(check int) (name ^ ": block count") (List.length b1) (List.length b2);
    List.iter2
      (fun (v1, db1) (v2, db2) ->
        Alcotest.(check string) (name ^ ": block value") (Value.to_string v1)
          (Value.to_string v2);
        Alcotest.(check bool) (name ^ ": block equal") true (Database.equal db1 db2))
      b1 b2;
    Alcotest.(check bool) (name ^ ": dropped equal") true (Database.equal d1 d2)
  in
  List.iter
    (fun q ->
      match Decompose.choose_root q with
      | None -> ()
      | Some x ->
        List.iter
          (fun db ->
            let name = Cq.to_string q ^ " by " ^ x in
            check_blocks name (partition_scan q x db) (Decompose.partition q x db))
          (planner_dbs q))
    planner_queries

let () =
  Alcotest.run "cq"
    [ ( "parser",
        [ Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "features" `Quick test_parser_features;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "database" `Quick test_parse_database;
        ] );
      ( "classification",
        [ Alcotest.test_case "vars and atoms" `Quick test_vars_and_atoms;
          Alcotest.test_case "figure 1 catalog" `Quick test_classification_catalog;
          Alcotest.test_case "entailment chain" `Quick test_classification_entailments;
          Alcotest.test_case "boolean classes coincide" `Quick
            test_classification_boolean_coincide;
          Alcotest.test_case "course query" `Quick test_course_query_class;
        ] );
      ( "evaluation",
        [ Alcotest.test_case "answers" `Quick test_eval_answers;
          Alcotest.test_case "constants" `Quick test_eval_constants;
          Alcotest.test_case "support" `Quick test_eval_support;
        ] );
      ( "decomposition",
        [ Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "roots" `Quick test_roots;
          Alcotest.test_case "substitute" `Quick test_substitute;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "relevant" `Quick test_relevant;
        ] );
      ( "join planner",
        [ Alcotest.test_case "planned vs legacy evaluator" `Quick test_planned_vs_legacy;
          Alcotest.test_case "adversarial atom orders" `Quick test_adversarial_orders;
          Alcotest.test_case "plan shapes" `Quick test_plan_shapes;
          Alcotest.test_case "partition equivalence" `Quick test_partition_equivalence;
        ] );
    ]
