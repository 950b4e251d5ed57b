(* Lineage explorer: knowledge compilation for membership games
   (Remark 4.5).

   The Boolean lineage of a hierarchical CQ is read-once: it factorizes
   into independent ⊗ (and) and ⊕ (or) nodes over disjoint facts. This
   example extracts the lineage of the minimal interesting query on a
   small database, compiles it to a d-DNNF whose AND/OR nodes are
   exactly those ⊗ and ⊕, prints the circuit and its size, and reads
   every fact's Shapley value off one counting pass over it. *)

module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Parser = Aggshap_cq.Parser
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Aggregate = Aggshap_agg.Aggregate
module Agg_query = Aggshap_agg.Agg_query
module Value_fn = Aggshap_agg.Value_fn
module Ddnnf = Aggshap_lineage.Ddnnf
module Lineage = Aggshap_lineage.Lineage

let query = Parser.parse_query_exn "Q() <- R(x, y), S(y)"

let database =
  Database.of_list
    [ (Fact.of_ints "R" [ 1; 10 ], Database.Endogenous);
      (Fact.of_ints "R" [ 2; 10 ], Database.Endogenous);
      (Fact.of_ints "R" [ 3; 20 ], Database.Endogenous);
      (Fact.of_ints "R" [ 4; 99 ], Database.Endogenous) (* joins with nothing *);
      (Fact.of_ints "S" [ 10 ], Database.Endogenous);
      (Fact.of_ints "S" [ 20 ], Database.Exogenous);
    ]

(* The circuit as nested text. A decision ⟨v, ⊤, ⊥⟩ is the literal v
   and prints as its fact; any other decision prints as v ? hi : lo. *)
let rec pp players fmt node =
  let parts sep ps =
    Format.fprintf fmt "(@[<hov>%a@])"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " %s@ " sep)
         (pp players))
      ps
  in
  match node with
  | Ddnnf.True -> Format.pp_print_string fmt "⊤"
  | Ddnnf.False -> Format.pp_print_string fmt "⊥"
  | Ddnnf.Decision { var; hi = Ddnnf.True; lo = Ddnnf.False; _ } -> Fact.pp fmt players.(var)
  | Ddnnf.Decision { var; hi; lo; _ } ->
    Format.fprintf fmt "(@[<hov>%a ?@ %a :@ %a@])" Fact.pp players.(var) (pp players) hi
      (pp players) lo
  | Ddnnf.And { parts = ps; _ } -> parts "⊗" ps
  | Ddnnf.Or { parts = ps; _ } -> parts "⊕" ps

let () =
  Printf.printf "Query (as Boolean): %s\n" (Cq.to_string query);
  Printf.printf "Database: %d facts (%d endogenous)\n\n" (Database.size database)
    (Database.endo_size database);

  (* The membership game is Count over the Boolean query with a
     constant τ: one answer, whose lineage is the game's event. *)
  let a = Agg_query.make Aggregate.Count (Value_fn.const ~rel:"R" Q.one) query in
  let ext = Lineage.extract a database in
  let lineage =
    match ext.Lineage.answers with
    | [ (_, lineage) ] -> lineage
    | _ -> failwith "a satisfiable Boolean query has one answer"
  in
  let mgr = Ddnnf.create ext.Lineage.store in
  let circuit = Ddnnf.compile mgr lineage in
  Format.printf "Compiled lineage:@.  %a@.@." (pp ext.Lineage.players) circuit;
  Printf.printf "circuit: %d nodes over %d of the %d endogenous facts\n\n"
    (Ddnnf.node_count mgr) (Ddnnf.size circuit) (Database.endo_size database);

  (* The fact R(4,99) joins with nothing: it does not even appear in the
     lineage, and its Shapley value is 0 (null player). *)
  Printf.printf "Shapley values of the membership game, by knowledge compilation:\n";
  List.iter
    (fun (f, v) ->
      let cross = Aggshap_core.Boolean_dp.shapley query database f in
      assert (Q.equal v cross);
      Printf.printf "  %-12s %8s (~ %.4f)\n" (Fact.to_string f) (Q.to_string v)
        (Q.to_float v))
    (Lineage.shapley_all a database);

  (* Satisfying-subset counts by coalition size — the sum_k view. *)
  let counts =
    Ddnnf.model_counts mgr ~n:(Database.endo_size database) circuit
  in
  Printf.printf "\nsatisfying k-subsets: ";
  Array.iteri
    (fun k c -> Printf.printf "%s%d:%s" (if k > 0 then ", " else "") k
        (Aggshap_arith.Bigint.to_string c))
    counts;
  print_newline ()
