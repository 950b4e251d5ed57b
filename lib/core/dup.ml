module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Decompose = Aggshap_cq.Decompose
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact

module TupleMap = Map.Make (struct
  type t = Aggshap_relational.Value.t array

  let compare = Aggshap_relational.Value.compare_tuple
end)

module QMap = Map.Make (Q)

(* In a connected sq-hierarchical CQ every free variable occurs in every
   atom, so a fact determines the answer tuple it can contribute to. *)
let head_tuple_of_fact q (f : Fact.t) =
  match Cq.find_atom q f.rel with
  | None -> None
  | Some atom ->
    if not (Decompose.matches atom [] f) then None
    else begin
      let position x =
        let found = ref (-1) in
        Array.iteri
          (fun i t -> match t with
             | Cq.Var y when String.equal y x && !found < 0 -> found := i
             | _ -> ())
          atom.Cq.terms;
        if !found < 0 then
          invalid_arg
            (Printf.sprintf
               "Dup: free variable %s missing from atom %s (query not connected \
                sq-hierarchical)"
               x f.rel)
        else !found
      in
      Some (Array.of_list (List.map (fun x -> f.args.(position x)) q.Cq.head))
    end

(* Counts of k-subsets with at most one answer. Only rows 0 and 1 are
   read, so the answer-count DP lumps every ℓ ≥ 2 together ([~cap:2]):
   the rows it reads are exact (see {!Count_dp.answer_counts}). *)
let at_most_one_of t = Tables.add (Count_dp.get t 0) (Count_dp.get t 1)
let at_most_one q db = at_most_one_of (Count_dp.answer_counts ~cap:2 q db)

(* Figure 5, for a connected sq-hierarchical CQ containing the
   τ-relation: the bag is duplicate-free iff every τ-value class of
   facts yields at most one answer. Groups the facts by the τ-value of
   the answer they can contribute to, in value order; the facts in no
   class (their answer is not one of the query's) are null players. *)
let classes tau q db =
  let aq = Agg_query.make Aggregate.Has_duplicates tau q in
  let answer_values =
    List.fold_left
      (fun acc (t, v) -> TupleMap.add t v acc)
      TupleMap.empty
      (Agg_query.answer_values aq db)
  in
  let classes, outside =
    Database.fold
      (fun f p (classes, outside) ->
        match head_tuple_of_fact q f with
        | Some t when TupleMap.mem t answer_values ->
          let v = TupleMap.find t answer_values in
          let cls = Option.value (QMap.find_opt v classes) ~default:Database.empty in
          (QMap.add v (Database.add ~provenance:p f cls) classes, outside)
        | Some _ | None -> (classes, Database.add ~provenance:p f outside))
      db
      (QMap.empty, Database.empty)
  in
  (List.map snd (QMap.bindings classes), outside)

(* NoDup counts, complemented. *)
let connected_dup_counts tau q db =
  let classes, outside = classes tau q db in
  let nodup = Tables.convolve_many (List.rev_map (at_most_one q) classes) in
  Tables.sub (Tables.full (Database.endo_size db))
    (Tables.pad (Database.endo_size outside) nodup)

(* The variant pass of Figure 5: a fact changes only its own class, so
   its NoDup counts are the product of the other classes' at-most-one
   counts ({!Engine.leave_one_out}) with its class's variants from
   {!Count_dp.variants}. Returns the facts in no class and, per class,
   the product of the others with the class's answer-count variants. *)
let connected_split tau q db =
  let classes, outside = classes tau q db in
  let parts = List.map (Count_dp.variants ~cap:2 q) classes in
  let others, _ =
    Engine.leave_one_out ~unit:[| B.one |] ~op:Tables.convolve
      (Array.of_list (List.map (fun (t, _) -> at_most_one_of t) parts))
  in
  (outside, List.mapi (fun i (_, vs) -> (others.(i), vs)) parts)

(* The Figure-2 template instantiated with Dup counts. The connected
   case is resolved whole (Figure 5, via [connected_leaf]); only the
   cross-product step of Appendix E.2.3 decomposes, with the τ-relation
   in the connected component [q1]. The context is τ. *)
module Alg = struct
  type table = Tables.counts
  type ctx = Value_fn.t

  let leaf _ _ _ = None
  let connected_leaf tau q db = Some (fun () -> connected_dup_counts tau q db)

  let empty _ _ = invalid_arg "Dup: τ-relation vanished from the query"

  (* Every connected sub-query resolves in [connected_leaf], so the
     engine never reaches the root-partition step for this algebra. *)
  let root_mode = `Any_root
  let root_error = "Dup: query is not sq-hierarchical: "
  let merge _ ~root:_ _ = assert false
  let union _ _ _ = assert false

  (* The table of the empty database: no subset has duplicates. *)
  let neutral = [| B.zero |]

  let combine tau q db comps =
    let rel = tau.Value_fn.rel in
    match List.find_opt (fun (c, _, _) -> List.mem rel (Cq.relations c)) comps with
    | None -> invalid_arg "Dup: τ-relation must occur in the query"
    | Some ((q1, _, dup1_table) as entry1) ->
      let other_rels =
        List.concat_map
          (fun (c, _, _) -> Cq.relations c)
          (List.filter (fun e -> e != entry1) comps)
      in
      let q2 = Cq.restrict_to_relations q other_rels in
      let db1, _ = Database.restrict_relations (Cq.relations q1) db in
      let db2, _ = Database.restrict_relations other_rels db in
      let n1 = Database.endo_size db1 and n2 = Database.endo_size db2 in
      let t1 = Count_dp.answer_counts ~cap:2 q1 db1 in
      let t2 = Count_dp.answer_counts ~cap:2 q2 db2 in
      let nonempty1 = Tables.sub (Tables.full n1) (Count_dp.get t1 0) in
      let many2 =
        Tables.sub (Tables.full n2) (Tables.add (Count_dp.get t2 0) (Count_dp.get t2 1))
      in
      let dup1 = dup1_table () in
      Tables.add
        (Tables.convolve nonempty1 many2)
        (Tables.convolve dup1 (Count_dp.get t2 1))

  let pad _ p t = Tables.pad p t
  let diff = Tables.variant_diff

  (* Only a cross product nests a connected component under the root;
     its facts re-evaluate Figure 5 on their removal databases. *)
  let leaf_removals tau q db _ = Engine.each_removal db (connected_dup_counts tau q)
end

module E = Engine.Pass (Alg)

let check (a : Agg_query.t) =
  if a.alpha <> Aggregate.Has_duplicates then
    invalid_arg
      ("Dup: aggregate " ^ Aggregate.to_string a.alpha ^ " is not has-duplicates");
  if not (Hierarchy.is_sq_hierarchical a.query) then
    invalid_arg ("Dup: query is not sq-hierarchical: " ^ Cq.to_string a.query)

let sum_k (a : Agg_query.t) db =
  check a;
  Tables.to_rationals (E.eval_top a.tau a.query db)

let shapley ?(score = Aggshap_arith.Score.Shapley) a db f =
  Sumk.score_of_db_fn ~score (fun db -> sum_k a db) db f

(* All facts from one variant pass. For a connected query the read-out
   follows Figure 5: a fact's slice is its class's at-most-one
   difference times the product of the other classes, padded, with the
   sign flipped (Dup = 1 − NoDup); a cross product takes whole-query
   variants from the engine (its root is never a partition, so the
   context is always [neutral]). *)
let batch ?(score = Aggshap_arith.Score.Shapley) (a : Agg_query.t) db =
  check a;
  let n = Database.endo_size db in
  let finish (v : _ Engine.variant) slice =
    (v.fact, Aggshap_arith.Score.finish score ~den:B.one ~n (fun k -> slice.(k)))
  in
  Sumk.in_order db
    (match Decompose.connected_components a.query with
     | [ _ ] ->
       let db_rel, irrelevant = Decompose.relevant_part a.query db in
       let outside, groups = connected_split a.tau a.query db_rel in
       let pad = irrelevant + Database.endo_size outside in
       List.concat_map
         (fun (others, vs) ->
           let kernel = Array.map B.neg (Tables.pad pad others) in
           List.map
             (fun (v : _ Engine.variant) ->
               finish v (Tables.convolve kernel (at_most_one_of v.diff)))
             vs)
         groups
     | _ ->
       let s = E.split a.tau a.query db in
       List.concat_map
         (fun (_, vs) ->
           List.map
             (fun (v : _ Engine.variant) -> finish v (Tables.pad s.Engine.pad v.diff))
             vs)
         s.Engine.groups)

let shapley_all a db = Sumk.shapley_all_of sum_k a db
