module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Decompose = Aggshap_cq.Decompose
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Database = Aggshap_relational.Database
module QMap = Map.Make (Q)

(* P[Q', D'] for sub-queries containing the τ-relation:
   [by_value] maps each realizable maximal τ-value [a] to its per-k
   counts; [empty] counts the subsets with no answer at all. Invariant:
   [empty + Σ_a by_value(a) = full n]. *)
type table = {
  n : int;
  empty : Tables.counts;
  by_value : Tables.counts QMap.t;
}

let neutral = { n = 0; empty = [| B.one |]; by_value = QMap.empty }

let pad_table p t =
  if p = 0 then t
  else
    { n = t.n + p;
      empty = Tables.pad p t.empty;
      by_value = QMap.map (Tables.pad p) t.by_value }

(* Bag-union of two independent sub-databases: the maximum of the union
   is [a] iff one side attains [a] and the other stays at most [a]
   (counting the empty side as "at most anything"). Sweeping values in
   ascending order maintains the ≤a / <a cumulative tables. *)
let combine_union t1 t2 =
  let values =
    QMap.fold (fun a _ acc -> QMap.add a () acc) t1.by_value QMap.empty
    |> QMap.fold (fun a _ acc -> QMap.add a () acc) t2.by_value
    |> QMap.bindings |> List.map fst
  in
  let lt1 = ref t1.empty and lt2 = ref t2.empty in
  let by_value =
    List.fold_left
      (fun acc a ->
        let p1 = Option.value (QMap.find_opt a t1.by_value) ~default:(Tables.zeros t1.n) in
        let p2 = Option.value (QMap.find_opt a t2.by_value) ~default:(Tables.zeros t2.n) in
        let le2 = Tables.add !lt2 p2 in
        let counts = Tables.add (Tables.convolve p1 le2) (Tables.convolve !lt1 p2) in
        lt1 := Tables.add !lt1 p1;
        lt2 := le2;
        if B.is_zero (Tables.total counts) then acc else QMap.add a counts acc)
      QMap.empty values
  in
  { n = t1.n + t2.n; empty = Tables.convolve t1.empty t2.empty; by_value }

(* Cross product with a τ-free side given by its nonempty counts. *)
let combine_cross t (n2, nonempty2) =
  let empty2 = Tables.sub (Tables.full n2) nonempty2 in
  let empty =
    Tables.sub
      (Tables.add (Tables.convolve t.empty (Tables.full n2))
         (Tables.convolve (Tables.full t.n) empty2))
      (Tables.convolve t.empty empty2)
  in
  { n = t.n + n2;
    empty;
    by_value = QMap.map (fun c -> Tables.convolve c nonempty2) t.by_value }

let table_of_values ~n ~empty values =
  { n;
    empty;
    by_value =
      List.fold_left
        (fun acc (a, c) ->
          QMap.update a (function None -> Some c | Some c' -> Some (Tables.add c' c)) acc)
        QMap.empty values }

(* [combine_union] drops all-zero rows, so equality must not distinguish
   an absent value from a value whose counts are all zero. *)
let table_equal t1 t2 =
  let nonzero m = QMap.filter (fun _ c -> not (B.is_zero (Tables.total c))) m in
  let counts_equal a b = Array.length a = Array.length b && Array.for_all2 B.equal a b in
  t1.n = t2.n
  && counts_equal t1.empty t2.empty
  && QMap.equal counts_equal (nonzero t1.by_value) (nonzero t2.by_value)

let ground_base tau (atom : Cq.atom) db =
  let fact =
    { Aggshap_relational.Fact.rel = atom.Cq.rel;
      args =
        Array.map
          (function
            | Cq.Const v -> v
            | Cq.Var x -> invalid_arg ("Minmax: ground base with variable " ^ x))
          atom.Cq.terms }
  in
  match Database.provenance db fact with
  | None -> { n = Database.endo_size db; empty = Tables.full (Database.endo_size db); by_value = QMap.empty }
  | Some p ->
    let v = Value_fn.apply tau fact.args in
    (match p with
     | Database.Exogenous -> { n = 0; empty = [| B.zero |]; by_value = QMap.singleton v [| B.one |] }
     | Database.Endogenous ->
       { n = 1; empty = [| B.one; B.zero |]; by_value = QMap.singleton v [| B.zero; B.one |] })

(* The Figure-2 template instantiated with (a,k)-tables, for sub-queries
   containing the τ-relation (Appendix C): root blocks combine by
   bag-union, τ-free components contribute only nonempty/empty counts
   (the Boolean engine provides them), and the τ-component recurses.
   The context is τ. *)
module Alg = struct
  type nonrec table = table
  type ctx = Value_fn.t

  let leaf _ _ _ = None

  let ground_atom q =
    match q.Cq.body with
    | [ atom ] -> atom
    | _ -> invalid_arg "Minmax: ground component with several atoms"

  let connected_leaf tau q db =
    if Decompose.is_ground q then Some (fun () -> ground_base tau (ground_atom q) db)
    else None

  let empty _ _ = invalid_arg "Minmax: τ-relation vanished from the query"
  let root_mode = `Any_root
  let root_error = "Minmax: query is not all-hierarchical: "

  let merge _ ~root:_ blocks =
    List.fold_left (fun acc (_, _, t) -> combine_union acc t) neutral blocks

  let combine tau _q db comps =
    let rel = tau.Value_fn.rel in
    let with_r, without_r =
      List.partition (fun (c, _, _) -> List.mem rel (Cq.relations c)) comps
    in
    match with_r with
    | [ (_, _, table0) ] ->
      let t0 = table0 () in
      (match without_r with
       | [] -> t0
       | _ ->
         (* Folding [combine_cross] once per τ-free component re-maps
            the whole [by_value] table each time; convolving the
            components' satisfaction tables first (balanced) and
            crossing once is bit-identical — the cross product of
            independent fact sets is associative and the arithmetic is
            exact. *)
         let sats =
           List.map
             (fun (c, _, _) ->
               let db_c, _ = Database.restrict_relations (Cq.relations c) db in
               (Database.endo_size db_c, Boolean_dp.counts c db_c))
             without_r
         in
         let n2 = List.fold_left (fun acc (n, _) -> acc + n) 0 sats in
         combine_cross t0 (n2, Tables.convolve_many (List.map snd sats)))
    | _ -> invalid_arg "Minmax: τ-relation must occur in exactly one component"

  let pad _ p t = pad_table p t
  let neutral = neutral
  let union _ = combine_union

  let diff t rm =
    { n = rm.n;
      empty = Tables.variant_diff t.empty rm.empty;
      by_value = QMap.merge (fun _ -> Tables.variant_diff_row rm.n) t.by_value rm.by_value }

  let leaf_removals tau q db _ = Engine.each_removal db (ground_base tau (ground_atom q))
end

module E = Engine.Pass (Alg)

let check (a : Agg_query.t) =
  if not (Hierarchy.is_all_hierarchical a.query) then
    invalid_arg ("Minmax: query is not all-hierarchical: " ^ Cq.to_string a.query)

let sum_of_table t = Tables.weighted_sum t.n (QMap.bindings t.by_value)

let max_sum_k (a : Agg_query.t) db = sum_of_table (E.eval_top a.tau a.query db)

let negate_tau (a : Agg_query.t) =
  { a with
    alpha = Aggregate.Max;
    tau =
      Value_fn.custom ~rel:a.tau.Value_fn.rel
        ~descr:("neg(" ^ a.tau.Value_fn.descr ^ ")")
        (fun args -> Q.neg (Value_fn.apply a.tau args)) }

let sum_k (a : Agg_query.t) db =
  check a;
  match a.alpha with
  | Aggregate.Max -> max_sum_k a db
  | Aggregate.Min -> Array.map Q.neg (max_sum_k (negate_tau a) db)
  | other ->
    invalid_arg ("Minmax: aggregate " ^ Aggregate.to_string other ^ " is not min/max")

let shapley ?(score = Aggshap_arith.Score.Shapley) a db f =
  Sumk.score_of_db_fn ~score (fun db -> sum_k a db) db f

(* The slice read-out of Max at one group of the variant pass. With
   L = the group's context, the read-out R(t) = Σ_a a·t(a) of the union
   U(L, t) is linear in t:

     R(U(L, t)) = G_∅ ⊛ t(∅) + Σ_b G_b ⊛ t(b),
     G_∅ = Σ_a a·p_L(a),   G_b = Σ_(a ≥ b) a·p_L(a) + b·lt_L(b),

   where lt_L(b) counts L's subsets whose maximum is below b, empty
   ones included. The kernels are integers over the lcm [d] of every
   value the group's tables carry, padded once per group. Returns
   [d] and the slice function of a variant, applied to its
   difference t = exo − rm. *)
let readout ~pad l vs =
  let keys t acc = QMap.fold (fun a _ acc -> QMap.add a () acc) t.by_value acc in
  let wanted =
    List.fold_left (fun acc (v : _ Engine.variant) -> keys v.diff acc) QMap.empty vs
  in
  let d = QMap.fold (fun a () acc -> Q.den_lcm acc a) (keys l wanted) B.one in
  let scale a c =
    let x = B.mul (Q.num a) (B.div d (Q.den a)) in
    Array.map (B.mul x) c
  in
  let total =
    QMap.fold (fun a c acc -> Tables.add acc (scale a c)) l.by_value (Tables.zeros l.n)
  in
  (* One ascending sweep over L's and the wanted values: [below] is
     Σ_(a < b) a·p_L(a) and [lt] is lt_L(b). *)
  let kernels, _, _ =
    QMap.fold
      (fun b () (kernels, below, lt) ->
        let kernels =
          if QMap.mem b wanted then
            QMap.add b
              (Tables.pad pad (Tables.add (Tables.sub total below) (scale b lt)))
              kernels
          else kernels
        in
        match QMap.find_opt b l.by_value with
        | Some c -> (kernels, Tables.add below (scale b c), Tables.add lt c)
        | None -> (kernels, below, lt))
      (keys l wanted)
      (QMap.empty, Tables.zeros l.n, l.empty)
  in
  let k_empty = Tables.pad pad total in
  let slice (v : _ Engine.variant) =
    let term kernel diff acc =
      if Array.for_all B.is_zero diff then acc
      else Tables.add acc (Tables.convolve kernel diff)
    in
    QMap.fold
      (fun b diff acc -> term (QMap.find b kernels) diff acc)
      v.diff.by_value
      (term k_empty v.diff.empty (Tables.zeros (l.n + pad + v.diff.n)))
  in
  (d, slice)

(* All facts of Max from one variant pass: per group one read-out, per
   fact one kernel application to its block-sized variant tables. *)
let max_batch ~score (a : Agg_query.t) db =
  let s = E.split a.tau a.query db in
  let n = Database.endo_size db in
  List.concat_map
    (fun (l, vs) ->
      let d, slice = readout ~pad:s.Engine.pad l vs in
      List.map
        (fun (v : _ Engine.variant) ->
          let x = slice v in
          (v.fact, Aggshap_arith.Score.finish score ~den:d ~n (fun k -> x.(k))))
        vs)
    s.Engine.groups

let batch ?(score = Aggshap_arith.Score.Shapley) (a : Agg_query.t) db =
  check a;
  Sumk.in_order db
    (match a.alpha with
     | Aggregate.Max -> max_batch ~score a db
     | Aggregate.Min ->
       List.map (fun (f, v) -> (f, Q.neg v)) (max_batch ~score (negate_tau a) db)
     | other ->
       invalid_arg ("Minmax: aggregate " ^ Aggregate.to_string other ^ " is not min/max"))

let shapley_all a db = Sumk.shapley_all_of sum_k a db
