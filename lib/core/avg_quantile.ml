module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Eval = Aggshap_cq.Eval
module Hierarchy = Aggshap_cq.Hierarchy
module Decompose = Aggshap_cq.Decompose
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact

(* The int-triple compare orders keys as [Stdlib.compare] does, without
   a [caml_compare] call per map step. *)
module LMap = Map.Make (struct
  type t = int * int * int

  let compare (a1, b1, c1) (a2, b2, c2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c
    else
      let c = Int.compare b1 b2 in
      if c <> 0 then c else Int.compare c1 c2
end)

(* N_a for one sub-query: (ℓ<, ℓ=, ℓ>) ↦ per-k counts. Every subset is
   counted under exactly one key, so the entries sum to [full n]. *)
type vtable = {
  n : int;
  entries : Tables.counts LMap.t;
}

let add_entry l c entries =
  LMap.update l (function None -> Some c | Some c' -> Some (Tables.add c' c)) entries

let pad_vtable p t =
  if p = 0 then t else { n = t.n + p; entries = LMap.map (Tables.pad p) t.entries }

let vec_add (a1, b1, c1) (a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2)
let vec_scale s (a, b, c) = (s * a, s * b, s * c)

let combine_vtables op t1 t2 =
  let entries =
    LMap.fold
      (fun l1 c1 acc ->
        LMap.fold
          (fun l2 c2 acc ->
            let c = Tables.convolve c1 c2 in
            if B.is_zero (Tables.total c) then acc else add_entry (op l1 l2) c acc)
          t2.entries acc)
      t1.entries LMap.empty
  in
  { n = t1.n + t2.n; entries }

let neutral_union = { n = 0; entries = LMap.singleton (0, 0, 0) [| B.one |] }

let vtable_of ~n entries =
  { n; entries = List.fold_left (fun acc (l, c) -> add_entry l c acc) LMap.empty entries }

(* [combine_vtables] drops all-zero rows, so equality must not
   distinguish an absent ℓ-vector from one whose counts are all zero. *)
let vtable_equal t1 t2 =
  let nonzero m = LMap.filter (fun _ c -> not (B.is_zero (Tables.total c))) m in
  let counts_equal a b = Array.length a = Array.length b && Array.for_all2 B.equal a b in
  t1.n = t2.n && LMap.equal counts_equal (nonzero t1.entries) (nonzero t2.entries)

(* Cross product of a τ-side table with a τ-free side's answer counts:
   each answer of the τ-free side replicates the whole bag. *)
let combine_cross_counted t (c : Count_dp.t) =
  let entries =
    LMap.fold
      (fun lvec c1 acc ->
        Count_dp.IntMap.fold
          (fun l2 c2 acc ->
            let c = Tables.convolve c1 c2 in
            if B.is_zero (Tables.total c) then acc
            else add_entry (vec_scale l2 lvec) c acc)
          c.Count_dp.entries acc)
      t.entries LMap.empty
  in
  { n = t.n + c.Count_dp.n; entries }

type memo = {
  self : vtable Memo.t;
  bool : Boolean_dp.memo;
  count : Count_dp.memo;
}

let create_memo () =
  { self = Memo.create ();
    bool = Boolean_dp.create_memo ();
    count = Count_dp.create_memo () }

let memo_stats m =
  Memo.merge_stats (Memo.stats m.self)
    (Memo.merge_stats (Boolean_dp.memo_stats m.bool) (Count_dp.memo_stats m.count))

(* Boolean sub-query containing the τ-relation: at most one answer, whose
   τ-value is read off the homomorphism support (all supporting R-facts
   must agree — otherwise τ is not localized on this database). Without
   [sides], a τ-value below the reference value is filed under ℓ> like
   one above it: the key is then (0, ℓ=, ℓ≠). *)
let boolean_valued ?bool_memo ~sides tau a q db =
  let n = Database.endo_size db in
  let sat = Boolean_dp.counts ?memo:bool_memo q db in
  let unsat = Tables.complement n sat in
  let r_facts =
    List.filter
      (fun (f : Fact.t) -> String.equal f.rel tau.Value_fn.rel)
      (Eval.support q db)
  in
  match r_facts with
  | [] -> { n; entries = LMap.singleton (0, 0, 0) (Tables.full n) }
  | f :: rest ->
    let v = Value_fn.apply tau f.Fact.args in
    List.iter
      (fun (g : Fact.t) ->
        if not (Q.equal v (Value_fn.apply tau g.Fact.args)) then
          invalid_arg "Avg_quantile: τ is not localized on this database")
      rest;
    let lvec =
      match Q.compare v a with
      | 0 -> (0, 1, 0)
      | c when c < 0 && sides -> (1, 0, 0)
      | _ -> (0, 0, 1)
    in
    { n; entries = LMap.empty |> add_entry lvec sat |> add_entry (0, 0, 0) unsat }

(* The Figure-2 template instantiated with (a,k,ℓ)-tables for the
   sub-query containing the τ-relation, for a fixed reference value
   [a]. The memo key carries the reference value on top of the block
   key (the same sub-instance is revisited once per realizable
   τ-value); τ itself stays outside the key, so a memo is only sound
   for one value function — {!Batch} checks the stamp of a session's
   memo. [sides] keys ℓ< apart from ℓ>: quantiles need it, Avg's weight
   does not, and the projection (ℓ<, ℓ=, ℓ>) ↦ (0, ℓ=, ℓ<+ℓ>) commutes
   with union (a vector sum) and cross product (a scaling). It follows
   from the aggregate, which the stamp of a session's memo fixes too. *)
module Alg = struct
  type table = vtable

  type ctx = {
    tau : Value_fn.t;
    a : Q.t;
    sides : bool;
    bool : Boolean_dp.memo option;
    count : Count_dp.memo option;
  }

  let memo_prefix ctx = Q.to_string ctx.a ^ "\x01"

  let leaf ctx q db =
    if Cq.is_boolean q then
      Some (fun () -> boolean_valued ?bool_memo:ctx.bool ~sides:ctx.sides ctx.tau ctx.a q db)
    else None

  let connected_leaf _ _ _ = None
  let empty _ _ = assert false (* non-Boolean queries have atoms *)
  let root_mode = `Free_root
  let root_error = "Avg_quantile: query is not q-hierarchical: "

  let neutral = neutral_union
  let union _ = combine_vtables vec_add
  let merge ctx ~root:_ blocks =
    List.fold_left (fun acc (_, _, t) -> union ctx acc t) neutral blocks

  let combine ctx _q _db comps =
    let rel = ctx.tau.Value_fn.rel in
    let with_r, without_r =
      List.partition (fun (c, _, _) -> List.mem rel (Cq.relations c)) comps
    in
    match with_r with
    | [ (_, _, table0) ] ->
      let t0 = table0 () in
      List.fold_left
        (fun acc (c, db_c, _) ->
          combine_cross_counted acc (Count_dp.answer_counts ?memo:ctx.count c db_c))
        t0 without_r
    | _ -> invalid_arg "Avg_quantile: τ-relation must occur in exactly one component"

  let pad _ p t = pad_vtable p t

  let diff t rm =
    { n = rm.n;
      entries = LMap.merge (fun _ -> Tables.variant_diff_row rm.n) t.entries rm.entries }

  (* A removal variant's answer, if any, has the τ-value the whole
     block's answer has (τ is localized), so only the satisfaction
     counts change; a block whose answer carries no τ-value keeps every
     subset under the empty bag. *)
  let leaf_removals ctx q db t =
    let lvec =
      LMap.fold (fun l _ acc -> if l = (0, 0, 0) then acc else Some l) t.entries None
    in
    let of_sat sat =
      let n = Array.length sat - 1 in
      match lvec with
      | None -> { n; entries = LMap.singleton (0, 0, 0) (Tables.full n) }
      | Some l ->
        { n;
          entries =
            LMap.empty |> add_entry l sat |> add_entry (0, 0, 0) (Tables.complement n sat) }
    in
    List.map (fun (f, rm) -> (f, of_sat rm)) (Boolean_dp.removals ?memo:ctx.bool q db)
end

module E = Engine.Pass (Alg)

let ctx_of ?memo ~sides tau a =
  { Alg.tau;
    a;
    sides;
    bool = Option.map (fun m -> m.bool) memo;
    count = Option.map (fun m -> m.count) memo }

let valued_table tau a q db = E.eval (ctx_of ~sides:true tau a) q db

let check (a : Agg_query.t) =
  (match Aggregate.quantile_of a.alpha with
   | Some _ -> ()
   | None ->
     if a.alpha <> Aggregate.Avg then
       invalid_arg
         ("Avg_quantile: aggregate " ^ Aggregate.to_string a.alpha ^ " is not avg/quantile"));
  if not (Hierarchy.is_q_hierarchical a.query) then
    invalid_arg ("Avg_quantile: query is not q-hierarchical: " ^ Cq.to_string a.query)

(* Weight of the reference value [a] in the aggregate of a bag described
   by (ℓ<, ℓ=, ℓ>): its multiplicity share for Avg, its rank-indicator
   weight f_q for quantiles. *)
let avg_weight (l_lt, l_eq, l_gt) =
  if l_eq = 0 then Q.zero else Q.of_ints l_eq (l_lt + l_eq + l_gt)

let quantile_weight q (l_lt, l_eq, l_gt) =
  let tot = l_lt + l_eq + l_gt in
  if tot = 0 || l_eq = 0 then Q.zero
  else begin
    let qn = Q.mul_int q tot in
    let i1 = B.to_int_exn (Q.ceil qn) in
    let i2 = B.to_int_exn (Q.floor (Q.add qn Q.one)) in
    let hit i = if l_lt < i && i <= l_lt + l_eq then 1 else 0 in
    Q.div_int (Q.of_int (hit i1 + hit i2)) 2
  end

let weight_of (a : Agg_query.t) =
  match Aggregate.quantile_of a.alpha with
  | Some q -> quantile_weight q
  | None -> avg_weight

let reference_values (a : Agg_query.t) db =
  List.sort_uniq Q.compare (List.map snd (Agg_query.answer_values a db))

let sum_k (a : Agg_query.t) db =
  check a;
  let weight = weight_of a in
  let db_rel, pad = Decompose.relevant_part a.query db in
  let n = Database.endo_size db in
  (* Collect every (weight, counts) term across all reference values and
     accumulate them in one integer pass over a common denominator
     instead of one scale_to/add_rat (a gcd per entry) per term. *)
  let pairs =
    List.concat_map
      (fun v ->
        let t = pad_vtable pad (valued_table a.tau v a.query db_rel) in
        LMap.fold
          (fun lvec counts acc ->
            let w = weight lvec in
            if Q.is_zero w then acc else (Q.mul v w, counts) :: acc)
          t.entries [])
      (reference_values a db)
  in
  Tables.weighted_sum n pairs

let shapley ?(score = Aggshap_arith.Score.Shapley) a db f =
  Sumk.score_of_db_fn ~score (fun db -> sum_k a db) db f

(* The slice read-out of reference value [v] at one group of the
   variant pass. With L the group's context, the read-out of the union
   U(L, t) is linear in t:

     R_v(U(L, t)) = Σ_ℓ′ g_ℓ′ ⊛ t(ℓ′),   g_ℓ′ = Σ_ℓ″ v·w(ℓ″+ℓ′)·L(ℓ″),

   one kernel per ℓ-vector the group's variants carry, integers over
   the lcm [d] of the coefficients, padded once per group. Returns [d]
   and the slice function of a variant, applied to its difference
   t = exo − rm. *)
let readout ~weight ~v ~pad l vs =
  let keys t acc = LMap.fold (fun lvec _ acc -> LMap.add lvec () acc) t.entries acc in
  let wanted =
    List.fold_left (fun acc (var : _ Engine.variant) -> keys var.diff acc) LMap.empty vs
  in
  let coeffs =
    LMap.mapi
      (fun l' () ->
        LMap.fold
          (fun l'' c acc ->
            let w = Q.mul v (weight (vec_add l'' l')) in
            if Q.is_zero w then acc else (w, c) :: acc)
          l.entries [])
      wanted
  in
  let d =
    LMap.fold
      (fun _ terms acc -> List.fold_left (fun acc (w, _) -> Q.den_lcm acc w) acc terms)
      coeffs B.one
  in
  let kernels =
    LMap.map
      (fun terms ->
        let accs = Array.init (l.n + 1) (fun _ -> B.Acc.create ()) in
        List.iter
          (fun (w, c) ->
            let x = B.mul (Q.num w) (B.div d (Q.den w)) in
            Array.iteri (fun k y -> B.Acc.add_mul accs.(k) x y) c)
          terms;
        Tables.pad pad (Array.map B.Acc.value accs))
      (LMap.filter (fun _ terms -> terms <> []) coeffs)
  in
  let slice (var : _ Engine.variant) =
    LMap.fold
      (fun lvec diff acc ->
        match LMap.find_opt lvec kernels with
        | Some kernel -> Tables.add acc (Tables.convolve kernel diff)
        | None -> acc)
      var.diff.entries
      (Tables.zeros (l.n + pad + var.diff.n))
  in
  (d, slice)

(* Two integer slices over their denominators, summed over the lcm. *)
let add_slices (d1, x1) (d2, x2) =
  let d = B.lcm d1 d2 in
  let lift d' x = if B.equal d d' then x else Array.map (B.mul (B.div d d')) x in
  (d, Tables.add (lift d1 x1) (lift d2 x2))

(* All facts from one variant pass per reference value: a fact's slice
   sums its per-value slices, and is finished once. Only quantiles key
   ℓ< apart from ℓ>. *)
let batch ?(score = Aggshap_arith.Score.Shapley) ?memo (a : Agg_query.t) db =
  check a;
  let weight = weight_of a in
  let sides = Option.is_some (Aggregate.quantile_of a.alpha) in
  let n = Database.endo_size db in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let s =
        E.split ?memo:(Option.map (fun m -> m.self) memo) (ctx_of ?memo ~sides a.tau v) a.query
          db
      in
      List.iter
        (fun (l, vs) ->
          let d, slice = readout ~weight ~v ~pad:s.Engine.pad l vs in
          List.iter
            (fun (var : _ Engine.variant) ->
              let x = (d, slice var) in
              Hashtbl.replace acc var.fact
                (match Hashtbl.find_opt acc var.fact with
                 | Some y -> add_slices y x
                 | None -> x))
            vs)
        s.Engine.groups)
    (reference_values a db);
  Sumk.in_order db
    (Hashtbl.fold
       (fun f (d, x) out -> (f, Aggshap_arith.Score.finish score ~den:d ~n (fun k -> x.(k))) :: out)
       acc [])

let shapley_all a db = Sumk.shapley_all_of sum_k a db
