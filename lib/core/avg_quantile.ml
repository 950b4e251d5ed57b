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
module IntMap = Count_dp.IntMap
module IntSet = Set.Make (Int)

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
        IntMap.fold
          (fun l2 c2 acc ->
            let c = Tables.convolve c1 c2 in
            if B.is_zero (Tables.total c) then acc
            else add_entry (vec_scale l2 lvec) c acc)
          c.Count_dp.entries acc)
      t.entries LMap.empty
  in
  { n = t.n + c.Count_dp.n; entries }

(* Boolean sub-query containing the τ-relation: at most one answer, whose
   τ-value is read off the homomorphism support (all supporting R-facts
   must agree — otherwise τ is not localized on this database). Returns
   the satisfaction counts and that value, [None] when no subset
   satisfies the query. *)
let boolean_leaf tau q db =
  let sat = Boolean_dp.counts q db in
  let r_facts =
    List.filter
      (fun (f : Fact.t) -> String.equal f.rel tau.Value_fn.rel)
      (Eval.support q db)
  in
  match r_facts with
  | [] -> (sat, None)
  | f :: rest ->
    let v = Value_fn.apply tau f.Fact.args in
    List.iter
      (fun (g : Fact.t) ->
        if not (Q.equal v (Value_fn.apply tau g.Fact.args)) then
          invalid_arg "Avg_quantile: τ is not localized on this database")
      rest;
    (sat, Some v)

let boolean_valued tau a q db =
  let n = Database.endo_size db in
  match boolean_leaf tau q db with
  | _, None -> { n; entries = LMap.singleton (0, 0, 0) (Tables.full n) }
  | sat, Some v ->
    let lvec =
      match Q.compare v a with
      | 0 -> (0, 1, 0)
      | c when c < 0 -> (1, 0, 0)
      | _ -> (0, 0, 1)
    in
    { n;
      entries = LMap.empty |> add_entry lvec sat |> add_entry (0, 0, 0) (Tables.complement n sat) }

(* A conjunction's one component holding the τ-relation, and its
   τ-free components, which both algebras cross in through their
   {!Count_dp} answer counts. *)
let cross_tau_free ~rel ~cross comps =
  match List.partition (fun (c, _, _) -> List.mem rel (Cq.relations c)) comps with
  | [ (_, _, table0) ], without_r ->
    List.fold_left
      (fun acc (c, db_c, _) -> cross acc (Count_dp.answer_counts c db_c))
      (table0 ()) without_r
  | _ -> invalid_arg "Avg_quantile: τ-relation must occur in exactly one component"

(* The Figure-2 template instantiated with (a,k,ℓ)-tables for the
   sub-query containing the τ-relation, for a fixed reference value
   [a]. *)
module Alg = struct
  type table = vtable

  type ctx = {
    tau : Value_fn.t;
    a : Q.t;
  }

  let leaf ctx q db =
    if Cq.is_boolean q then Some (fun () -> boolean_valued ctx.tau ctx.a q db) else None

  let connected_leaf _ _ _ = None
  let empty _ _ = assert false (* non-Boolean queries have atoms *)
  let root_mode = `Free_root
  let root_error = "Avg_quantile: query is not q-hierarchical: "

  let neutral = neutral_union
  let union _ = combine_vtables vec_add
  let merge ctx ~root:_ blocks =
    List.fold_left (fun acc (_, _, t) -> union ctx acc t) neutral blocks

  let combine ctx _q _db comps =
    cross_tau_free ~rel:ctx.tau.Value_fn.rel ~cross:combine_cross_counted comps

  let pad _ p t = pad_vtable p t

  let diff t rm =
    { n = rm.n;
      entries = LMap.merge (fun _ -> Tables.variant_diff_row rm.n) t.entries rm.entries }

  (* A removal variant's answer, if any, has the τ-value the whole
     block's answer has (τ is localized), so only the satisfaction
     counts change; a block whose answer carries no τ-value keeps every
     subset under the empty bag. *)
  let leaf_removals _ q db t =
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
    List.map (fun (f, rm) -> (f, of_sat rm)) (Boolean_dp.removals q db)
end

module E = Engine.Pass (Alg)

let valued_table tau a q db = E.eval { Alg.tau; a } q db

(* Avg's first-moment tables. A sub-query's table maps each answer
   count ℓ to a pair (C, T): C(k) is the number of k-subsets whose bag
   has ℓ answers, and T(k) the sum of those bags' τ-totals, as integers
   over the algebra's [d]. Every subset is counted under exactly one ℓ,
   so the C's sum to [full n]. A table the algebra builds counts
   subsets, so a row with no subset has no τ-total either, and such
   rows are dropped. *)
module Moments = struct
  type t = {
    n : int;
    rows : (Tables.counts * Tables.counts) IntMap.t;
  }

  let neutral = { n = 0; rows = IntMap.singleton 0 ([| B.one |], [| B.zero |]) }

  let add_row l ((c, t) as row) rows =
    if B.is_zero (Tables.total c) then rows
    else
      IntMap.update l
        (function None -> Some row | Some (c', t') -> Some (Tables.add c' c, Tables.add t' t))
        rows

  (* A τ-total row is zero wherever no bag has an answer (ℓ = 0, or
     τ-values summing to 0), and its products are skipped there. *)
  let is_zero t = Array.for_all B.is_zero t

  (* Union of two blocks with disjoint answer sets: answer counts add
     and τ-totals add, so the pair of a subset S₁ ⊎ S₂ sums over the
     pairs of its halves as (C₁C₂, T₁C₂ + C₁T₂). *)
  let union m1 m2 =
    let n = m1.n + m2.n in
    let rows =
      IntMap.fold
        (fun l1 (c1, t1) acc ->
          IntMap.fold
            (fun l2 (c2, t2) acc ->
              let t =
                match (is_zero t1, is_zero t2) with
                | true, true -> Tables.zeros n
                | false, true -> Tables.convolve t1 c2
                | true, false -> Tables.convolve c1 t2
                | false, false -> Tables.add (Tables.convolve t1 c2) (Tables.convolve c1 t2)
              in
              add_row (l1 + l2) (Tables.convolve c1 c2, t) acc)
            m2.rows acc)
        m1.rows IntMap.empty
    in
    { n; rows }

  (* Cross product with a τ-free side's answer counts: each of its ℓ₂
     answers replicates the bag, so ℓ and the τ-total scale by ℓ₂. The
     τ-free side's row ℓ₂ = 0 empties every bag, so it crosses the sum
     of the rows' counts once. *)
  let cross m (c : Count_dp.t) =
    let n = m.n + c.Count_dp.n in
    let rows =
      IntMap.fold
        (fun l2 c2 acc ->
          if l2 = 0 then
            let all =
              IntMap.fold (fun _ (c1, _) acc -> Tables.add acc c1) m.rows (Tables.zeros m.n)
            in
            add_row 0 (Tables.convolve all c2, Tables.zeros n) acc
          else
            IntMap.fold
              (fun l (c1, t1) acc ->
                let t =
                  if is_zero t1 then Tables.zeros n
                  else if l2 = 1 then Tables.convolve t1 c2
                  else Array.map (fun x -> B.mul_int x l2) (Tables.convolve t1 c2)
                in
                add_row (l * l2) (Tables.convolve c1 c2, t) acc)
              m.rows acc)
        c.Count_dp.entries IntMap.empty
    in
    { n; rows }

  (* A Boolean τ-leaf whose answer has τ-value [x] (over [d]): its
     satisfying subsets hold one answer of τ-total [x], the others
     none. *)
  let leaf x sat =
    let n = Array.length sat - 1 in
    (* With no fact and no answer, the leaf is the empty block, which
       the pass's unions skip. *)
    if n = 0 && B.is_zero sat.(0) then neutral
    else
      { n;
        rows =
          IntMap.empty
          |> add_row 1 (sat, Array.map (B.mul x) sat)
          |> add_row 0 (Tables.complement n sat, Tables.zeros n) }

  let pad p m =
    if p = 0 then m
    else
      { n = m.n + p; rows = IntMap.map (fun (c, t) -> (Tables.pad p c, Tables.pad p t)) m.rows }

  (* [Tables.variant_diff_row] on C and on T. *)
  let diff m rm =
    let n = rm.n in
    let row = Option.value ~default:(Tables.zeros n) in
    { n;
      rows =
        IntMap.merge
          (fun _ r r_rm ->
            let half f = Tables.variant_diff_row n (Option.map f r) (Option.map f r_rm) in
            match (half fst, half snd) with
            | None, None -> None
            | c, t -> Some (row c, row t))
          m.rows rm.rows }
end

(* The Figure-2 template instantiated with first-moment tables, for the
   sub-query containing the τ-relation. The context is τ and [d], the
   lcm of the denominators of the τ-values of the query's answers on
   the whole database. *)
module First_moment = struct
  type table = Moments.t

  type ctx = {
    tau : Value_fn.t;
    d : B.t;
  }

  (* A leaf's τ-value over [d]. One whose denominator does not divide
     [d] is the value of no answer on the whole database: the leaf's
     homomorphism extends to none, so some conjunction above it crosses
     it with a τ-free side that has no answer on its whole database,
     and that cross scales its τ-totals by ℓ₂ = 0. Filing them as 0 is
     exact. *)
  let scaled ctx v =
    let q, r = B.divmod ctx.d (Q.den v) in
    if B.is_zero r then B.mul (Q.num v) q else B.zero

  let leaf ctx q db =
    if Cq.is_boolean q then
      Some
        (fun () ->
          match boolean_leaf ctx.tau q db with
          | sat, None -> Moments.leaf B.zero sat
          | sat, Some v -> Moments.leaf (scaled ctx v) sat)
    else None

  let connected_leaf _ _ _ = None
  let empty _ _ = assert false (* non-Boolean queries have atoms *)
  let root_mode = `Free_root
  let root_error = Alg.root_error

  let neutral = Moments.neutral
  let union _ = Moments.union
  let merge ctx ~root:_ blocks =
    List.fold_left (fun acc (_, _, t) -> union ctx acc t) neutral blocks

  let combine ctx _q _db comps =
    cross_tau_free ~rel:ctx.tau.Value_fn.rel ~cross:Moments.cross comps

  let pad _ = Moments.pad
  let diff = Moments.diff

  (* A removal variant's answer, if any, has the τ-value of the whole
     block's answer. The leaf's row ℓ = 1 is (sat, x·sat), so [x] is
     any of its τ-totals over its count. *)
  let leaf_removals _ q db (m : Moments.t) =
    let x =
      match IntMap.find_opt 1 m.rows with
      | Some (c, t) ->
        let k = Option.get (Array.find_index (fun y -> not (B.is_zero y)) c) in
        B.div t.(k) c.(k)
      | None -> B.zero
    in
    List.map (fun (f, rm) -> (f, Moments.leaf x rm)) (Boolean_dp.removals q db)
end

module M = Engine.Pass (First_moment)

let check (a : Agg_query.t) =
  (match Aggregate.quantile_of a.alpha with
   | Some _ -> ()
   | None ->
     if a.alpha <> Aggregate.Avg then
       invalid_arg
         ("Avg_quantile: aggregate " ^ Aggregate.to_string a.alpha ^ " is not avg/quantile"));
  if not (Hierarchy.is_q_hierarchical a.query) then
    invalid_arg ("Avg_quantile: query is not q-hierarchical: " ^ Cq.to_string a.query)

(* [d] of the first-moment context: every answer's τ-value is an
   integer over it. *)
let moment_ctx (a : Agg_query.t) db =
  { First_moment.tau = a.tau;
    d = List.fold_left (fun acc (_, v) -> Q.den_lcm acc v) B.one (Agg_query.answer_values a db) }

let first_moments (a : Agg_query.t) db =
  check a;
  let ctx = moment_ctx a db in
  List.map
    (fun (l, (c, t)) -> (l, c, Array.map (fun x -> Q.make x ctx.d) t))
    (IntMap.bindings (M.eval_top ctx a.query db).Moments.rows)

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
  let acc = B.Acc.create () in
  let kernels =
    LMap.map
      (fun terms ->
        let terms = List.map (fun (w, c) -> (B.mul (Q.num w) (B.div d (Q.den w)), c)) terms in
        Tables.pad pad
          (Array.init (l.n + 1) (fun k ->
               B.Acc.clear acc;
               List.iter (fun (x, c) -> B.Acc.add_mul acc x c.(k)) terms;
               B.Acc.value acc)))
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

(* Quantiles from one variant pass per reference value: a fact's slice
   sums its per-value slices, and is finished once. *)
let quantile_batch ~score ~weight (a : Agg_query.t) db =
  let n = Database.endo_size db in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let s = E.split { Alg.tau = a.tau; a = v } a.query db in
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
  Hashtbl.fold
    (fun f (d, x) out -> (f, Aggshap_arith.Score.finish score ~den:d ~n (fun k -> x.(k))) :: out)
    acc []

(* Avg's slice read-out at one group of the first-moment pass. With L
   the group's context, the τ-totals of the union U(L, t) at ℓ are
   Σ_(ℓ″+ℓ′=ℓ) T_L(ℓ″) ⊛ C_t(ℓ′) + C_L(ℓ″) ⊛ T_t(ℓ′), and Avg reads
   Σ_ℓ T(ℓ)/ℓ, an empty bag averaging 0. So the read-out is linear in t:

     R(U(L, t)) = Σ_ℓ′ g_C(ℓ′) ⊛ C_t(ℓ′) + g_T(ℓ′) ⊛ T_t(ℓ′),
     g_C(ℓ′) = Σ_ℓ″ T_L(ℓ″)/(ℓ″+ℓ′),   g_T(ℓ′) = Σ_ℓ″ C_L(ℓ″)/(ℓ″+ℓ′),

   summed over ℓ″+ℓ′ > 0: two kernels per answer count the group's
   variants carry, integers over the lcm [m] of the sums ℓ″+ℓ′, padded
   once per group. Returns [m] and the slice function of a variant,
   applied to its difference t = exo − rm; the slice is over m·d. *)
let moment_readout ~pad (l : Moments.t) vs =
  let wanted =
    List.fold_left
      (fun acc (var : Moments.t Engine.variant) ->
        IntMap.fold (fun l' _ acc -> IntSet.add l' acc) var.diff.rows acc)
      IntSet.empty vs
  in
  let sums =
    IntSet.fold
      (fun l' acc -> IntMap.fold (fun l'' _ acc -> IntSet.add (l'' + l') acc) l.rows acc)
      wanted IntSet.empty
  in
  let m = IntSet.fold (fun s acc -> if s = 0 then acc else B.lcm acc (B.of_int s)) sums B.one in
  let acc = B.Acc.create () in
  let kernels =
    IntSet.fold
      (fun l' kernels ->
        let terms =
          IntMap.fold
            (fun l'' row terms ->
              if l'' + l' = 0 then terms else (B.div m (B.of_int (l'' + l')), row) :: terms)
            l.rows []
        in
        let kernel half =
          let g =
            Array.init (l.n + 1) (fun k ->
                B.Acc.clear acc;
                List.iter (fun (w, row) -> B.Acc.add_mul acc w (half row).(k)) terms;
                B.Acc.value acc)
          in
          if Array.for_all B.is_zero g then None else Some (Tables.pad pad g)
        in
        IntMap.add l' (kernel snd, kernel fst) kernels)
      wanted IntMap.empty
  in
  let slice (var : Moments.t Engine.variant) =
    let term kernel diff acc =
      match kernel with
      | Some g when not (Array.for_all B.is_zero diff) -> Tables.add acc (Tables.convolve g diff)
      | _ -> acc
    in
    IntMap.fold
      (fun l' (c, t) acc ->
        let g_c, g_t = IntMap.find l' kernels in
        term g_c c (term g_t t acc))
      var.diff.rows
      (Tables.zeros (l.n + pad + var.diff.n))
  in
  (m, slice)

(* All facts of Avg from one first-moment pass: per group one read-out,
   per fact one application of its kernels. *)
let avg_batch ~score (a : Agg_query.t) db =
  let ctx = moment_ctx a db in
  let s = M.split ctx a.query db in
  let n = Database.endo_size db in
  List.concat_map
    (fun (l, vs) ->
      let m, slice = moment_readout ~pad:s.Engine.pad l vs in
      let den = B.mul m ctx.d in
      List.map
        (fun (var : _ Engine.variant) ->
          let x = slice var in
          (var.fact, Aggshap_arith.Score.finish score ~den ~n (fun k -> x.(k))))
        vs)
    s.Engine.groups

let batch ?(score = Aggshap_arith.Score.Shapley) (a : Agg_query.t) db =
  check a;
  Sumk.in_order db
    (match Aggregate.quantile_of a.alpha with
     | Some q -> quantile_batch ~score ~weight:(quantile_weight q) a db
     | None -> avg_batch ~score a db)

let shapley_all a db = Sumk.shapley_all_of sum_k a db
