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

type memo = {
  self : table Memo.t;
  bool : Boolean_dp.memo;
}

let create_memo () = { self = Memo.create (); bool = Boolean_dp.create_memo () }

let memo_stats m =
  Memo.merge_stats (Memo.stats m.self) (Boolean_dp.memo_stats m.bool)

(* The Figure-2 template instantiated with (a,k)-tables, for sub-queries
   containing the τ-relation (Appendix C): root blocks combine by
   bag-union, τ-free components contribute only nonempty/empty counts
   (the Boolean engine provides them), and the τ-component recurses.
   The memo key does not mention τ, so a memo is only sound across
   calls sharing one value function — {!Batch} creates a fresh one per
   run. *)
module Alg = struct
  type nonrec table = table
  type ctx = { tau : Value_fn.t; bool : Boolean_dp.memo option }

  let memo_prefix _ = ""
  let leaf _ _ _ = None

  let connected_leaf ctx q db =
    if Decompose.is_ground q then begin
      match q.Cq.body with
      | [ atom ] -> Some (ground_base ctx.tau atom db)
      | _ -> invalid_arg "Minmax: ground component with several atoms"
    end
    else None

  let empty _ _ = invalid_arg "Minmax: τ-relation vanished from the query"
  let root_mode = `Any_root
  let root_error = "Minmax: query is not all-hierarchical: "

  let merge _ ~root:_ blocks =
    List.fold_left (fun acc (_, _, t) -> combine_union acc t) neutral blocks

  let combine ctx _q db comps =
    let rel = ctx.tau.Value_fn.rel in
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
               (Database.endo_size db_c, Boolean_dp.counts ?memo:ctx.bool c db_c))
             without_r
         in
         let n2 = List.fold_left (fun acc (n, _) -> acc + n) 0 sats in
         combine_cross t0 (n2, Tables.convolve_many (List.map snd sats)))
    | _ -> invalid_arg "Minmax: τ-relation must occur in exactly one component"

  let pad _ p t = pad_table p t
end

module E = Engine.Make (Alg)

let ctx_of ?memo tau = { Alg.tau; bool = Option.map (fun m -> m.bool) memo }

let valued_table ?memo tau q db =
  E.eval ?memo:(Option.map (fun m -> m.self) memo) (ctx_of ?memo tau) q db

let check (a : Agg_query.t) =
  if not (Hierarchy.is_all_hierarchical a.query) then
    invalid_arg ("Minmax: query is not all-hierarchical: " ^ Cq.to_string a.query)

let max_table ?memo (a : Agg_query.t) db =
  E.eval_top ?memo:(Option.map (fun m -> m.self) memo) (ctx_of ?memo a.tau) a.query db

let sum_of_table t = Tables.weighted_sum t.n (QMap.bindings t.by_value)

let max_sum_k ?memo a db = sum_of_table (max_table ?memo a db)

let negate_tau (a : Agg_query.t) =
  { a with
    alpha = Aggregate.Max;
    tau =
      Value_fn.custom ~rel:a.tau.Value_fn.rel
        ~descr:("neg(" ^ a.tau.Value_fn.descr ^ ")")
        (fun args -> Q.neg (Value_fn.apply a.tau args)) }

let sum_k_memo ?memo (a : Agg_query.t) db =
  check a;
  match a.alpha with
  | Aggregate.Max -> max_sum_k ?memo a db
  | Aggregate.Min -> Array.map Q.neg (max_sum_k ?memo (negate_tau a) db)
  | other ->
    invalid_arg ("Minmax: aggregate " ^ Aggregate.to_string other ^ " is not min/max")

let sum_k a db = sum_k_memo a db

let shapley ?(score = Aggshap_arith.Score.Shapley) ?memo a db f =
  Sumk.score_of_db_fn ~score (fun db -> sum_k_memo ?memo a db) db f

(* Batch path for Max. A fact only perturbs its own top-level hierarchy
   block, so the combined table of all the OTHER blocks is shared across
   the whole per-fact loop: two prefix/suffix sweeps precompute it for
   every block, and each fact then pays one [combine_union] instead of a
   full fold over the root partition. Exactness of the arithmetic (and
   commutativity/associativity of [combine_union]) makes the recombined
   table identical to the one the sequential path folds up. Facts outside
   every block (irrelevant or dropped by the partition) take the plain
   memoized path. The top-level split comes from {!Engine} — the engine
   owns the decomposition. *)
let max_batch_worker ~score ?memo (a : Agg_query.t) db =
  let q = a.query and tau = a.tau in
  let plain f = shapley ~score ?memo a db f in
  match Engine.connected_root q with
  | Some x ->
    let db_rel, pad0 = Decompose.relevant_part q db in
    let blocks, _dropped = Engine.root_partition q ~root:x db_rel in
    let blocks = Array.of_list blocks in
    let g = Array.length blocks in
    let table_of v block = valued_table ?memo tau (Cq.substitute q x v) block in
    let tables = Array.map (fun (v, block) -> table_of v block) blocks in
    let pre = Array.make (g + 1) neutral in
    for i = 0 to g - 1 do
      pre.(i + 1) <- combine_union pre.(i) tables.(i)
    done;
    let suf = Array.make (g + 1) neutral in
    for i = g - 1 downto 0 do
      suf.(i) <- combine_union tables.(i) suf.(i + 1)
    done;
    let siblings = Array.init g (fun i -> combine_union pre.(i) suf.(i + 1)) in
    let n = Database.endo_size db in
    (* The sum_k vector of a variant of [db] in which only block [i] (or
       its membership in the root partition) may have changed. *)
    let variant_vector db_rel' i =
      let v, _ = blocks.(i) in
      let blocks', dropped' = Engine.root_partition q ~root:x db_rel' in
      let t =
        match
          List.find_opt
            (fun (v', _) -> Aggshap_relational.Value.equal v v')
            blocks'
        with
        | Some (_, block') -> combine_union siblings.(i) (table_of v block')
        | None -> siblings.(i)
      in
      sum_of_table (pad_table (Database.endo_size dropped' + pad0) t)
    in
    fun f ->
      (match Database.provenance db f with
       | Some Database.Endogenous -> ()
       | _ -> invalid_arg "Sumk: fact must be endogenous");
      let idx = ref (-1) in
      Array.iteri
        (fun i (_, block) -> if !idx < 0 && Database.mem f block then idx := i)
        blocks;
      if !idx < 0 then plain f
      else begin
        let i = !idx in
        let with_f =
          variant_vector (Database.set_provenance Database.Exogenous f db_rel) i
        in
        let without_f = variant_vector (Database.remove f db_rel) i in
        Sumk.score_of_vectors ~score ~players:n with_f without_f
      end
  | None -> plain

let batch_worker ?(score = Aggshap_arith.Score.Shapley) ?memo
    (a : Agg_query.t) db =
  check a;
  match a.alpha with
  | Aggregate.Max -> max_batch_worker ~score ?memo a db
  | Aggregate.Min ->
    let worker = max_batch_worker ~score ?memo (negate_tau a) db in
    fun f -> Q.neg (worker f)
  | other ->
    invalid_arg ("Minmax: aggregate " ^ Aggregate.to_string other ^ " is not min/max")

let shapley_all a db = Sumk.shapley_all_of sum_k a db
