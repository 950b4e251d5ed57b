module Q = Aggshap_arith.Rational
module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Database = Aggshap_relational.Database

type stats = { cache : Memo.stats option }

(* The per-algorithm memos are keyed on (sub-query, block fingerprint)
   only: the value function τ (and the aggregate choosing how its tables
   are read) is outside the key. A memo reused across runs is therefore
   stamped with a fingerprint of everything outside the key, and
   [shapley_all] refuses a memo stamped for a different run. [descr] is
   injective for every built-in value function; custom value functions
   must choose distinguishing descriptions to be safely reusable. *)
type memo_impl =
  | M_sum_count of Sum_count.memo
  | M_cdist of Cdist.memo
  | M_minmax of Minmax.memo
  | M_avg of Avg_quantile.memo
  | M_dup of Dup.memo

type memo = {
  impl : memo_impl;
  fingerprint : string;
}

let fingerprint_of (a : Agg_query.t) =
  String.concat "\x00"
    [ Aggregate.to_string a.alpha; a.tau.Value_fn.rel; a.tau.Value_fn.descr;
      Aggshap_cq.Cq.to_string a.query ]

let create_memo (a : Agg_query.t) =
  let impl =
    match a.alpha with
    | Aggregate.Sum | Aggregate.Count -> M_sum_count (Sum_count.create_memo ())
    | Aggregate.Count_distinct -> M_cdist (Cdist.create_memo ())
    | Aggregate.Min | Aggregate.Max -> M_minmax (Minmax.create_memo ())
    | Aggregate.Avg | Aggregate.Median | Aggregate.Quantile _ ->
      M_avg (Avg_quantile.create_memo ())
    | Aggregate.Has_duplicates -> M_dup (Dup.create_memo ())
  in
  { impl; fingerprint = fingerprint_of a }

let impl_stats = function
  | M_sum_count m -> Sum_count.memo_stats m
  | M_cdist m -> Cdist.memo_stats m
  | M_minmax m -> Minmax.memo_stats m
  | M_avg m -> Avg_quantile.memo_stats m
  | M_dup m -> Dup.memo_stats m

let memo_stats m = impl_stats m.impl

let check_memo (a : Agg_query.t) m =
  if m.fingerprint <> fingerprint_of a then
    invalid_arg
      "Batch: memo was created for a different (aggregate, tau, query); \
       create a fresh one (tau is outside the DP-table cache key)"

(* One all-facts solve per tractable aggregate family. Without a memo
   every DP node is computed afresh; with one, the fingerprint check
   above keeps the τ-outside-the-key caveat of the per-algorithm memos. *)
let solve ~score ~memo (a : Agg_query.t) db =
  let pick f = Option.bind memo f in
  match a.alpha with
  | Aggregate.Sum | Aggregate.Count ->
    let memo = pick (function M_sum_count m -> Some m | _ -> None) in
    Sum_count.batch ~score ?memo a db
  | Aggregate.Count_distinct ->
    let memo = pick (function M_cdist m -> Some m | _ -> None) in
    Cdist.batch ~score ?memo a db
  | Aggregate.Min | Aggregate.Max ->
    let memo = pick (function M_minmax m -> Some m | _ -> None) in
    Minmax.batch ~score ?memo a db
  | Aggregate.Avg | Aggregate.Median | Aggregate.Quantile _ ->
    let memo = pick (function M_avg m -> Some m | _ -> None) in
    Avg_quantile.batch ~score ?memo a db
  | Aggregate.Has_duplicates ->
    let memo = pick (function M_dup m -> Some m | _ -> None) in
    Dup.batch ~score ?memo a db

let shapley_all ?(score = Aggshap_arith.Score.Shapley) ?jobs:_ ?memo (a : Agg_query.t) db =
  if not (Frontier.within a.alpha a.query) then
    invalid_arg "Batch.shapley_all: query is outside the tractability frontier";
  let memo =
    Option.map
      (fun m ->
        check_memo a m;
        m.impl)
      memo
  in
  let results = solve ~score ~memo a db in
  (results, { cache = Option.map impl_stats memo })

let map ?jobs f facts = Pool.map ?jobs (fun x -> (x, f x)) facts
