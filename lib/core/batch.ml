module Agg_query = Aggshap_agg.Agg_query
module Aggregate = Aggshap_agg.Aggregate

type stats = { cache : Memo.stats option }

(* One all-facts solve per tractable aggregate family. *)
let shapley_all ?(score = Aggshap_arith.Score.Shapley) ?jobs:_ (a : Agg_query.t) db =
  if not (Frontier.within a.alpha a.query) then
    invalid_arg "Batch.shapley_all: query is outside the tractability frontier";
  let results =
    match a.alpha with
    | Aggregate.Sum | Aggregate.Count -> Sum_count.batch ~score a db
    | Aggregate.Count_distinct -> Cdist.batch ~score a db
    | Aggregate.Min | Aggregate.Max -> Minmax.batch ~score a db
    | Aggregate.Avg | Aggregate.Median | Aggregate.Quantile _ -> Avg_quantile.batch ~score a db
    | Aggregate.Has_duplicates -> Dup.batch ~score a db
  in
  (results, { cache = None })
