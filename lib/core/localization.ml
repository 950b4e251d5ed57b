module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module C = Aggshap_arith.Combinat
module Cq = Aggshap_cq.Cq
module Parser = Aggshap_cq.Parser
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Value = Aggshap_relational.Value
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query

let q_xyyz = Parser.parse_query_exn "Q(x, z) <- R(x, y), S(y), T(z)"
let q_full = Parser.parse_query_exn "Q(x, y) <- R(x, y), S(y)"
let q_t = Parser.parse_query_exn "Q(z) <- T(z)"
let q_rs_bool = Parser.parse_query_exn "Q() <- R(x, y), S(y)"

(* A(E) = α(τ over T-part) · 1[the (R,S)-part is nonempty], because the
   (R,S) answer count only scales multiplicities uniformly — harmless for
   Avg and Med. Hence sum_k is the convolution of the two parts. *)
let on_t_sum_k alpha tau db =
  if not (String.equal tau.Value_fn.rel "T") then
    invalid_arg "Localization: τ must be localized on T";
  let db_t, rest = Database.restrict_relations [ "T" ] db in
  let db_rs, pad = Database.restrict_relations [ "R"; "S" ] rest in
  let a1 = Agg_query.make alpha tau q_t in
  let avg_part = Avg_quantile.sum_k a1 db_t in
  let bool_part = Tables.to_rationals (Boolean_dp.counts q_rs_bool db_rs) in
  Tables.pad_rat (Database.endo_size pad) (Tables.convolve_rat avg_part bool_part)

let avg_on_t_sum_k tau db = on_t_sum_k Aggregate.Avg tau db
let median_on_t_sum_k tau db = on_t_sum_k Aggregate.Median tau db

(* Dup ∘ τ_id² ∘ Q_full: group facts by the y-value; within the class of
   [b], a subset has a duplicate iff S(b) is available and at least two
   facts R(·,b) are. The per-class count is closed-form (Prop 7.3's
   proof), and classes convolve. *)
type y_class = {
  r_endo : int;
  r_exo : int;
  s_present : bool;
  s_endo : bool;
}

let empty_class = { r_endo = 0; r_exo = 0; s_present = false; s_endo = false }

module VMap = Map.Make (Value)

let classify_facts db =
  Database.fold
    (fun (f : Fact.t) p (classes, pad) ->
      let endo = p = Database.Endogenous in
      match f.rel, Array.length f.args with
      | "R", 2 ->
        let key = f.args.(1) in
        let c = Option.value (VMap.find_opt key classes) ~default:empty_class in
        let c =
          if endo then { c with r_endo = c.r_endo + 1 } else { c with r_exo = c.r_exo + 1 }
        in
        (VMap.add key c classes, pad)
      | "S", 1 ->
        let key = f.args.(0) in
        let c = Option.value (VMap.find_opt key classes) ~default:empty_class in
        (VMap.add key { c with s_present = true; s_endo = endo } classes, pad)
      | _ -> (classes, pad + if endo then 1 else 0))
    db
    (VMap.empty, 0)

let class_dup_counts c =
  let delta = if c.s_endo then 1 else 0 in
  let n_i = c.r_endo + delta in
  Array.init (n_i + 1) (fun k ->
      if c.s_present && k >= delta && k - delta + c.r_exo >= 2 then
        C.binomial c.r_endo (k - delta)
      else B.zero)

let dup_on_y_sum_k db =
  let classes, pad = classify_facts db in
  let nodup =
    Tables.convolve_many
      (VMap.fold
         (fun _ c acc ->
           let n_i = c.r_endo + if c.s_endo then 1 else 0 in
           Tables.sub (Tables.full n_i) (class_dup_counts c) :: acc)
         classes [])
  in
  let nodup = Tables.pad pad nodup in
  let n = Database.endo_size db in
  Tables.to_rationals (Tables.sub (Tables.full n) nodup)

let shapley sum_k db f =
  Sumk.score_of_db_fn ~score:Aggshap_arith.Score.Shapley sum_k db f
let avg_on_t_shapley tau db f = shapley (avg_on_t_sum_k tau) db f
let median_on_t_shapley tau db f = shapley (median_on_t_sum_k tau) db f
let dup_on_y_shapley db f = shapley dup_on_y_sum_k db f
