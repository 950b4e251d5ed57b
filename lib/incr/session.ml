module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Decompose = Aggshap_cq.Decompose
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database
module Aggregate = Aggshap_agg.Aggregate
module Agg_query = Aggshap_agg.Agg_query
module Batch = Aggshap_core.Batch
module Boolean_dp = Aggshap_core.Boolean_dp
module Sum_count = Aggshap_core.Sum_count
module Sumk = Aggshap_core.Sumk
module Frontier = Aggshap_core.Frontier
module Memo = Aggshap_core.Memo
module Fault = Aggshap_arith.Fault

type stats = {
  steps : int;
  games_computed : int;
  games_reused : int;
  tables : Memo.stats;
}

let reuse_ratio s =
  let total = s.games_computed + s.games_reused in
  if total = 0 then None else Some (float_of_int s.games_reused /. float_of_int total)

let stats_to_string s =
  let ratio =
    match reuse_ratio s with
    | None -> "n/a"
    | Some r -> Printf.sprintf "%.1f%%" (100.0 *. r)
  in
  Printf.sprintf "steps=%d games=%d computed/%d reused (reuse %s)" s.steps
    s.games_computed s.games_reused ratio

(* One membership game — one answer tuple of the Sum/Count query —
   restricted to the facts matching its atoms. Everything outside that
   set is a null player of the game, so the per-fact contributions
   depend on nothing else and stay valid until an update touches a
   matching fact. Keyed by the canonical grounded-query string. *)
type game_entry = {
  mq : Cq.t;
  mutable dirty : bool;
  mutable contribs : (Fact.t * Q.t) list;
  mutable last_read : int;  (* the read that last used the game *)
}

type engine =
  | Linear of (string, game_entry) Hashtbl.t
      (* Sum/Count: per-answer games, dirty-set invalidation *)
  | Generic  (* the other families: every read is a one-shot solve *)

type t = {
  mutable a : Agg_query.t;
  mutable db : Database.t;
  engine : engine;
  mutable steps : int;
  mutable games_computed : int;
  mutable games_reused : int;
  mutable reads : int;
}

let open_ (a : Agg_query.t) db =
  if not (Frontier.within a.alpha a.query) then
    invalid_arg "Incr.Session: query is outside the tractability frontier";
  let engine =
    match a.alpha with
    | Aggregate.Sum | Aggregate.Count -> Linear (Hashtbl.create 256)
    | _ -> Generic
  in
  { a; db; engine; steps = 0; games_computed = 0; games_reused = 0; reads = 0 }

let query t = t.a
let database t = t.db

let matches_game mq f =
  List.exists (fun atom -> Decompose.matches atom [] f) mq.Cq.body

(* Mark every game whose atoms can see [f] dirty. Under the
   [`Stale_block] fault, the first matching game (in key order, for
   deterministic replay) keeps its cached contributions — exactly the
   skipped-invalidation bug class the differential oracle must catch. *)
let invalidate games f =
  let matched = ref [] in
  Hashtbl.iter
    (fun key e -> if (not e.dirty) && matches_game e.mq f then matched := (key, e) :: !matched)
    games;
  let matched = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) !matched in
  let matched =
    match (!Fault.current, matched) with
    | `Stale_block, _ :: rest -> rest
    | _, all -> all
  in
  List.iter (fun (_, e) -> e.dirty <- true) matched

let apply t u =
  t.steps <- t.steps + 1;
  match u with
  | Update.Insert (f, prov) ->
    t.db <- Database.add ~provenance:prov f t.db;
    (match t.engine with Linear games -> invalidate games f | Generic -> ())
  | Update.Delete f ->
    if not (Database.mem f t.db) then
      invalid_arg ("Incr.Session: delete of absent fact " ^ Fact.to_string f);
    t.db <- Database.remove f t.db;
    (match t.engine with Linear games -> invalidate games f | Generic -> ())
  | Update.Set_tau (vf, _) ->
    (* Nothing to invalidate: membership games do not depend on τ (only
       the per-answer weights change, and those are re-derived on every
       read), and the Generic engine caches nothing. *)
    t.a <- Agg_query.make t.a.Agg_query.alpha vf t.a.Agg_query.query

(* The game restricted to its matching facts: identical Shapley values
   (a fact outside every atom is a null player, and null players change
   nobody's value), at the cost of the block it lives in instead of the
   whole database. One Boolean variant pass gives every fact that is
   not a null player its value; the others contribute nothing. *)
let compute_game t mq =
  let relevant, _pad = Decompose.relevant_part mq t.db in
  Boolean_dp.shapley_all mq relevant

(* A Linear read keeps exactly the games it used: the game of an answer
   that has left the database (or whose weight fell to zero) goes with
   it, so the cache is bounded by the current answers, not by every
   answer the session has seen. Each game records the last read that
   used it, and the table is swept only when it holds more games than
   this read used. *)
let shapley_all t =
  match t.engine with
  | Generic -> fst (Batch.shapley_all t.a t.db)
  | Linear games ->
    t.reads <- t.reads + 1;
    let used = ref 0 in
    let values =
      Sumk.in_order t.db
        (List.concat_map
           (fun (mq, weight) ->
             let key = Cq.to_string mq in
             let entry =
               match Hashtbl.find_opt games key with
               | Some e -> e
               | None ->
                 let e = { mq; dirty = true; contribs = []; last_read = 0 } in
                 Hashtbl.add games key e;
                 e
             in
             entry.last_read <- t.reads;
             incr used;
             if entry.dirty then begin
               entry.contribs <- compute_game t entry.mq;
               entry.dirty <- false;
               t.games_computed <- t.games_computed + 1
             end
             else t.games_reused <- t.games_reused + 1;
             List.map (fun (f, v) -> (f, Q.mul weight v)) entry.contribs)
           (Sum_count.membership_games t.a t.db))
    in
    if Hashtbl.length games > !used then
      Hashtbl.filter_map_inplace
        (fun _ e -> if e.last_read = t.reads then Some e else None)
        games;
    values

let stats t =
  { steps = t.steps; games_computed = t.games_computed;
    games_reused = t.games_reused; tables = { Memo.hits = 0; misses = 0 } }
