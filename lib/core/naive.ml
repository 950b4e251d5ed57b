module Q = Aggshap_arith.Rational
module Agg_query = Aggshap_agg.Agg_query
module Database = Aggshap_relational.Database

let coalition_db players exo mask =
  let db = ref exo in
  Array.iteri
    (fun i f -> if mask land (1 lsl i) <> 0 then db := Database.add ~provenance:Database.Endogenous f !db)
    players;
  !db

let game ?visit a db =
  let players = Array.of_list (Database.endogenous db) in
  let exo = Database.filter (fun _ p -> p = Database.Exogenous) db in
  (* Forced by the first coalition: a game without players evaluates
     nothing. *)
  let base = lazy (Agg_query.eval ?visit a exo) in
  let utility mask =
    Q.sub (Agg_query.eval ?visit a (coalition_db players exo mask)) (Lazy.force base)
  in
  (players, Game.make ~n:(Array.length players) utility)

let index_of players f =
  let found = ref (-1) in
  Array.iteri (fun i g -> if Aggshap_relational.Fact.equal f g then found := i) players;
  if !found < 0 then invalid_arg "Naive: fact is not endogenous in the database";
  !found

let shapley ?(score = Aggshap_arith.Score.Shapley) a db f =
  let players, g = game a db in
  let i = index_of players f in
  match score with
  | Aggshap_arith.Score.Shapley -> Game.shapley g i
  | Aggshap_arith.Score.Banzhaf -> Game.banzhaf g i

let shapley_all ?visit a db =
  let players, g = game ?visit a db in
  let values = Game.shapley_all g in
  Array.to_list (Array.mapi (fun i f -> (f, values.(i))) players)

let sum_k a db =
  let players = Array.of_list (Database.endogenous db) in
  let exo = Database.filter (fun _ p -> p = Database.Exogenous) db in
  let n = Array.length players in
  if n > Game.max_players then
    invalid_arg "Naive.sum_k: too many endogenous facts for enumeration";
  let out = Array.make (n + 1) Q.zero in
  for mask = 0 to (1 lsl n) - 1 do
    let k =
      let rec pop m acc = if m = 0 then acc else pop (m lsr 1) (acc + (m land 1)) in
      pop mask 0
    in
    out.(k) <- Q.add out.(k) (Agg_query.eval a (coalition_db players exo mask))
  done;
  out
