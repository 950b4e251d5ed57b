module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module C = Aggshap_arith.Combinat
module Cq = Aggshap_cq.Cq
module Agg_query = Aggshap_agg.Agg_query
module Value_fn = Aggshap_agg.Value_fn
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact

(* Check the single-atom premises and return the endogenous facts of the
   (unique) relation together with the τ-value of the target fact. *)
let prepare (a : Agg_query.t) db (f : Fact.t) =
  let atom =
    match a.query.Cq.body with
    | [ atom ] -> atom
    | _ -> invalid_arg "Closed_form: the query must have a single atom"
  in
  let atom_vars = Cq.atom_vars atom in
  if List.length atom_vars <> Array.length atom.Cq.terms then
    invalid_arg "Closed_form: the atom must apply distinct variables";
  if a.query.Cq.head <> atom_vars then
    invalid_arg "Closed_form: the head must repeat the atom variables";
  if Database.exogenous db <> [] then
    invalid_arg "Closed_form: all facts must be endogenous";
  if not (Database.mem f db) then invalid_arg "Closed_form: fact not in the database";
  let facts =
    List.filter (fun (g : Fact.t) -> String.equal g.rel atom.Cq.rel) (Database.facts db)
  in
  if List.length facts <> Database.size db then
    invalid_arg "Closed_form: the database must contain only facts of the query atom";
  (facts, Value_fn.apply a.tau f.args)

let cdist_single_atom a db f =
  let facts, v = prepare a db f in
  let same =
    List.length (List.filter (fun (g : Fact.t) -> Q.equal (Value_fn.apply a.tau g.args) v) facts)
  in
  Q.of_ints 1 same

let max_single_atom_with tau_of a db f =
  let facts, _ = prepare a db f in
  let v = tau_of f in
  let n = List.length facts in
  let values = List.sort_uniq Q.compare (List.map tau_of facts) in
  let count pred = List.length (List.filter (fun g -> pred (tau_of g)) facts) in
  let tail =
    List.fold_left
      (fun acc a_val ->
        if Q.compare a_val v >= 0 then acc
        else begin
          let m_le = count (fun w -> Q.compare w a_val <= 0) in
          let m_lt = count (fun w -> Q.compare w a_val < 0) in
          let inner =
            Aggshap_arith.Score.(finish Shapley) ~den:B.one ~n (fun k ->
                B.sub (C.binomial m_le k) (C.binomial m_lt k))
          in
          Q.add acc (Q.mul (Q.sub v a_val) inner)
        end)
      Q.zero values
  in
  Q.add (Q.div_int v n) tail

let max_single_atom (a : Agg_query.t) db f =
  max_single_atom_with (fun (g : Fact.t) -> Value_fn.apply a.tau g.args) a db f

let min_single_atom (a : Agg_query.t) db f =
  Q.neg (max_single_atom_with (fun (g : Fact.t) -> Q.neg (Value_fn.apply a.tau g.args)) a db f)

let avg_single_atom a db f =
  let facts, v = prepare a db f in
  let n = List.length facts in
  let h = C.harmonic n in
  let first = Q.mul (Q.div_int h n) v in
  if n = 1 then first
  else begin
    let others =
      List.fold_left
        (fun acc (g : Fact.t) ->
          if Fact.equal g f then acc else Q.add acc (Value_fn.apply a.tau g.args))
        Q.zero facts
    in
    let coeff = Q.div_int (Q.div_int (Q.sub h Q.one) n) (n - 1) in
    Q.sub first (Q.mul coeff others)
  end
