(* The knowledge-compilation tier: exact Shapley beyond the frontier.

   Pipeline (DESIGN.md §10):

   1. Extraction. Enumerate the homomorphisms of the full database once
      through the plan-compiled evaluator ({!Aggshap_cq.Eval}); each
      answer tuple collects one minterm per homomorphism — the AND of
      its endogenous witness facts (exogenous facts are always present;
      an all-exogenous witness makes the lineage [true]). The OR of the
      minterms is the answer's Boolean lineage, and τ-localization
      pins one τ-value per answer (checked, like [Agg_query]).

   2. Decomposition. Shapley is linear in the utility, so any aggregate
      expressible as a linear combination Σ c_j·1[φ_j] of Boolean-event
      indicators reduces to Boolean-game Shapley values:

        Sum            Σ_ans τ(ans)·1[lin_ans]
        Count          Σ_ans 1[lin_ans]
        Count-distinct Σ_v 1[∨_{τ(ans)=v} lin_ans]
        Max            v_1·1[E_1] + Σ_{j≥2} (v_j − v_{j−1})·1[E_j],
                         E_j = ∨_{τ(ans) ≥ v_j} lin_ans (v_1 < … < v_m)
        Min            v_m·1[F_m] + Σ_{j<m} (v_j − v_{j+1})·1[F_j],
                         F_j = ∨_{τ(ans) ≤ v_j} lin_ans
        Has-dup        1[∨_{τ(a)=τ(b), a≠b} (lin_a ∧ lin_b)]

      The telescoping Max/Min forms agree with [Aggregate.apply] on the
      empty bag (value 0) and on negative τ-values. Min's events are
      Max's over the negated τ-values, weights negated (Min(bag) =
      −Max(−bag), as in [Minmax.negate_tau]). Avg / Median /
      Quantile are not linear in any event basis — {!supports} says so
      and the solver falls through to naive enumeration for them. The
      constant shift −α(exogenous part) of the utility has Shapley
      value zero and is never encoded.

   3. Counting. Each distinct event formula (the weights of shared
      formulas are merged first) compiles to a d-DNNF once: its
      variable-disjoint parts become independent AND/OR nodes, and
      the rest branches in the order the formula first mentions its
      facts. One
      {!Ddnnf.slices} pass over the circuit gives every variable's
      slice Δ_p(k) = C1_k − C0_k (its conditioned model counts,
      differenced), and {!Score.finish} weighs it over the circuit's
      own s variables, not all n facts: the facts outside vars(φ) are
      null players of the event, which changes neither the Shapley
      nor the Banzhaf value of the others and leaves their own at
      zero, so they cost nothing; a one-fact solve skips every event
      that does not mention its fact. Any Shapley-like score is linear
      in the utility, so the events' values sum to the aggregate's. *)

module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Score = Aggshap_arith.Score
module Cq = Aggshap_cq.Cq
module Eval = Aggshap_cq.Eval
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Value = Aggshap_relational.Value
module Aggregate = Aggshap_agg.Aggregate
module Agg_query = Aggshap_agg.Agg_query
module Value_fn = Aggshap_agg.Value_fn

let supports = function
  | Aggregate.Sum | Aggregate.Count | Aggregate.Count_distinct | Aggregate.Min
  | Aggregate.Max | Aggregate.Has_duplicates -> true
  | Aggregate.Avg | Aggregate.Median | Aggregate.Quantile _ -> false

module TupleMap = Map.Make (struct
  type t = Value.t array

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i >= la then 0
        else
          let c = Value.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
    end
end)

module QMap = Map.Make (struct
  type t = Q.t

  let compare = Q.compare
end)

module FactTbl = Hashtbl.Make (Fact)

type extraction = {
  players : Fact.t array;  (* endogenous facts, Database.endogenous order *)
  answers : (Q.t * Formula.t) list;  (* per answer: τ-value, lineage *)
  store : Formula.store;
}

let extract (a : Agg_query.t) db =
  let players = Array.of_list (Database.endogenous db) in
  let index = FactTbl.create (Array.length players) in
  Array.iteri (fun i f -> FactTbl.replace index f i) players;
  let store = Formula.create_store () in
  let r_atom =
    match Cq.find_atom a.query a.tau.Value_fn.rel with
    | Some atom -> atom
    | None -> invalid_arg "Lineage.extract: localization atom missing"
  in
  let per_answer = ref TupleMap.empty in
  Eval.visit_homomorphisms a.query db (fun sigma ->
      let answer = Eval.apply_head a.query sigma in
      let r_fact = Eval.atom_image r_atom sigma in
      let v = Value_fn.apply a.tau r_fact.Fact.args in
      let witness =
        List.filter_map
          (fun atom -> FactTbl.find_opt index (Eval.atom_image atom sigma))
          a.query.Cq.body
        |> List.sort_uniq compare
      in
      let minterm = Formula.and_ store (List.map (Formula.var store) witness) in
      per_answer :=
        TupleMap.update answer
          (function
            | None -> Some (v, ref [ minterm ])
            | Some (v', minterms) ->
              if Q.equal v v' then begin
                minterms := minterm :: !minterms;
                Some (v', minterms)
              end
              else
                invalid_arg
                  "Lineage: value function is not localized on this database \
                   (one answer, two τ-values)")
          !per_answer;
      true);
  let answers =
    List.map
      (fun (_, (v, minterms)) -> (v, Formula.or_ store !minterms))
      (TupleMap.bindings !per_answer)
  in
  { players; answers; store }

(* Group the answer lineages by τ-value, ascending. *)
let by_value answers =
  QMap.bindings
    (List.fold_left
       (fun m (v, lin) ->
         QMap.update v
           (function None -> Some [ lin ] | Some l -> Some (lin :: l))
           m)
       QMap.empty answers)

let rec events alpha store answers =
  match alpha with
  | Aggregate.Sum -> List.map (fun (v, lin) -> (v, lin)) answers
  | Aggregate.Count -> List.map (fun (_, lin) -> (Q.one, lin)) answers
  | Aggregate.Count_distinct ->
    List.map (fun (_, lins) -> (Q.one, Formula.or_ store lins)) (by_value answers)
  | Aggregate.Max ->
    (* Suffix ORs: E_j (answers valued ≥ v_j) shrink as j grows; the
       telescoped weights v_1·[E_1] + Σ_{j≥2} (v_j − v_{j−1})·[E_j]
       reconstruct the maximum present value and vanish on the empty
       bag. E_j's coefficient needs the next lower value, so each
       event is patched when its successor arrives. *)
    let groups = List.rev (by_value answers) in  (* descending *)
    let _, _, evs =
      List.fold_left
        (fun (suffix, higher, evs) (v, lins) ->
          let e = Formula.or_ store (suffix @ lins) in
          let evs =
            match (higher, evs) with
            | Some v', (_, e') :: rest -> (Q.sub v' v, e') :: rest
            | _ -> evs
          in
          ([ e ], Some v, (v, e) :: evs))
        ([], None, []) groups
    in
    evs
  | Aggregate.Min ->
    (* Min = −Max over negated τ-values (the identity
       [Minmax.negate_tau] relies on): the Max events of −τ are the
       F_j, highest value first, so negating their weights and
       reversing them gives F_1 … F_m. *)
    events Aggregate.Max store (List.map (fun (v, lin) -> (Q.neg v, lin)) answers)
    |> List.rev_map (fun (c, f) -> (Q.neg c, f))
  | Aggregate.Has_duplicates ->
    let pairs =
      List.concat_map
        (fun (_, lins) ->
          let rec go = function
            | [] | [ _ ] -> []
            | a :: rest ->
              List.map (fun b -> Formula.and_ store [ a; b ]) rest @ go rest
          in
          go lins)
        (by_value answers)
    in
    [ (Q.one, Formula.or_ store pairs) ]
  | Aggregate.Avg | Aggregate.Median | Aggregate.Quantile _ ->
    invalid_arg
      (Printf.sprintf
         "Lineage: %s is not a linear combination of Boolean events \
          (use the naive fallback)"
         (Aggregate.to_string alpha))

(* Merge events sharing a formula (Max/Min suffix chains reuse them)
   and drop the trivial ones: constants are constant shifts (score
   zero) and zero weights contribute nothing. *)
let merge_events evs =
  let order = ref [] in
  let coeffs = Hashtbl.create 16 in
  List.iter
    (fun (c, fml) ->
      let fid = Formula.id fml in
      match Hashtbl.find_opt coeffs fid with
      | Some (c', _) -> Hashtbl.replace coeffs fid (Q.add c c', fml)
      | None ->
        Hashtbl.add coeffs fid (c, fml);
        order := fid :: !order)
    evs;
  List.rev !order
  |> List.filter_map (fun fid ->
         let c, fml = Hashtbl.find coeffs fid in
         if Q.is_zero c || Formula.is_true fml || Formula.is_false fml then None
         else Some (c, fml))

let check_supported alpha =
  if not (supports alpha) then
    invalid_arg
      (Printf.sprintf "Lineage: %s is outside the knowledge-compilation tier"
         (Aggregate.to_string alpha))

(* Shared solve core: compile each merged event that mentions a
   requested player once, take every slice of its circuit in one pass,
   and finish the requested players' slices over the circuit's own
   variables. A player outside an event's formula is a null player of
   it and scores zero there, so the other events are skipped. [budget]
   caps the total d-DNNF node count across the compiled events;
   Ddnnf.Budget_exceeded escapes to the caller. *)
let solve ~score ?budget (a : Agg_query.t) db select =
  check_supported a.Agg_query.alpha;
  let ext = extract a db in
  let n = Array.length ext.players in
  let acc = Array.make (max n 1) Q.zero in
  if n > 0 then begin
    let evs =
      merge_events (events a.Agg_query.alpha ext.store ext.answers)
      |> List.filter (fun (_, fml) -> Formula.ISet.exists select (Formula.var_set fml))
    in
    let mgr = Ddnnf.create ?budget ext.store in
    List.iter
      (fun (c, fml) ->
        let circuit = Ddnnf.compile mgr fml in
        let s = Ddnnf.size circuit in
        List.iter
          (fun (p, slice) ->
            if select p then
              acc.(p) <-
                Q.add acc.(p)
                  (Q.mul c (Score.finish score ~den:B.one ~n:s (Array.get slice))))
          (Ddnnf.slices mgr circuit))
      evs
  end;
  (ext.players, acc)

let shapley_all ?(score = Score.Shapley) ?budget (a : Agg_query.t) db =
  let players, acc = solve ~score ?budget a db (fun _ -> true) in
  Array.to_list (Array.mapi (fun i f -> (f, acc.(i))) players)

let shapley ?(score = Score.Shapley) ?budget (a : Agg_query.t) db f =
  match Database.provenance db f with
  | Some Database.Endogenous ->
    let target =
      let rec idx i = function
        | [] -> assert false  (* endogenous ⇒ present *)
        | g :: rest -> if Fact.equal g f then i else idx (i + 1) rest
      in
      idx 0 (Database.endogenous db)
    in
    let _, acc = solve ~score ?budget a db (fun p -> p = target) in
    acc.(target)
  | _ -> invalid_arg ("Lineage.shapley: fact is not endogenous: " ^ Fact.to_string f)
