module Cq = Aggshap_cq.Cq
module Database = Aggshap_relational.Database

(* Dropping an atom narrows the head to the variables that still occur
   and discards the facts of the removed relation. The τ-atom must stay:
   the value function would otherwise dangle. *)
let drop_atom (t : Trial.t) rel =
  if String.equal rel (Trial.tau_rel t.tau) then None
  else begin
    let body = List.filter (fun (a : Cq.atom) -> not (String.equal a.Cq.rel rel)) t.query.Cq.body in
    if body = [] then None
    else begin
      let remaining_vars = List.concat_map Cq.atom_vars body in
      let head = List.filter (fun v -> List.mem v remaining_vars) t.query.Cq.head in
      match Cq.make ~name:t.query.Cq.name ~head body with
      | q ->
        let db, _ = Database.restrict_relations (Cq.relations q) t.db in
        Some { t with query = q; db }
      | exception Invalid_argument _ -> None
    end
  end

(* Greedy descent: accept the first candidate that still fails, restart
   from it; stop when no single removal keeps the trial failing. *)
let rec descend check candidates_of t f =
  let rec scan = function
    | [] -> (t, f)
    | candidate :: rest -> (
      match candidate t with
      | None -> scan rest
      | Some t' -> (
        match check t' with
        | Some f' -> descend check candidates_of t' f'
        | None -> scan rest))
  in
  scan (candidates_of t)

let fact_candidates (t : Trial.t) =
  List.map
    (fun fact (t : Trial.t) -> Some { t with db = Database.remove fact t.db })
    (Database.facts t.db)

let atom_candidates (t : Trial.t) =
  List.map
    (fun (a : Cq.atom) (t : Trial.t) -> drop_atom t a.Cq.rel)
    t.query.Cq.body

(* Update-trial candidates: drop one op, or one base-database fact —
   whenever the result is still wellformed (a delete aimed at a fact the
   shrink just removed would fail for the wrong reason). *)
let op_candidates (u : Utrial.t) =
  List.mapi
    (fun i _ (u : Utrial.t) ->
      let ops = List.filteri (fun j _ -> j <> i) u.Utrial.ops in
      let u' = { u with Utrial.ops } in
      if Utrial.wellformed u' then Some u' else None)
    u.Utrial.ops

let base_fact_candidates (u : Utrial.t) =
  List.map
    (fun fact (u : Utrial.t) ->
      let trial =
        { u.Utrial.trial with Trial.db = Database.remove fact u.Utrial.trial.Trial.db }
      in
      let u' = { u with Utrial.trial } in
      if Utrial.wellformed u' then Some u' else None)
    (Database.facts u.Utrial.trial.Trial.db)

(* Ops before base facts: a shorter script usually un-blocks base facts
   that only existed to be deleted. *)
let minimize_updates check u f =
  descend check (fun u -> op_candidates u @ base_fact_candidates u) u f

(* Facts (cheap, large search space) before atoms; an atom removal that
   unlocks more facts restarts the descent at the facts. *)
let minimize check t f =
  descend check (fun t -> fact_candidates t @ atom_candidates t) t f
