module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Value = Aggshap_relational.Value
module Solver = Aggshap_core.Solver
module Update = Aggshap_incr.Update
module Script = Aggshap_incr.Script

type t = {
  trial : Trial.t;
  ops : Update.t list;
}

(* Update trials replay through a live session, which serves only
   queries inside their aggregate's frontier: scan derived seeds until
   the generated trial is. The scan is deterministic, so a
   trial is still fully determined by its seed. *)
let rec base_trial ?max_endo ~seed i =
  let t = Trial.generate ?max_endo ~seed:(seed + (i * 0x9e3779)) () in
  if Solver.within_frontier t.Trial.alpha t.Trial.query then t
  else base_trial ?max_endo ~seed (i + 1)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* Mirrors the τ placement of {!Trial.generate}: constants anywhere,
   value-dependent specs only at free positions (localized on every
   database, so [set_tau] can never fail localization mid-stream). *)
let random_tau_spec rng (q : Cq.t) =
  let const () =
    Trial.Const (List.hd (Cq.relations q), pick rng [ Q.one; Q.of_int 2; Q.minus_one ])
  in
  let frees =
    List.concat_map
      (fun (a : Cq.atom) ->
        List.concat
          (List.mapi
             (fun i term ->
               match term with
               | Cq.Var v when Cq.is_free q v -> [ (a.Cq.rel, i) ]
               | _ -> [])
             (Array.to_list a.Cq.terms)))
      q.Cq.body
  in
  match frees with
  | [] -> const ()
  | frees -> (
    let rel, pos = pick rng frees in
    match Random.State.int rng 4 with
    | 0 -> const ()
    | 1 -> Trial.Relu (rel, pos)
    | 2 -> Trial.Gt (rel, pos, Q.of_int (Random.State.int rng 3))
    | _ -> Trial.Id (rel, pos))

let random_fact rng (q : Cq.t) =
  let atom = pick rng q.Cq.body in
  Fact.make atom.Cq.rel
    (List.init (Array.length atom.Cq.terms) (fun _ -> Value.Int (Random.State.int rng 4)))

let generate ?(max_endo = 8) ~seed () =
  let max_endo = min max_endo Aggshap_core.Game.max_players in
  let trial = base_trial ~max_endo ~seed 0 in
  let rng = Random.State.make [| seed; 0x0bda7e |] in
  let n_ops = 1 + Random.State.int rng 6 in
  let db = ref trial.Trial.db in
  let ops =
    List.init n_ops (fun _ ->
        let op =
          match Random.State.int rng 4 with
          | (0 | 1) when Database.size !db > 0 && Random.State.int rng 3 > 0 ->
            Update.Delete (pick rng (Database.facts !db))
          | 0 | 1 | 2 ->
            let f = random_fact rng trial.Trial.query in
            let prov =
              if Database.endo_size !db >= max_endo || Random.State.int rng 4 = 0
              then Database.Exogenous
              else Database.Endogenous
            in
            Update.Insert (f, prov)
          | _ ->
            let spec = random_tau_spec rng trial.Trial.query in
            Update.Set_tau (Trial.tau_to_value_fn spec, Trial.tau_to_cli spec)
        in
        (match op with
         | Update.Insert (f, prov) -> db := Database.add ~provenance:prov f !db
         | Update.Delete f -> db := Database.remove f !db
         | Update.Set_tau _ -> ());
        op)
  in
  { trial; ops }

(* A trial the session can replay without tripping its own argument
   checks: every delete targets a fact present at that point of the
   stream. The shrinker must preserve this — an op script failing with
   "delete of absent fact" would shadow the disagreement being hunted. *)
let wellformed t =
  Solver.within_frontier t.trial.Trial.alpha t.trial.Trial.query
  && (let db = ref t.trial.Trial.db in
      List.for_all
        (fun op ->
          match op with
          | Update.Insert (f, prov) ->
            db := Database.add ~provenance:prov f !db;
            true
          | Update.Delete f ->
            let present = Database.mem f !db in
            if present then db := Database.remove f !db;
            present
          | Update.Set_tau (vf, _) ->
            List.mem vf.Aggshap_agg.Value_fn.rel (Cq.relations t.trial.Trial.query))
        t.ops)

let to_string t =
  Printf.sprintf "%s | ops: %s" (Trial.to_string t.trial)
    (String.concat "; " (List.map Update.to_string t.ops))

let to_script t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Trial.to_script t.trial);
  Buffer.add_string buf "cat > repro.updates <<'EOF'\n";
  Buffer.add_string buf (Script.to_string t.ops);
  Buffer.add_string buf "EOF\n";
  Buffer.add_string buf
    (Printf.sprintf "shapctl session -q '%s' -d repro.facts -a %s -t %s -u repro.updates\n"
       (Cq.to_string t.trial.Trial.query)
       (Aggshap_agg.Aggregate.to_string t.trial.Trial.alpha)
       (Trial.tau_to_cli t.trial.Trial.tau))
  ;
  Buffer.contents buf
