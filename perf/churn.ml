(* session_churn: a closed loop over two live incremental sessions,
   writes beside reads. Each step sends an update script to one session
   through Api.apply_script and then reads all its Shapley values with
   Session.shapley_all:
   - a Sum session on q_xyy, large enough that the linear engine's
     per-game cache and the relational indexes carry the read;
   - a Max session on q_xyy, read through the generic engine's
     persistent DP-table memo.
   Scripts move one R fact to another y-block and, on the session's
   next step, back: at most one of a fixed set of sixteen facts is away
   at a time, so each session cycles through a bounded set of states.
   The caches of both engines are never evicted, and under updates that
   keep reaching new states they grow by 0.15 MB (Sum) to 1.5 MB (Max)
   per update; here they stay bounded and most lookups hit, which is
   the reuse the incremental engine is for. Every [tau_every]-th script
   toggles τ between id and relu instead: equal values on these
   non-negative labels, but a full recompute for the generic engine. *)

module Api = Aggshap_api.Api
module Session = Aggshap_incr.Session
module Agg_query = Aggshap_agg.Agg_query
module Eval = Aggshap_cq.Eval

type mover = {
  x : int;
  home : int;
  away : int;  (** a y-block holding no R(x, _) fact *)
  exo : bool;
}

type tenant = {
  name : string;  (** also the aggregate *)
  session : Session.t;
  movers : mover array;
  tau_every : int;
  mutable tau : string;
  mutable steps : int;
  mutable moved : mover option;  (** the mover now away from home *)
}

(* Opens one tenant and reads it once, so the timed window starts from
   a warm session. *)
let open_tenant st tally ~name ~rows ~tau_every =
  let r, ys = Gen.xyy_facts st ~rows ~groups:(max 2 (rows / 20)) in
  let spec =
    { Api.query = Gen.q_xyy; db = Gen.xyy_text r ys; agg = name; tau = Some "id:R:0";
      jobs = Some 1 }
  in
  match Run.ok_or tally (name ^ ": open") (Api.open_session spec) with
  | None -> None
  | Some session ->
    ignore (Session.shapley_all session);
    let blocks = Hashtbl.create rows in
    List.iter (fun (x, y, _) -> Hashtbl.add blocks x y) r;
    let movers =
      r
      |> List.filter_map (fun (x, home, exo) ->
             let taken = Hashtbl.find_all blocks x in
             match List.filter (fun y -> not (List.mem y taken)) (Array.to_list ys) with
             | [] -> None
             | free ->
               let away = List.nth free (Random.State.int st (List.length free)) in
               Some { x; home; away; exo })
      |> Array.of_list
    in
    Gen.shuffle st movers;
    Some
      { name; session; movers = Array.sub movers 0 (min 16 (Array.length movers)); tau_every;
        tau = "id:R:0"; steps = 0; moved = None }

(* The Max tenant's instance does not depend on the seed: the cost of a
   generic-engine read depends on where the largest τ-values sit, by up
   to 2× between arrangements of one shape, and with a tenth of the
   reads this tenant decides p99. The seed still drives its update
   stream. *)
let setup (c : Run.config) tally =
  let st = Random.State.make [| c.seed |] in
  let sum = open_tenant st tally ~name:"sum" ~rows:(if c.smoke then 60 else 600) ~tau_every:50 in
  let max =
    open_tenant (Random.State.make [| 0 |]) tally ~name:"max"
      ~rows:(if c.smoke then 12 else 40) ~tau_every:10
  in
  (st, sum, max)

let script st t =
  t.steps <- t.steps + 1;
  if t.steps mod t.tau_every = 0 then begin
    t.tau <- (if t.tau = "id:R:0" then "relu:R:0" else "id:R:0");
    "set_tau " ^ t.tau
  end
  else
    let m, from, to_ =
      match t.moved with
      | Some m ->
        t.moved <- None;
        (m, m.away, m.home)
      | None ->
        let m = t.movers.(Random.State.int st (Array.length t.movers)) in
        t.moved <- Some m;
        (m, m.home, m.away)
    in
    Printf.sprintf "delete R(%d, %d)\ninsert R(%d, %d)%s" m.x from m.x to_
      (if m.exo then " @exo" else "")

type window = {
  mutable reads : float list;  (** untraced steps *)
  mutable updates : float list;  (** untraced steps *)
  mutable reads_traced : float list;
  mutable updates_traced : float list;
  mutable facts : int;  (** returned by untraced reads *)
  mutable scripts : string list;  (** traced steps: replayed for parse.ms *)
  reuse : int array;
      (** traced steps: games computed, games reused, memo hits, memo
          lookups, summed over reads *)
}

(* Read before and after each read: a τ flush replaces the generic
   engine's memo and its statistics with it, so only per-read
   differences add up. *)
let reuse_counts t =
  let s = Session.stats t.session in
  let m = s.Session.tables in
  [| s.Session.games_computed; s.Session.games_reused; m.Aggshap_core.Memo.hits;
     m.Aggshap_core.Memo.hits + m.Aggshap_core.Memo.misses |]

(* 90 % of the steps go to the Sum session. Its reads are the common,
   fast class that holds the median; the Max reads, a tenth of the
   reads, hold p99 near their own 90th percentile, away from both the
   class boundary and their noisy top. *)
let loop (c : Run.config) tally st (sum, max) ~tracing =
  let w =
    { reads = []; updates = []; reads_traced = []; updates_traced = []; facts = 0;
      scripts = []; reuse = Array.make 4 0 }
  in
  let deadline = Run.deadline_after c.seconds in
  let steps = ref 0 in
  let continue () = if c.smoke then !steps < 6 else Run.before deadline in
  while continue () do
    Host.tick ();
    incr steps;
    let t = if Random.State.int st 10 < 9 then sum else max in
    let text = script st t in
    let tr, sums = Run.pick tracing t.steps in
    let (applied, _), update_ms =
      Run.timed (fun () ->
          Trace.counted sums (fun () ->
              Trace.request tr "api.apply_script" (fun () -> Api.apply_script t.session text)))
    in
    ignore (Run.ok_or tally (t.name ^ ": update") applied);
    let before = if tr <> None then reuse_counts t else [||] in
    let (values, _), read_ms =
      Run.timed (fun () ->
          Trace.counted sums (fun () ->
              Trace.request tr "incr.shapley_all" (fun () -> Session.shapley_all t.session)))
    in
    if tr = None then begin
      w.updates <- update_ms :: w.updates;
      w.reads <- read_ms :: w.reads;
      w.facts <- w.facts + List.length values
    end
    else begin
      w.updates_traced <- update_ms :: w.updates_traced;
      w.reads_traced <- read_ms :: w.reads_traced;
      w.scripts <- text :: w.scripts;
      Array.iteri (fun i n -> w.reuse.(i) <- w.reuse.(i) + n - before.(i)) (reuse_counts t)
    end;
    Run.check tally (t.name ^ ": efficiency axiom")
      (Run.efficient (Session.query t.session) (Session.database t.session) values)
  done;
  w

(* The final state of each session must equal a from-scratch answer on
   its current database and τ: a fresh Api.shapley_all for the Max
   tenant, and a freshly opened session for the Sum tenant, whose batch
   solve at this size takes minutes (the linear engine is what makes
   the session cheap). *)
let final_check tally t =
  let a = Session.query t.session and db = Session.database t.session in
  let fresh =
    if t.name = "max" then
      Result.map (fun r -> Run.exact r.Api.values) (Api.shapley_all ~jobs:1 a db)
    else
      Result.map Session.shapley_all
        (Api.open_session
           { Api.query = Gen.q_xyy; db = Api.render_database db; agg = t.name;
             tau = Some t.tau; jobs = Some 1 })
  in
  match fresh with
  | Error msg -> Run.check tally (t.name ^ ": fresh solve: " ^ msg) false
  | Ok values ->
    Run.check tally (t.name ^ ": session differs from a fresh solve")
      (Run.same_values (Session.shapley_all t.session) values)

let layer_metrics tenants w (t : Run.tracing) =
  let reads = List.length w.reads_traced and updates = List.length w.updates_traced in
  let requests = reads + updates in
  let selfs = Trace.self_times t.tr in
  let spans name = Run.self_ms selfs (String.equal name) in
  let parse =
    List.fold_left (fun acc s -> acc +. Run.replay_ms 3 (fun () -> Api.parse_script s)) 0.0 w.scripts
  in
  let eval =
    List.fold_left
      (fun acc tenant ->
        let q = (Session.query tenant.session).Agg_query.query in
        acc +. Run.replay_ms 5 (fun () -> Eval.answers q (Session.database tenant.session)))
      0.0 tenants
    /. float_of_int (List.length tenants)
  in
  let reuse i = float_of_int w.reuse.(i) in
  [ Run.metric "parse.ms" "ms" (Run.per requests parse);
    Run.metric "eval.ms" "ms" eval;
    Run.metric "session.apply_ms" "ms" (Run.per updates (spans "api.apply_script"));
    Run.metric "session.read_ms" "ms" (Run.per reads (spans "incr.shapley_all"));
    Run.metric "session.reuse_ratio" "ratio" (Run.ratio (reuse 1) (reuse 0 +. reuse 1));
    Run.metric "session.games_computed" "count/op" (Run.per reads (reuse 0));
    Run.metric "session.memo_hit_ratio" "ratio" (Run.ratio (reuse 2) (reuse 3));
    Run.metric "update_p50_ms" "ms" (Run.percentile_ms w.updates 0.5);
    Run.metric "update_p99_ms" "ms" (Run.percentile_ms w.updates 0.99) ]
  @ Run.counter_metrics t.sums requests
  @ [ Run.metric "trace.overhead_pct" "%" (Run.overhead_pct ~untraced:w.reads ~traced:w.reads_traced);
      Run.metric "trace.coverage_min_pct" "%" (Trace.min_coverage_pct t.tr) ]

let run (c : Run.config) =
  let tally = Run.tally () in
  let (st, sum, max), setup_s = Run.setups c tally (fun () -> setup c tally) in
  match (sum, max) with
  | None, _ | _, None ->
    { Run.setup_s; solve_ms = []; facts = 0; attempted = tally.attempted;
      failed = tally.failed; peak_rss_mb = 0.0; layers = []; trace = None }
  | Some sum, Some max ->
    let tracing = Run.tracing c in
    let w = loop c tally st (sum, max) ~tracing in
    let peak = Run.own_peak_rss_mb () in
    let layers = Option.fold ~none:[] ~some:(layer_metrics [ sum; max ] w) tracing in
    final_check tally sum;
    final_check tally max;
    { Run.setup_s; solve_ms = w.reads; facts = w.facts; attempted = tally.attempted;
      failed = tally.failed; peak_rss_mb = peak; layers;
      trace = Option.map (fun t -> t.Run.tr) tracing }
