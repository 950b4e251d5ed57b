(* SHAPWIRE_v1: the newline-delimited JSON wire protocol of the session
   server. One request per line, one response line per request, in
   order. Requests name an op and (usually) a session:

     {"op": "open", "session": "t1", "query": "Q(x) <- R(x,y), S(y)",
      "db": "R(1, 10)\nS(10)\n", "agg": "sum", "tau": "id:R:0", "jobs": 2}
     {"op": "solve",   "session": "t1"}
     {"op": "update",  "session": "t1", "script": "insert R(4, 7)\ndelete R(1, 10)"}
     {"op": "set_tau", "session": "t1", "tau": "id:R:0"}
     {"op": "explain", "session": "t1"}
     {"op": "solve_query", "query": "Q() <- R(x), T(x,y), S(y)",
      "db": "R(1)\nT(1, 2)\nS(2)\n", "agg": "count",
      "fallback": "knowledge-compilation"}
     {"op": "stats"}  or  {"op": "stats", "session": "t1"}
     {"op": "close",   "session": "t1"}
     {"op": "ping"}
     {"op": "shutdown"}

   Responses carry {"ok": true, "op": ...} plus an op-specific payload,
   or {"ok": false, "line": N, "error": "..."} where N is the 1-based
   request line number on the connection. Shapley values travel as
   exact rational strings, never floats — the server's answers are
   bit-identical to the CLI's. *)

module Json = Aggshap_json.Json
module Api = Aggshap_api.Api

let ( let* ) = Result.bind

type request =
  | Open of { session : string; spec : Api.session_spec }
  | Solve of { session : string }
  | Update of { session : string; script : string }
  | Set_tau of { session : string; tau : string }
  | Explain of { session : string }
  | Stats of { session : string option }
  | Solve_query of {
      query : string;
      db : string;
      agg : string;
      tau : string option;
      fallback : string option;
      kc_node_budget : int option;
    }
  | Close of { session : string }
  | Ping
  | Shutdown

type session_stats = {
  steps : int;
  games_computed : int;
  games_reused : int;
  full_recomputes : int;
  facts : int;
  endogenous : int;
}

type response =
  | Opened of { session : string; facts : int }
  | Solved of { session : string; values : (string * string) list }
  | Updated of { session : string; applied : int }
  | Tau_set of { session : string }
  | Explained of {
      session : string;
      cls : string;
      frontier : string;
      within_frontier : bool;
      algorithm : string;
      plan : string list;  (* rendered planner candidates, chosen marked *)
    }
  | Session_stats of { session : string; stats : session_stats }
  | Server_stats of {
      sessions : (string * bool) list;  (** name, live (not evicted to disk) *)
      requests : int;
      evictions : int;
      restores : int;
    }
  | Query_solved of {
      algorithm : string;
      values : (string * string) list;
    }
  | Closed of { session : string }
  | Pong
  | Shutting_down
  | Error of { line : int option; message : string }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let opt_field name f = function None -> [] | Some v -> [ (name, f v) ]

let request_to_json = function
  | Open { session; spec } ->
    Json.Obj
      ([ ("op", Json.String "open");
         ("session", Json.String session);
         ("query", Json.String spec.Api.query);
         ("db", Json.String spec.Api.db);
         ("agg", Json.String spec.Api.agg) ]
      @ opt_field "tau" (fun s -> Json.String s) spec.Api.tau
      @ opt_field "jobs" (fun j -> Json.Int j) spec.Api.jobs)
  | Solve { session } ->
    Json.Obj [ ("op", Json.String "solve"); ("session", Json.String session) ]
  | Update { session; script } ->
    Json.Obj
      [ ("op", Json.String "update"); ("session", Json.String session);
        ("script", Json.String script) ]
  | Set_tau { session; tau } ->
    Json.Obj
      [ ("op", Json.String "set_tau"); ("session", Json.String session);
        ("tau", Json.String tau) ]
  | Explain { session } ->
    Json.Obj [ ("op", Json.String "explain"); ("session", Json.String session) ]
  | Stats { session } ->
    Json.Obj
      (("op", Json.String "stats")
      :: opt_field "session" (fun s -> Json.String s) session)
  | Solve_query { query; db; agg; tau; fallback; kc_node_budget } ->
    Json.Obj
      ([ ("op", Json.String "solve_query");
         ("query", Json.String query);
         ("db", Json.String db);
         ("agg", Json.String agg) ]
      @ opt_field "tau" (fun s -> Json.String s) tau
      @ opt_field "fallback" (fun s -> Json.String s) fallback
      @ opt_field "kc_node_budget" (fun n -> Json.Int n) kc_node_budget)
  | Close { session } ->
    Json.Obj [ ("op", Json.String "close"); ("session", Json.String session) ]
  | Ping -> Json.Obj [ ("op", Json.String "ping") ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

let encode_request r = Json.to_line (request_to_json r)

let response_to_json = function
  | Opened { session; facts } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "open");
        ("session", Json.String session); ("facts", Json.Int facts) ]
  | Solved { session; values } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "solve");
        ("session", Json.String session);
        ( "values",
          Json.List
            (List.map
               (fun (fact, value) ->
                 Json.Obj
                   [ ("fact", Json.String fact); ("shapley", Json.String value) ])
               values) ) ]
  | Updated { session; applied } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "update");
        ("session", Json.String session); ("applied", Json.Int applied) ]
  | Tau_set { session } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "set_tau");
        ("session", Json.String session) ]
  | Explained { session; cls; frontier; within_frontier; algorithm; plan } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "explain");
        ("session", Json.String session); ("class", Json.String cls);
        ("frontier", Json.String frontier);
        ("within_frontier", Json.Bool within_frontier);
        ("algorithm", Json.String algorithm);
        ("plan", Json.List (List.map (fun l -> Json.String l) plan)) ]
  | Session_stats { session; stats } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "stats");
        ("session", Json.String session); ("steps", Json.Int stats.steps);
        ("games_computed", Json.Int stats.games_computed);
        ("games_reused", Json.Int stats.games_reused);
        ("full_recomputes", Json.Int stats.full_recomputes);
        ("facts", Json.Int stats.facts);
        ("endogenous", Json.Int stats.endogenous) ]
  | Server_stats { sessions; requests; evictions; restores } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "stats");
        ( "sessions",
          Json.List
            (List.map
               (fun (name, live) ->
                 Json.Obj
                   [ ("name", Json.String name); ("live", Json.Bool live) ])
               sessions) );
        ("requests", Json.Int requests); ("evictions", Json.Int evictions);
        ("restores", Json.Int restores) ]
  | Query_solved { algorithm; values } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "solve_query");
        ("algorithm", Json.String algorithm);
        ( "values",
          Json.List
            (List.map
               (fun (fact, value) ->
                 Json.Obj
                   [ ("fact", Json.String fact); ("shapley", Json.String value) ])
               values) ) ]
  | Closed { session } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "close");
        ("session", Json.String session) ]
  | Pong -> Json.Obj [ ("ok", Json.Bool true); ("op", Json.String "ping") ]
  | Shutting_down -> Json.Obj [ ("ok", Json.Bool true); ("op", Json.String "shutdown") ]
  | Error { line; message } ->
    Json.Obj
      (("ok", Json.Bool false)
      :: (opt_field "line" (fun n -> Json.Int n) line
         @ [ ("error", Json.String message) ]))

let encode_response r = Json.to_line (response_to_json r)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let session_of ~what j = Json.string_field ~what "session" j

let decode_request line =
  let* j =
    match Json.parse line with
    | Ok j -> Ok j
    | Error msg -> Error ("malformed request: not a JSON line (" ^ msg ^ ")")
  in
  let* op = Json.string_field ~what:"request" "op" j in
  let what = op in
  match op with
  | "open" ->
    let* session = session_of ~what j in
    let* query = Json.string_field ~what "query" j in
    let* db = Json.string_field ~what "db" j in
    let* agg = Json.string_field ~what "agg" j in
    let* tau = Json.opt_string_field ~what "tau" j in
    let* jobs = Json.opt_int_field ~what "jobs" j in
    Ok (Open { session; spec = { Api.query; db; agg; tau; jobs } })
  | "solve" ->
    let* session = session_of ~what j in
    Ok (Solve { session })
  | "update" ->
    let* session = session_of ~what j in
    let* script = Json.string_field ~what "script" j in
    Ok (Update { session; script })
  | "set_tau" ->
    let* session = session_of ~what j in
    let* tau = Json.string_field ~what "tau" j in
    Ok (Set_tau { session; tau })
  | "explain" ->
    let* session = session_of ~what j in
    Ok (Explain { session })
  | "stats" ->
    let* session = Json.opt_string_field ~what "session" j in
    Ok (Stats { session })
  | "solve_query" ->
    let* query = Json.string_field ~what "query" j in
    let* db = Json.string_field ~what "db" j in
    let* agg = Json.string_field ~what "agg" j in
    let* tau = Json.opt_string_field ~what "tau" j in
    let* fallback = Json.opt_string_field ~what "fallback" j in
    let* kc_node_budget = Json.opt_int_field ~what "kc_node_budget" j in
    Ok (Solve_query { query; db; agg; tau; fallback; kc_node_budget })
  | "close" ->
    let* session = session_of ~what j in
    Ok (Close { session })
  | "ping" -> Ok Ping
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %s" (Aggshap_cq.Parser.quote op))

let decode_response line =
  let* j =
    match Json.parse line with
    | Ok j -> Ok j
    | Error msg -> Error ("malformed response: not a JSON line (" ^ msg ^ ")")
  in
  let* ok = Json.bool_field ~what:"response" "ok" j in
  if not ok then
    let* message = Json.string_field ~what:"error response" "error" j in
    let* line = Json.opt_int_field ~what:"error response" "line" j in
    Ok (Error { line; message })
  else
    let* op = Json.string_field ~what:"response" "op" j in
    let what = op ^ " response" in
    match op with
    | "open" ->
      let* session = session_of ~what j in
      let* facts = Json.int_field ~what "facts" j in
      Ok (Opened { session; facts })
    | "solve" ->
      let* session = session_of ~what j in
      let* items = Json.list_field ~what "values" j in
      let* values =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* fact = Json.string_field ~what "fact" item in
            let* value = Json.string_field ~what "shapley" item in
            Ok ((fact, value) :: acc))
          (Ok []) items
      in
      Ok (Solved { session; values = List.rev values })
    | "update" ->
      let* session = session_of ~what j in
      let* applied = Json.int_field ~what "applied" j in
      Ok (Updated { session; applied })
    | "set_tau" ->
      let* session = session_of ~what j in
      Ok (Tau_set { session })
    | "explain" ->
      let* session = session_of ~what j in
      let* cls = Json.string_field ~what "class" j in
      let* frontier = Json.string_field ~what "frontier" j in
      let* within_frontier = Json.bool_field ~what "within_frontier" j in
      let* algorithm = Json.string_field ~what "algorithm" j in
      let* plan_json = Json.list_field ~what "plan" j in
      let* plan =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | Json.String s -> Ok (s :: acc)
            | _ -> Error (what ^ ": plan entries must be strings"))
          (Ok []) plan_json
      in
      let plan = List.rev plan in
      Ok (Explained { session; cls; frontier; within_frontier; algorithm; plan })
    | "stats" -> (
      match Json.member "session" j with
      | Some _ ->
        let* session = session_of ~what j in
        let* steps = Json.int_field ~what "steps" j in
        let* games_computed = Json.int_field ~what "games_computed" j in
        let* games_reused = Json.int_field ~what "games_reused" j in
        let* full_recomputes = Json.int_field ~what "full_recomputes" j in
        let* facts = Json.int_field ~what "facts" j in
        let* endogenous = Json.int_field ~what "endogenous" j in
        Ok
          (Session_stats
             { session;
               stats =
                 { steps; games_computed; games_reused; full_recomputes; facts;
                   endogenous } })
      | None ->
        let* items = Json.list_field ~what "sessions" j in
        let* sessions =
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let* name = Json.string_field ~what "name" item in
              let* live = Json.bool_field ~what "live" item in
              Ok ((name, live) :: acc))
            (Ok []) items
        in
        let* requests = Json.int_field ~what "requests" j in
        let* evictions = Json.int_field ~what "evictions" j in
        let* restores = Json.int_field ~what "restores" j in
        Ok
          (Server_stats
             { sessions = List.rev sessions; requests; evictions; restores }))
    | "solve_query" ->
      let* algorithm = Json.string_field ~what "algorithm" j in
      let* items = Json.list_field ~what "values" j in
      let* values =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* fact = Json.string_field ~what "fact" item in
            let* value = Json.string_field ~what "shapley" item in
            Ok ((fact, value) :: acc))
          (Ok []) items
      in
      Ok (Query_solved { algorithm; values = List.rev values })
    | "close" ->
      let* session = session_of ~what j in
      Ok (Closed { session })
    | "ping" -> Ok Pong
    | "shutdown" -> Ok Shutting_down
    | op -> Error (Printf.sprintf "unknown response op %S" op)
