(* shapctl serve: the multi-tenant session server.

   A single-process event loop over a Unix-domain socket. Connections
   are multiplexed with [select]; each carries a chunk-fed
   [Script.Reader] (the same reader the update-script parser uses, so a
   request on a final unterminated line is processed, not dropped) and
   a per-connection request line counter for line-numbered error
   replies. Requests execute to completion in arrival order — the
   protocol is strictly one response line per request line — and every
   solve runs in the serving domain: the wire carries exact solves only,
   and no exact route splits across domains.

   Durability: sessions are snapshotted at open, at LRU eviction, and
   at clean shutdown (the [shutdown] op, SIGINT, or SIGTERM); see
   {!Registry}. *)

module Script = Aggshap_incr.Script
module Session = Aggshap_incr.Session
module Update = Aggshap_incr.Update
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Hierarchy = Aggshap_cq.Hierarchy
module Agg_query = Aggshap_agg.Agg_query
module Q = Aggshap_arith.Rational
module Api = Aggshap_api.Api

let ( let* ) = Result.bind

type config = {
  socket : string;
  max_sessions : int;
  state_dir : string option;
  default_jobs : int option;  (* ignored: no wire solve splits across domains *)
  log : string -> unit;
}

type conn = {
  fd : Unix.file_descr;
  reader : Script.Reader.t;
  mutable lines : int;  (* request lines received on this connection *)
}

type state = {
  config : config;
  registry : Registry.t;
  mutable requests : int;
  mutable stop : bool;
}

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let solve_values session =
  List.map
    (fun (f, v) -> (Fact.to_string f, Q.to_string v))
    (Session.shapley_all session)

let dispatch (st : state) (req : Protocol.request) : Protocol.response =
  let reg = st.registry in
  let respond = function Ok r -> r | Error message -> Protocol.Error { line = None; message } in
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Shutdown ->
    Registry.snapshot_all reg;
    st.stop <- true;
    Protocol.Shutting_down
  | Protocol.Open { session; spec } ->
    respond
      (let* facts = Registry.open_session reg session spec in
       Ok (Protocol.Opened { session; facts }))
  | Protocol.Solve { session } ->
    respond
      (Registry.with_session reg session (fun _e s ->
           Ok (Protocol.Solved { session; values = solve_values s })))
  | Protocol.Update { session; script } ->
    respond
      (Registry.with_session reg session (fun _e s ->
           let* applied = Api.apply_script s script in
           Ok (Protocol.Updated { session; applied })))
  | Protocol.Set_tau { session; tau } ->
    respond
      (Registry.with_session reg session (fun e s ->
           let* vf = Api.parse_tau (Session.query s).Agg_query.query tau in
           let* () = Api.trap (fun () -> Session.apply s (Update.Set_tau (vf, tau))) in
           e.Registry.spec <- { e.Registry.spec with Api.tau = Some tau };
           Ok (Protocol.Tau_set { session })))
  | Protocol.Explain { session } ->
    respond
      (Registry.with_session reg session (fun _e s ->
           (* The session's live database feeds the planner's cost
              model, so the explain op shows the same candidate costs
              a solve would plan with. *)
           let ex = Api.explain ~db:(Session.database s) (Session.query s) in
           Ok
             (Protocol.Explained
                { session;
                  cls = Hierarchy.cls_to_string ex.Api.cls;
                  frontier = Hierarchy.cls_to_string ex.Api.frontier;
                  within_frontier = ex.Api.within_frontier;
                  algorithm = ex.Api.algorithm;
                  plan = Api.plan_lines ex })))
  | Protocol.Stats { session = Some session } ->
    respond
      (Registry.with_session reg session (fun _e s ->
           let stats = Session.stats s in
           let db = Session.database s in
           Ok
             (Protocol.Session_stats
                { session;
                  stats =
                    { Protocol.steps = stats.Session.steps;
                      games_computed = stats.Session.games_computed;
                      games_reused = stats.Session.games_reused;
                      facts = Database.size db;
                      endogenous = Database.endo_size db } })))
  | Protocol.Stats { session = None } ->
    Protocol.Server_stats
      { sessions = Registry.sessions reg; requests = st.requests;
        evictions = Registry.evictions reg; restores = Registry.restores reg }
  | Protocol.Solve_query { query; db; agg; tau; fallback; kc_node_budget } ->
    (* Stateless one-shot solve: nothing opened, nothing retained. This
       is how the exact fallback tiers (and the planner's auto mode)
       are reached over the wire — sessions only exist within the
       tractability frontier. The wire carries exact rationals only, so
       the Monte-Carlo fallback is rejected rather than silently
       degrading the protocol's bit-identical-to-the-CLI promise. *)
    respond
      (let* q = Api.parse_query query in
       let* db = Api.parse_database_text db in
       let* a = Api.make_agg_query ~agg ~tau q in
       let* fallback =
         Api.parse_wire_fallback (Option.value fallback ~default:"naive")
       in
       let* result =
         Api.shapley_all ~fallback ?kc_node_budget a db
       in
       let values =
         List.map
           (fun (f, outcome) ->
             match outcome with
             | Aggshap_core.Solver.Exact v -> (Fact.to_string f, Q.to_string v)
             | Aggshap_core.Solver.Estimate _ -> assert false)
           result.Api.values
       in
       let algorithm =
         match result.Api.report with
         | Some r -> r.Aggshap_core.Solver.algorithm
         | None -> ""
       in
       Ok (Protocol.Query_solved { algorithm; values }))
  | Protocol.Close { session } ->
    respond
      (let* () = Registry.close reg session in
       Ok (Protocol.Closed { session }))

(* ------------------------------------------------------------------ *)
(* Connection plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* SIGINT/SIGTERM install real handlers (the stop flag), so every
   blocking syscall in the loop can return [EINTR] mid-serve. The
   select call already retries; reads and writes must too, or a signal
   that merely requests shutdown kills the connection it lands on. *)
let rec retry_intr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

let read_retry fd buf off len = retry_intr (fun () -> Unix.read fd buf off len)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let w = retry_intr (fun () -> Unix.write fd b off (n - off)) in
      go (off + w)
    end
  in
  go 0

(* One request line: decode, dispatch, reply. Returns false when the
   connection is gone (reply write failed). Blank lines advance the
   line counter but get no reply. *)
let handle_line st conn line =
  conn.lines <- conn.lines + 1;
  if String.trim line = "" then true
  else begin
    st.requests <- st.requests + 1;
    let response =
      match Protocol.decode_request line with
      | Error message -> Protocol.Error { line = Some conn.lines; message }
      | Ok req -> (
        match dispatch st req with
        | Protocol.Error { line = None; message } ->
          Protocol.Error { line = Some conn.lines; message }
        | r -> r)
    in
    match write_all conn.fd (Protocol.encode_response response ^ "\n") with
    | () -> true
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false
  end

let drop conns conn =
  Hashtbl.remove conns conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let handle_readable st conns conn =
  let buf = Bytes.create 65536 in
  match read_retry conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    (* Abrupt disconnect. Flush the reader exactly like the EOF path
       below, so a request on a final unterminated line is still
       processed and counted — the connection line numbering (and the
       server request counter) must not depend on how the peer went
       away. The reply write fails harmlessly: the peer is gone. *)
    (match Script.Reader.close conn.reader with
     | Some line -> ignore (handle_line st conn line)
     | None -> ());
    drop conns conn
  | 0 ->
    (* EOF. A final line without a trailing newline is still a request:
       flush the reader before closing. *)
    (match Script.Reader.close conn.reader with
     | Some line -> ignore (handle_line st conn line)
     | None -> ());
    drop conns conn
  | n ->
    let chunk = Bytes.sub_string buf 0 n in
    let rec go = function
      | [] -> ()
      | line :: rest ->
        if handle_line st conn line && not st.stop then go rest
        else if st.stop then ()
        else drop conns conn
    in
    go (Script.Reader.feed conn.reader chunk)

(* ------------------------------------------------------------------ *)
(* The accept/select loop                                              *)
(* ------------------------------------------------------------------ *)

let run (config : config) =
  let* registry =
    Registry.create ?state_dir:config.state_dir ~log:config.log
      ~max_live:config.max_sessions ()
  in
  let st = { config; registry; requests = 0; stop = false } in
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let stop_signal _ = st.stop <- true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  let* lfd =
    try
      if Sys.file_exists config.socket then Sys.remove config.socket;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX config.socket);
      Unix.listen fd 64;
      Ok fd
    with
    | Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s" config.socket
           (Unix.error_message err))
    | Sys_error msg -> Error msg
  in
  config.log
    (Printf.sprintf "listening on %s (max %d resident sessions%s)" config.socket
       config.max_sessions
       (match config.state_dir with
        | Some d -> ", state in " ^ d
        | None -> ", no state dir"));
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  while not st.stop do
    let fds = lfd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    match Unix.select fds [] [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if st.stop then ()
          else if fd = lfd then begin
            match Unix.accept lfd with
            | cfd, _ ->
              Hashtbl.replace conns cfd
                { fd = cfd; reader = Script.Reader.create (); lines = 0 }
            | exception Unix.Unix_error _ -> ()
          end
          else
            match Hashtbl.find_opt conns fd with
            | Some conn -> handle_readable st conns conn
            | None -> ())
        ready
  done;
  Registry.snapshot_all registry;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Sys.remove config.socket with Sys_error _ -> ());
  config.log "server stopped";
  Ok ()
