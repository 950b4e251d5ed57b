(* wire_mixed: an open loop against a forked SHAPWIRE server, from one
   generator thread over two connections.

   Connection A is a tenant working on a Sum session over q_xyy: at
   every tick it sends an update script and then a solve of the whole
   session, except that one tick in [heavy_every] sends a stateless
   solve_query that the server answers by naive enumeration instead.
   Connection B sends pings, explains of a second, static session, and
   small knowledge-compilation solve_query requests.

   Requests are due on a fixed schedule whether or not earlier replies
   have come back, and each latency runs from the time the request was
   due, so a request stuck behind a heavy one counts the whole wait.
   How late the generator itself sent is reported as a validity check. *)

module Api = Aggshap_api.Api
module Protocol = Aggshap_server.Protocol
module Server = Aggshap_server.Server
module Session = Aggshap_incr.Session
module Script = Aggshap_incr.Script
module Fact = Aggshap_relational.Fact
module Hierarchy = Aggshap_cq.Hierarchy
module Q = Aggshap_arith.Rational
module Solver = Aggshap_core.Solver

(* Ticks per second on A and B, and how many A ticks share one heavy
   request. At these rates the server is busy about 30 % of the time,
   a fifth of that on heavy requests, so about one request in twenty
   waits behind a heavy one. The heavy requests are 3 % of the solves,
   enough that p99 falls inside their cluster rather than among the
   light requests that waited behind them; the median falls in the
   middle of A's unblocked session solves. A busier server queues
   requests behind each other, which turns small changes in machine
   speed into large changes in latency. *)
let rate_a = 50.0
let rate_b = 100.0
let heavy_every = 25

(* A request's kind, which is also what its reply is checked against. *)
type key =
  | Update of int  (** [k >= 0] deletes toggle fact k, [-k - 1] puts it back *)
  | Solve of int  (** in session state [-1] (base) or [k] (toggle fact k deleted) *)
  | Heavy of int
  | Kc of int
  | Ping
  | Explain

let is_solve = function Solve _ | Heavy _ | Kc _ -> true | Update _ | Ping | Explain -> false
let is_update = function Update _ -> true | _ -> false

let key_name = function
  | Update _ -> "update"
  | Solve _ -> "solve"
  | Heavy _ -> "heavy"
  | Kc _ -> "kc"
  | Ping -> "ping"
  | Explain -> "explain"

type inputs = {
  a_spec : Api.session_spec;
  b_spec : Api.session_spec;
  toggles : (int * int) array;  (** R facts of session a the updates delete and put back *)
  heavy : Gen.instance array;
  kc : Gen.instance array;
  b_cycle : key array;  (** B's repeating request pattern *)
}

let inputs (c : Run.config) =
  let st = Random.State.make [| c.seed |] in
  let rows = if c.smoke then 40 else 400 in
  let r, ys = Gen.xyy_facts st ~rows ~groups:(rows / 20) in
  let endo = Array.of_list (List.filter_map (fun (x, y, exo) -> if exo then None else Some (x, y)) r) in
  Gen.shuffle st endo;
  let br, bys = Gen.xyy_facts st ~rows:20 ~groups:4 in
  let spec db agg = { Api.query = Gen.q_xyy; db; agg; tau = Some "id:R:0"; jobs = Some 1 } in
  let heavy_rows = if c.smoke then 7 else 10 in
  let b_cycle = [| Ping; Ping; Ping; Ping; Ping; Ping; Ping; Explain; Kc 0; Kc 1 |] in
  Gen.shuffle st b_cycle;
  { a_spec = spec (Gen.xyy_text r ys) "sum";
    b_spec = spec (Gen.xyy_text br bys) "max";
    toggles = Array.sub endo 0 (min 16 (Array.length endo));
    heavy = Array.init 3 (fun _ -> { (Gen.avg_naive st heavy_rows) with fallback = Some "naive" });
    kc = [| Gen.rst_count st 4; Gen.cdist_nonhier st 40 |];
    b_cycle }

let solve_query (i : Gen.instance) =
  Protocol.Solve_query
    { query = i.query; db = i.db; agg = i.agg; tau = i.tau; fallback = i.fallback;
      kc_node_budget = i.kc_node_budget }

let toggle_script inputs k =
  let x, y = inputs.toggles.(if k >= 0 then k else -k - 1) in
  Printf.sprintf "%s R(%d, %d)" (if k >= 0 then "delete" else "insert") x y

let request_of inputs = function
  | Update k -> Protocol.Update { session = "a"; script = toggle_script inputs k }
  | Solve _ -> Protocol.Solve { session = "a" }
  | Heavy i -> solve_query inputs.heavy.(i)
  | Kc i -> solve_query inputs.kc.(i)
  | Ping -> Protocol.Ping
  | Explain -> Protocol.Explain { session = "b" }

(* ------------------------------------------------------------------ *)
(* Server process and connections                                      *)
(* ------------------------------------------------------------------ *)

type pending = {
  key : key;
  due : int64;
  sent : int64;
  root : Trace.span option;  (** traced requests only *)
  sums : Trace.sums option;  (** traced requests only *)
}

type conn = {
  fd : Unix.file_descr;
  reader : Script.Reader.t;
  queue : pending Queue.t;  (** requests awaiting their reply, oldest first *)
}

type server = {
  pid : int;
  socket : string;
  mutable conns : conn list;
  mutable alive : bool;
}

(* A relative path: Unix socket paths are limited to about 100 bytes,
   and the working directory may be deep. *)
let spawn () =
  let socket = Printf.sprintf "perf-wire-%d.sock" (Unix.getpid ()) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      match
        Server.run
          { Server.socket; max_sessions = 4; state_dir = None; default_jobs = Some 1;
            log = ignore }
      with
      | Ok () -> 0
      | Error msg ->
        prerr_endline ("perf: server: " ^ msg);
        1
      | exception e ->
        prerr_endline ("perf: server: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> { pid; socket; conns = []; alive = true }

(* SIGTERM makes the server finish its current request and exit. *)
let stop srv =
  if srv.alive then begin
    srv.alive <- false;
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) srv.conns;
    (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] srv.pid);
    try Sys.remove srv.socket with Sys_error _ -> ()
  end

let connect srv =
  let deadline = Run.deadline_after 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX srv.socket) with
    | () ->
      let c = { fd; reader = Script.Reader.create (); queue = Queue.create () } in
      srv.conns <- c :: srv.conns;
      c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Run.before deadline ->
      Unix.close fd;
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let write_line conn line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write conn.fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* The lines completed by what the socket has ready. *)
let read_lines conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "the server closed a connection"
  | n -> Script.Reader.feed conn.reader (Bytes.sub_string chunk 0 n)

(* Blocking request and reply, for set-up. *)
let roundtrip conn req =
  write_line conn (Protocol.encode_request req);
  let rec wait () = match read_lines conn with [] -> wait () | line :: _ -> line in
  Protocol.decode_response (wait ())

let expect_ok tally what = function
  | Ok (Protocol.Error { message; _ }) -> Run.check tally (what ^ ": " ^ message) false
  | Ok _ -> Run.check tally what true
  | Error msg -> Run.check tally (what ^ ": " ^ msg) false

(* Set-up: spawn → first pong → both sessions open → session a solved
   once, so the window starts from a warm tenant. A set-up that fails
   midway stops its server. *)
let setup tally inputs =
  let srv = spawn () in
  match
    let a = connect srv in
    let b = connect srv in
    expect_ok tally "ping" (roundtrip a Protocol.Ping);
    expect_ok tally "open a" (roundtrip a (Protocol.Open { session = "a"; spec = inputs.a_spec }));
    expect_ok tally "open b" (roundtrip b (Protocol.Open { session = "b"; spec = inputs.b_spec }));
    expect_ok tally "first solve" (roundtrip a (Protocol.Solve { session = "a" }));
    (a, b)
  with
  | a, b -> (srv, a, b)
  | exception e ->
    stop srv;
    raise e

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)
(* ------------------------------------------------------------------ *)

type window = {
  lat : (key * float) Queue.t;  (** untraced requests, from due time to decoded reply *)
  lat_traced : (key * float) Queue.t;
  mutable late : float list;  (** untraced requests: send time minus due time *)
  replies : (key * Digest.t) Queue.t;  (** every successful reply *)
  mutable facts : int;  (** returned to untraced solves *)
  mutable rtt : (key * float) list;  (** traced requests: send to reply line *)
  mutable resp_bytes : int;  (** traced requests *)
  mutable encode_ms : float;  (** traced requests *)
  mutable decode_ms : float;  (** traced requests *)
  samples : (key, string * string) Hashtbl.t;  (** one request and reply line per key *)
}

let loop (c : Run.config) tally inputs (a, b) ~tracing =
  let w =
    { lat = Queue.create (); lat_traced = Queue.create (); late = []; replies = Queue.create ();
      facts = 0; rtt = []; resp_bytes = 0; encode_ms = 0.0; decode_ms = 0.0;
      samples = Hashtbl.create 32 }
  in
  let n_a = if c.smoke then heavy_every + 2 else int_of_float (c.seconds *. rate_a) in
  let n_b = if c.smoke then Array.length inputs.b_cycle else int_of_float (c.seconds *. rate_b) in
  let t0 = Trace.now_ns () in
  let due rate i = Int64.add t0 (Int64.of_float (float_of_int i *. 1e9 /. rate)) in
  let kinds = Hashtbl.create 8 in
  let send conn key due =
    let n = Option.value ~default:0 (Hashtbl.find_opt kinds (key_name key)) in
    Hashtbl.replace kinds (key_name key) (n + 1);
    let tr, sums = Run.pick tracing n in
    let root = Option.map (fun tr -> Trace.root tr ("wire." ^ key_name key) due) tr in
    let sent = Trace.now_ns () in
    let line, _ = Trace.counted sums (fun () -> Protocol.encode_request (request_of inputs key)) in
    let encoded = Trace.now_ns () in
    write_line conn line;
    let written = Trace.now_ns () in
    (match (tr, root) with
     | Some tr, Some r ->
       Trace.child tr r "gen.lateness" due sent;
       Trace.child tr r "protocol.encode_request" sent encoded;
       Trace.child tr r "wire.write" encoded written;
       w.encode_ms <- w.encode_ms +. Trace.ms_between sent encoded
     | _ -> w.late <- Trace.ms_between due sent :: w.late);
    if not (Hashtbl.mem w.samples key) then Hashtbl.replace w.samples key (line, "");
    Queue.add { key; due; sent = written; root; sums } conn.queue
  in
  let receive conn line =
    let arrived = Trace.now_ns () in
    match Queue.take_opt conn.queue with
    | None -> Run.check tally "a reply to no request" false
    | Some p -> (
      let resp, _ = Trace.counted p.sums (fun () -> Protocol.decode_response line) in
      let decoded = Trace.now_ns () in
      let latency = (p.key, Trace.ms_between p.due decoded) in
      (match (tracing, p.root) with
       | Some t, Some r ->
         Trace.child t.Run.tr r "wire.wait" p.sent arrived;
         Trace.child t.Run.tr r "protocol.decode_response" arrived decoded;
         r.Trace.stop_ns <- decoded;
         w.decode_ms <- w.decode_ms +. Trace.ms_between arrived decoded;
         w.resp_bytes <- w.resp_bytes + String.length line;
         w.rtt <- (p.key, Trace.ms_between p.sent arrived) :: w.rtt
       | _ -> ());
      (match Hashtbl.find_opt w.samples p.key with
       | Some (req, "") -> Hashtbl.replace w.samples p.key (req, line)
       | _ -> ());
      match resp with
      | Error msg -> Run.check tally ("undecodable reply: " ^ msg) false
      | Ok (Protocol.Error { message; _ }) -> Run.check tally (key_name p.key ^ ": " ^ message) false
      | Ok r -> (
        Queue.add (p.key, Digest.string line) w.replies;
        if p.root <> None then Queue.add latency w.lat_traced
        else begin
          Queue.add latency w.lat;
          match r with
          | (Protocol.Solved { values; _ } | Protocol.Query_solved { values; _ })
            when is_solve p.key ->
            w.facts <- w.facts + List.length values
          | _ -> ()
        end))
  in
  (* One A tick: a heavy request, or an update of session a (delete a
     toggle fact, or put the deleted one back) followed by a solve. *)
  let state = ref (-1) and tick = ref 0 in
  let tick_a due =
    incr tick;
    if !tick mod heavy_every = heavy_every / 2 then
      send a (Heavy (!tick / heavy_every mod Array.length inputs.heavy)) due
    else begin
      let k = if !state < 0 then !tick mod Array.length inputs.toggles else - !state - 1 in
      send a (Update k) due;
      state := (if k >= 0 then k else -1);
      send a (Solve !state) due
    end
  in
  let ia = ref 0 and ib = ref 0 in
  let outstanding () = Queue.length a.queue + Queue.length b.queue in
  let drain_deadline = Int64.add (due rate_a n_a) 30_000_000_000L in
  while
    !ia < n_a || !ib < n_b
    || (outstanding () > 0 && Int64.compare (Trace.now_ns ()) drain_deadline < 0)
  do
    let now = Trace.now_ns () in
    let next_a = if !ia < n_a then due rate_a !ia else Int64.max_int in
    let next_b = if !ib < n_b then due rate_b !ib else Int64.max_int in
    if Int64.compare next_a now <= 0 then begin
      tick_a next_a;
      incr ia
    end
    else if Int64.compare next_b now <= 0 then begin
      send b inputs.b_cycle.(!ib mod Array.length inputs.b_cycle) next_b;
      incr ib
    end
    else
      let next = Int64.min next_a next_b in
      let wait () =
        if next = Int64.max_int then 0.05
        else Float.max 0.0 (Trace.ms_between (Trace.now_ns ()) next /. 1e3)
      in
      (* The host kernel only runs where it cannot delay a send. *)
      if wait () > 0.002 then Host.tick ();
      match Unix.select [ a.fd; b.fd ] [] [] (wait ()) with
      | ready, _, _ ->
        List.iter
          (fun fd ->
            let conn = if fd = a.fd then a else b in
            List.iter (receive conn) (read_lines conn))
          ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  for _ = 1 to outstanding () do
    Run.check tally "no reply within 30 s of the last send" false
  done;
  w

(* ------------------------------------------------------------------ *)
(* Checks: every reply string-identical to the in-process answer       *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let strings values = List.map (fun (f, v) -> (Fact.to_string f, Q.to_string v)) values

(* The reply the server must send for a stateless solve_query, computed
   through the same public calls in this process. *)
let query_reply (i : Gen.instance) =
  let* q = Api.parse_query i.query in
  let* db = Api.parse_database_text i.db in
  let* a = Api.make_agg_query ~agg:i.agg ~tau:i.tau q in
  let* fallback = Api.parse_wire_fallback (Option.value i.fallback ~default:"naive") in
  let* r = Api.shapley_all ~fallback ~jobs:1 ?kc_node_budget:i.kc_node_budget a db in
  let algorithm = match r.Api.report with Some rep -> rep.Solver.algorithm | None -> "" in
  Ok (Protocol.Query_solved { algorithm; values = strings (Run.exact r.Api.values) })

let explain_reply spec =
  let* session = Api.open_session spec in
  let ex = Api.explain ~db:(Session.database session) (Session.query session) in
  Ok
    (Protocol.Explained
       { session = "b"; cls = Hierarchy.cls_to_string ex.Api.cls;
         frontier = Hierarchy.cls_to_string ex.Api.frontier;
         within_frontier = ex.Api.within_frontier; algorithm = ex.Api.algorithm;
         plan = Api.plan_lines ex })

(* Session a's values in every state the update stream visits, from a
   mirror session driven through the same scripts. *)
let session_states inputs =
  let* mirror = Api.open_session inputs.a_spec in
  let read () = Protocol.Solved { session = "a"; values = strings (Session.shapley_all mirror) } in
  let states = Hashtbl.create 32 in
  Hashtbl.replace states (-1) (read ());
  let rec go k =
    if k >= Array.length inputs.toggles then Ok states
    else
      let* _ = Api.apply_script mirror (toggle_script inputs k) in
      Hashtbl.replace states k (read ());
      let* _ = Api.apply_script mirror (toggle_script inputs (-k - 1)) in
      go (k + 1)
  in
  go 0

let check_replies tally inputs w =
  let states = lazy (session_states inputs) in
  let expected = Hashtbl.create 32 in
  let digest = function
    | Ok r -> Some (Digest.string (Protocol.encode_response r))
    | Error _ -> None
  in
  let expect key =
    match Hashtbl.find_opt expected key with
    | Some d -> d
    | None ->
      let d =
        match key with
        | Update _ -> digest (Ok (Protocol.Updated { session = "a"; applied = 1 }))
        | Ping -> digest (Ok Protocol.Pong)
        | Explain -> digest (explain_reply inputs.b_spec)
        | Heavy i -> digest (query_reply inputs.heavy.(i))
        | Kc i -> digest (query_reply inputs.kc.(i))
        | Solve s -> digest (Result.map (fun t -> Hashtbl.find t s) (Lazy.force states))
      in
      Hashtbl.replace expected key d;
      d
  in
  Queue.iter
    (fun (key, got) ->
      Run.check tally
        (key_name key ^ ": reply differs from the in-process result")
        (expect key = Some got))
    w.replies

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let latencies q keep = Queue.fold (fun acc (k, ms) -> if keep k then ms :: acc else acc) [] q

(* Server CPU seconds (utime + stime, fields 14 and 15 of /proc/PID/stat,
   in USER_HZ = 100 ticks per second on Linux). *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  let rest = String.index_from line (String.rindex line ')') ' ' + 1 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub line rest (String.length line - rest))) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

let layer_metrics inputs w ~busy_pct (t : Run.tracing) =
  let n = Queue.length w.lat_traced in
  let count key = Queue.fold (fun acc (k, _) -> if k = key then acc + 1 else acc) 0 w.replies in
  let weighted f =
    Run.ratio
      (Hashtbl.fold (fun key sample acc -> acc +. (float_of_int (count key) *. f key sample)) w.samples 0.0)
      (float_of_int (Queue.length w.replies))
  in
  (* Server-side work replayed in this process on the exact lines sent:
     the text parsing of stateless requests, and the codec. *)
  let instance_of = function Heavy i -> Some inputs.heavy.(i) | Kc i -> Some inputs.kc.(i) | _ -> None in
  let parse =
    weighted (fun key _ ->
        match instance_of key with
        | None -> 0.0
        | Some i ->
          Run.replay_ms 5 (fun () ->
              let* q = Api.parse_query i.query in
              let* _ = Api.parse_database_text i.db in
              Api.make_agg_query ~agg:i.agg ~tau:i.tau q))
  in
  let codec =
    weighted (fun _ (req, reply) ->
        match Protocol.decode_response reply with
        | Error _ -> 0.0
        | Ok resp ->
          Run.replay_ms 5 (fun () -> (Protocol.decode_request req, Protocol.encode_response resp)))
  in
  let is_kc = function Kc _ -> true | _ -> false in
  let median_rtt keep =
    Run.percentile_ms (List.filter_map (fun (k, ms) -> if keep k then Some ms else None) w.rtt) 0.5
  in
  let kc_inproc =
    Stats.mean
      (Array.to_list (Array.map (fun i -> Run.replay_ms 5 (fun () -> Result.map Protocol.encode_response (query_reply i))) inputs.kc))
  in
  [ Run.metric "parse.ms" "ms" parse;
    Run.metric "protocol.encode_us" "us" (1e3 *. Run.per n w.encode_ms);
    Run.metric "protocol.decode_us" "us" (1e3 *. Run.per n w.decode_ms);
    Run.metric "protocol.server_codec_us" "us" (1e3 *. codec);
    Run.metric "wire.resp_kb" "KiB" (Run.per n (float_of_int w.resp_bytes) /. 1024.0);
    Run.metric "wire.rtt_ms" "ms" (median_rtt (function Solve _ -> true | _ -> false));
    Run.metric "wire.overhead_ratio" "ratio"
      (Run.ratio (median_rtt is_kc) (Option.value ~default:0.0 kc_inproc));
    Run.metric "wire.ping_p99_ms" "ms" (Run.percentile_ms (latencies w.lat (( = ) Ping)) 0.99);
    Run.metric "wire.gen_late_p99_ms" "ms" (Run.percentile_ms w.late 0.99);
    Run.metric "wire.server_busy_pct" "%" busy_pct;
    Run.metric "update_p50_ms" "ms" (Run.percentile_ms (latencies w.lat is_update) 0.5);
    Run.metric "update_p99_ms" "ms" (Run.percentile_ms (latencies w.lat is_update) 0.99) ]
  @ Run.counter_metrics t.sums n
  @ [ Run.metric "trace.overhead_pct" "%"
        (Run.overhead_pct ~untraced:(latencies w.lat is_solve)
           ~traced:(latencies w.lat_traced is_solve));
      Run.metric "trace.coverage_min_pct" "%" (Trace.min_coverage_pct t.tr) ]

let run (c : Run.config) =
  let tally = Run.tally () in
  let inputs = inputs c in
  let (srv, a, b), setup_s =
    Run.setups c tally ~release:(fun (s, _, _) -> stop s) (fun () -> setup tally inputs)
  in
  Fun.protect
    ~finally:(fun () -> stop srv)
    (fun () ->
      let tracing = Run.tracing c in
      let cpu0 = cpu_s srv.pid and t0 = Trace.now_ns () in
      let w = loop c tally inputs (a, b) ~tracing in
      let busy_pct = 100.0 *. (cpu_s srv.pid -. cpu0) /. (Trace.ms_between t0 (Trace.now_ns ()) /. 1e3) in
      let peak = Option.value ~default:0.0 (Trace.peak_rss_mb (string_of_int srv.pid)) in
      stop srv;
      let layers = Option.fold ~none:[] ~some:(layer_metrics inputs w ~busy_pct) tracing in
      check_replies tally inputs w;
      { Run.setup_s; solve_ms = latencies w.lat is_solve; facts = w.facts;
        attempted = tally.attempted; failed = tally.failed; peak_rss_mb = peak; layers;
        trace = Option.map (fun t -> t.Run.tr) tracing })
