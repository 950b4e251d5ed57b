(* The session-server stack below the socket: the shared JSON value,
   the SHAPWIRE_v1 encoders/decoders (qcheck round-trips over arbitrary
   byte strings — session names, scripts, and values must survive the
   wire exactly), the streaming line reader the server and the script
   parser share, and the registry's LRU eviction / snapshot / restore
   cycle. *)

module J = Aggshap_json.Json
module Protocol = Aggshap_server.Protocol
module Registry = Aggshap_server.Registry
module Server = Aggshap_server.Server
module Client = Aggshap_server.Client
module Api = Aggshap_api.Api
module Script = Aggshap_incr.Script
module Session = Aggshap_incr.Session
module Q = Aggshap_arith.Rational
module Fact = Aggshap_relational.Fact

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* JSON compact emission round-trip                                    *)
(* ------------------------------------------------------------------ *)

(* Arbitrary byte strings: control characters are \u-escaped on the way
   out and decoded on the way back; bytes >= 0x80 travel raw. *)
let arb_bytes = QCheck.(string_of_size (Gen.int_range 0 30))

(* Floats are emitted at %.9g precision, so the exact round-trip
   property quantifies over float-free values only. *)
let arb_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (int_range (-1000000) 1000000);
        map (fun s -> J.String s) arb_bytes.QCheck.gen ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [ (3, scalar);
          (1, map (fun vs -> J.List vs) (list_size (int_range 0 4) (value (depth - 1))));
          (1,
           map
             (fun kvs -> J.Obj kvs)
             (list_size (int_range 0 4)
                (pair arb_bytes.QCheck.gen (value (depth - 1))))) ]
  in
  QCheck.make (value 3) ~print:J.to_line

let json_tests =
  [ prop "to_line |> parse is the identity (float-free)" 500 arb_json (fun v ->
        match J.parse (J.to_line v) with
        | Ok v' -> v = v'
        | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg);
    prop "to_line emits a single line" 500 arb_json (fun v ->
        not (String.contains (J.to_line v) '\n'));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pretty to_string |> parse is the identity" ~count:200
         arb_json (fun v ->
           match J.parse (J.to_string v) with
           | Ok v' -> v = v'
           | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg)) ]

(* ------------------------------------------------------------------ *)
(* SHAPWIRE_v1 round-trips                                             *)
(* ------------------------------------------------------------------ *)

let arb_spec =
  let open QCheck.Gen in
  map
    (fun (query, db, agg, tau, jobs) -> { Api.query; db; agg; tau; jobs })
    (tup5 arb_bytes.QCheck.gen arb_bytes.QCheck.gen arb_bytes.QCheck.gen
       (opt arb_bytes.QCheck.gen)
       (opt (int_range 1 64)))

let arb_request =
  let open QCheck.Gen in
  let s = arb_bytes.QCheck.gen in
  let gen =
    oneof
      [ map2 (fun session spec -> Protocol.Open { session; spec }) s arb_spec;
        map (fun session -> Protocol.Solve { session }) s;
        map2 (fun session script -> Protocol.Update { session; script }) s s;
        map2 (fun session tau -> Protocol.Set_tau { session; tau }) s s;
        map (fun session -> Protocol.Explain { session }) s;
        map (fun session -> Protocol.Stats { session }) (opt s);
        map (fun session -> Protocol.Close { session }) s;
        return Protocol.Ping;
        return Protocol.Shutdown ]
  in
  QCheck.make gen ~print:Protocol.encode_request

let arb_response =
  let open QCheck.Gen in
  let s = arb_bytes.QCheck.gen in
  let nat = int_range 0 1000 in
  let gen =
    oneof
      [ map2 (fun session facts -> Protocol.Opened { session; facts }) s nat;
        map2
          (fun session values -> Protocol.Solved { session; values })
          s
          (list_size (int_range 0 5) (pair s s));
        map2 (fun session applied -> Protocol.Updated { session; applied }) s nat;
        map (fun session -> Protocol.Tau_set { session }) s;
        map2
          (fun (session, cls, frontier, within_frontier, algorithm) plan ->
            Protocol.Explained
              { session; cls; frontier; within_frontier; algorithm; plan })
          (tup5 s s s bool s)
          (list_size (int_range 0 5) s);
        map2
          (fun session (steps, games_computed, games_reused, full_recomputes, facts) ->
            Protocol.Session_stats
              { session;
                stats =
                  { Protocol.steps; games_computed; games_reused; full_recomputes;
                    facts; endogenous = facts } })
          s (tup5 nat nat nat nat nat);
        map
          (fun (sessions, requests, evictions, restores) ->
            Protocol.Server_stats { sessions; requests; evictions; restores })
          (tup4 (list_size (int_range 0 4) (pair s bool)) nat nat nat);
        map (fun session -> Protocol.Closed { session }) s;
        return Protocol.Pong;
        return Protocol.Shutting_down;
        map2 (fun line message -> Protocol.Error { line; message }) (opt (int_range 1 99)) s ]
  in
  QCheck.make gen ~print:Protocol.encode_response

let protocol_tests =
  [ prop "encode_request |> decode_request is the identity" 1000 arb_request
      (fun req ->
        match Protocol.decode_request (Protocol.encode_request req) with
        | Ok req' -> req = req'
        | Error msg -> QCheck.Test.fail_reportf "decode error: %s" msg);
    prop "encode_response |> decode_response is the identity" 1000 arb_response
      (fun r ->
        match Protocol.decode_response (Protocol.encode_response r) with
        | Ok r' -> r = r'
        | Error msg -> QCheck.Test.fail_reportf "decode error: %s" msg);
    prop "encoded requests are single lines" 500 arb_request (fun req ->
        let line = Protocol.encode_request req in
        not (String.contains line '\n') && not (String.contains line '\r'));
    ( "malformed requests are rejected with a message",
      `Quick,
      fun () ->
        List.iter
          (fun line ->
            match Protocol.decode_request line with
            | Error msg -> Alcotest.(check bool) "message non-empty" true (msg <> "")
            | Ok _ -> Alcotest.failf "accepted malformed request %S" line)
          [ "garbage"; "{}"; "{\"op\": 7}"; "{\"op\": \"nope\"}";
            "{\"op\": \"solve\"}" (* missing session *); "[1, 2]"; "" ] ) ]

(* ------------------------------------------------------------------ *)
(* The streaming line reader                                           *)
(* ------------------------------------------------------------------ *)

let feed_chunked t chunk_size s =
  let n = String.length s in
  let rec go off acc =
    if off >= n then acc
    else
      let len = min chunk_size (n - off) in
      go (off + len) (acc @ Script.Reader.feed t ~off ~len s)
  in
  go 0 []

let reader_tests =
  [ ( "final line without trailing newline is surfaced at close",
      `Quick,
      fun () ->
        let t = Script.Reader.create () in
        let lines = Script.Reader.feed t "insert R(3)\ndelete R(1)" in
        Alcotest.(check (list string)) "one complete line" [ "insert R(3)" ] lines;
        Alcotest.(check (option string))
          "unterminated tail" (Some "delete R(1)") (Script.Reader.close t);
        Alcotest.(check (option string)) "close is idempotent" None (Script.Reader.close t)
    );
    ( "CRLF lines are stripped",
      `Quick,
      fun () ->
        let t = Script.Reader.create () in
        let lines = Script.Reader.feed t "a\r\nb\r\n" in
        Alcotest.(check (list string)) "CR stripped" [ "a"; "b" ] lines );
    ( "feed after close raises",
      `Quick,
      fun () ->
        let t = Script.Reader.create () in
        ignore (Script.Reader.close t);
        Alcotest.check_raises "closed reader"
          (Invalid_argument "Script.Reader.feed: reader is closed") (fun () ->
            ignore (Script.Reader.feed t "x\n")) );
    prop "chunked feeding matches whole-string lines" 300
      (QCheck.pair
         (QCheck.int_range 1 7)
         (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 60)
            (QCheck.Gen.oneofl [ 'a'; 'b'; '\n'; '\r' ])))
      (fun (chunk, s) ->
        let t = Script.Reader.create () in
        let chunked = feed_chunked t chunk s in
        let chunked =
          match Script.Reader.close t with
          | Some tail -> chunked @ [ tail ]
          | None -> chunked
        in
        chunked = Script.lines s);
    ( "Script.parse keeps an unterminated final operation",
      `Quick,
      fun () ->
        match Script.parse "insert R(3)\ndelete R(1)" with
        | Ok ops ->
          Alcotest.(check int) "both operations parsed" 2 (List.length ops)
        | Error msg -> Alcotest.fail msg ) ]

(* ------------------------------------------------------------------ *)
(* Registry: LRU eviction, snapshot, restore                           *)
(* ------------------------------------------------------------------ *)

let spec =
  { Api.query = "Q(x) <- R(x, y), S(y)";
    db = "R(1, 10)\nR(2, 10)\nR(3, 20)\nS(10)\nS(20) @exo";
    agg = "sum"; tau = Some "id:R:0"; jobs = Some 1 }

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let values session =
  List.map (fun (f, v) -> (Fact.to_string f, Q.to_string v)) (Session.shapley_all session)

let temp_dir () =
  let d = Filename.temp_file "aggshap_registry" ".state" in
  Sys.remove d;
  d

let registry_tests =
  [ ( "LRU evicts the least recently used, restore is transparent",
      `Quick,
      fun () ->
        let reg = ok (Registry.create ~max_live:2 ()) in
        ignore (ok (Registry.open_session reg "a" spec));
        ignore (ok (Registry.open_session reg "b" spec));
        let expected = ok (Registry.with_session reg "a" (fun _ s -> Ok (values s))) in
        (* "b" is now LRU; a third session evicts it. *)
        ignore (ok (Registry.open_session reg "c" spec));
        Alcotest.(check (list (pair string bool)))
          "b evicted"
          [ ("a", true); ("b", false); ("c", true) ]
          (Registry.sessions reg);
        Alcotest.(check int) "one eviction" 1 (Registry.evictions reg);
        (* Touching "b" restores it and evicts the new LRU ("a"). *)
        let restored = ok (Registry.with_session reg "b" (fun _ s -> Ok (values s))) in
        Alcotest.(check (list (pair string string)))
          "restored values identical" expected restored;
        Alcotest.(check int) "one restore" 1 (Registry.restores reg);
        Alcotest.(check (list (pair string bool)))
          "a evicted in turn"
          [ ("a", false); ("b", true); ("c", true) ]
          (Registry.sessions reg) );
    ( "eviction preserves applied updates",
      `Quick,
      fun () ->
        let reg = ok (Registry.create ~max_live:1 ()) in
        ignore (ok (Registry.open_session reg "a" spec));
        ignore
          (ok
             (Registry.with_session reg "a" (fun _ s ->
                  Api.apply_script s "insert R(4, 20)\ndelete R(1, 10)")));
        let before = ok (Registry.with_session reg "a" (fun _ s -> Ok (values s))) in
        ignore (ok (Registry.open_session reg "b" spec)) (* evicts a *);
        let after = ok (Registry.with_session reg "a" (fun _ s -> Ok (values s))) in
        Alcotest.(check (list (pair string string)))
          "values identical across evict/restore" before after );
    ( "snapshots survive a registry restart",
      `Quick,
      fun () ->
        let dir = temp_dir () in
        let reg = ok (Registry.create ~state_dir:dir ~max_live:4 ()) in
        ignore (ok (Registry.open_session reg "tenant one" spec));
        ignore
          (ok
             (Registry.with_session reg "tenant one" (fun _ s ->
                  Api.apply_script s "insert R(4, 20)")));
        let before =
          ok (Registry.with_session reg "tenant one" (fun _ s -> Ok (values s)))
        in
        Registry.snapshot_all reg;
        (* A new registry over the same directory sees the session. *)
        let reg2 = ok (Registry.create ~state_dir:dir ~max_live:4 ()) in
        Alcotest.(check (list (pair string bool)))
          "registered as evicted"
          [ ("tenant one", false) ]
          (Registry.sessions reg2);
        let after =
          ok (Registry.with_session reg2 "tenant one" (fun _ s -> Ok (values s)))
        in
        Alcotest.(check (list (pair string string)))
          "values identical across restart" before after;
        ignore (ok (Registry.close reg2 "tenant one"));
        Alcotest.(check (list string)) "snapshot removed" []
          (Array.to_list (Sys.readdir dir)) );
    ( "open errors surface eagerly",
      `Quick,
      fun () ->
        let reg = ok (Registry.create ~max_live:1 ()) in
        (match Registry.open_session reg "bad" { spec with Api.query = "nope" } with
         | Error msg ->
           Alcotest.(check bool) "names the query" true
             (String.length msg > 0)
         | Ok _ -> Alcotest.fail "opened a session with an unparsable query");
        Alcotest.(check (list (pair string bool)))
          "nothing registered" [] (Registry.sessions reg) );
    ( "unknown session is an error",
      `Quick,
      fun () ->
        let reg = ok (Registry.create ~max_live:1 ()) in
        match Registry.with_session reg "ghost" (fun _ _ -> Ok ()) with
        | Error msg ->
          Alcotest.(check string) "message" "no such session \"ghost\" (open it first)" msg
        | Ok () -> Alcotest.fail "found a session that was never opened" ) ]

(* ------------------------------------------------------------------ *)
(* Serve-loop hardening: EINTR retries, abrupt-disconnect accounting   *)
(* ------------------------------------------------------------------ *)

(* The loop installs SIGINT/SIGTERM handlers, so any blocking syscall
   can return EINTR mid-serve; and a client that dies with unread data
   in its queue surfaces as ECONNRESET, not EOF. Both used to kill the
   connection's pending work. *)

let start_server socket =
  match Unix.fork () with
  | 0 ->
    let config =
      { Server.socket; max_sessions = 2; state_dir = None; default_jobs = Some 1;
        log = ignore }
    in
    (match Server.run config with Ok () -> Unix._exit 0 | Error _ -> Unix._exit 1)
  | pid ->
    let rec poll tries =
      if tries = 0 then Alcotest.fail "server did not come up"
      else
        match Client.with_connection socket (fun c -> Client.request c Protocol.Ping) with
        | Ok Protocol.Pong -> ()
        | _ ->
          Unix.sleepf 0.05;
          poll (tries - 1)
    in
    poll 100;
    pid

let server_requests socket =
  match
    Client.with_connection socket (fun c ->
        Client.request c (Protocol.Stats { session = None }))
  with
  | Ok (Protocol.Server_stats { requests; _ }) -> requests
  | Ok _ -> Alcotest.fail "unexpected reply to stats"
  | Error msg -> Alcotest.fail msg

let serve_tests =
  [ ( "retry_intr retries EINTR and preserves other outcomes",
      `Quick,
      fun () ->
        let calls = ref 0 in
        let v =
          Server.retry_intr (fun () ->
              incr calls;
              if !calls < 4 then raise (Unix.Unix_error (Unix.EINTR, "read", ""));
              42)
        in
        Alcotest.(check int) "value after retries" 42 v;
        Alcotest.(check int) "EINTR retried three times" 4 !calls;
        Alcotest.check_raises "non-EINTR errors propagate"
          (Unix.Unix_error (Unix.EBADF, "read", "")) (fun () ->
            Server.retry_intr (fun () ->
                raise (Unix.Unix_error (Unix.EBADF, "read", "")))) );
    ( "read_retry survives SIGALRM interruptions",
      `Quick,
      fun () ->
        let r, w = Unix.pipe () in
        let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
        (* A repeating 20ms timer guarantees the blocking read below is
           interrupted several times before the writer's 250ms delay
           elapses; a bare [Unix.read] would raise EINTR here. *)
        ignore
          (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = 0.02; it_interval = 0.02 });
        Fun.protect
          ~finally:(fun () ->
            ignore
              (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = 0.0; it_interval = 0.0 });
            Sys.set_signal Sys.sigalrm old;
            (try Unix.close r with Unix.Unix_error _ -> ()))
          (fun () ->
            match Unix.fork () with
            | 0 ->
              (* The itimer is not inherited: the child just waits long
                 enough for the parent to block and take some alarms. *)
              Unix.close r;
              Unix.sleepf 0.25;
              ignore (Unix.write_substring w "interrupted" 0 11);
              Unix._exit 0
            | pid ->
              Unix.close w;
              let buf = Bytes.create 64 in
              let n = Server.read_retry r buf 0 64 in
              Alcotest.(check string)
                "payload delivered across interruptions" "interrupted"
                (Bytes.sub_string buf 0 n);
              ignore (Server.retry_intr (fun () -> Unix.waitpid [] pid))) );
    ( "abrupt disconnect mid-line still counts the final request",
      `Quick,
      fun () ->
        let socket = Filename.temp_file "aggshap_server" ".sock" in
        Sys.remove socket;
        let pid = start_server socket in
        Fun.protect
          ~finally:(fun () ->
            ignore
              (Client.with_connection socket (fun c ->
                   Client.request c Protocol.Shutdown));
            ignore (Server.retry_intr (fun () -> Unix.waitpid [] pid));
            try Sys.remove socket with Sys_error _ -> ())
          (fun () ->
            let before = server_requests socket in
            (* One complete request, then a second with no trailing
               newline; close without reading the first reply, so the
               server's next read sees ECONNRESET (a stream unix socket
               that dies with unread data resets its peer) rather than
               a clean EOF. Either way the unterminated line must be
               flushed and counted. *)
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            let ping = Protocol.encode_request Protocol.Ping in
            let payload = ping ^ "\n" ^ ping in
            ignore (Unix.write_substring fd payload 0 (String.length payload));
            (match Unix.select [ fd ] [] [] 5.0 with
             | [ _ ], _, _ -> ()
             | _ -> Alcotest.fail "no reply from server");
            Unix.close fd;
            (* Give the loop a round to observe the disconnect. *)
            Unix.sleepf 0.2;
            let after = server_requests socket in
            (* The terminated ping, the flushed unterminated ping, and
               the second stats request itself. *)
            Alcotest.(check int) "both pings counted" 3 (after - before)) );
    ( "an over-long numeral is refused and the connection stays usable",
      `Quick,
      fun () ->
        let socket = Filename.temp_file "aggshap_server" ".sock" in
        Sys.remove socket;
        let pid = start_server socket in
        Fun.protect
          ~finally:(fun () ->
            ignore
              (Client.with_connection socket (fun c ->
                   Client.request c Protocol.Shutdown));
            ignore (Server.retry_intr (fun () -> Unix.waitpid [] pid));
            try Sys.remove socket with Sys_error _ -> ())
          (fun () ->
            (* A τ constant of 5,000 digits is past Rational.of_string's
               4,096-digit cap: the open is answered with a short error
               that quotes a bounded prefix of the numeral, and the same
               connection goes on being served. *)
            let tau = "const:R:" ^ String.make 5_000 '7' in
            let replies =
              ok
                (Client.with_connection socket (fun c ->
                     let ( let* ) = Result.bind in
                     let* opened =
                       Client.request c
                         (Protocol.Open { session = "huge"; spec = { spec with tau = Some tau } })
                     in
                     let* pong = Client.request c Protocol.Ping in
                     Ok (opened, pong)))
            in
            match replies with
            | Protocol.Error { message; _ }, Protocol.Pong ->
              Alcotest.(check bool) "the error names the malformed value" true
                (String.starts_with ~prefix:"malformed value" message);
              Alcotest.(check bool)
                (Printf.sprintf "the error is under 256 bytes (%d)" (String.length message))
                true
                (String.length message < 256)
            | Protocol.Error _, _ -> Alcotest.fail "the next request was not answered"
            | _ -> Alcotest.fail "the over-long numeral was accepted") );
    ( "an over-long malformed JSON number gets a short reply",
      `Quick,
      fun () ->
        let socket = Filename.temp_file "aggshap_server" ".sock" in
        Sys.remove socket;
        let pid = start_server socket in
        Fun.protect
          ~finally:(fun () ->
            ignore
              (Client.with_connection socket (fun c ->
                   Client.request c Protocol.Shutdown));
            ignore (Server.retry_intr (fun () -> Unix.waitpid [] pid));
            try Sys.remove socket with Sys_error _ -> ())
          (fun () ->
            (* A 5,000-byte number literal that is not a number: the
               JSON decoder refuses the line, quoting a bounded prefix
               of the literal, and the same connection goes on being
               served. *)
            let malformed = String.concat "" (List.init 2_500 (fun _ -> "1.")) in
            let replies =
              ok
                (Client.with_connection socket (fun c ->
                     let ( let* ) = Result.bind in
                     let* () = Client.send_line c ("{\"op\":\"ping\",\"n\":" ^ malformed ^ "}") in
                     let* reply = Client.recv_line c in
                     let* pong = Client.request c Protocol.Ping in
                     Ok (reply, pong)))
            in
            match replies with
            | reply, Protocol.Pong ->
              Alcotest.(check bool) "the reply names the malformed number" true
                (contains reply "malformed number");
              Alcotest.(check bool)
                (Printf.sprintf "the reply is under 256 bytes (%d)" (String.length reply))
                true
                (String.length reply < 256)
            | _ -> Alcotest.fail "the next request was not answered") ) ]

let () =
  Alcotest.run "server"
    [ ("json line round-trips", json_tests);
      ("SHAPWIRE_v1 round-trips", protocol_tests);
      ("streaming line reader", reader_tests);
      ("registry LRU / snapshot / restore", registry_tests);
      ("serve loop hardening", serve_tests) ]
