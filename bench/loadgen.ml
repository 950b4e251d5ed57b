(* bench/loadgen.exe — load generator for the shapctl session server.

   Forks N client processes, each owning one tenant session on a running
   server. Every client opens its session (a Sum workload on the q_xyy
   shape, with an id value function so updates actually move the
   values), then fires M update+solve round-trips: a delete/re-insert
   pair followed by a full solve. Per-request wall-clock latencies are
   collected from all clients and reported as p50/p99 per request kind,
   both as a table on stdout and — with [--json FILE] — as E17 rows in a
   BENCH_v1 report (the same schema bench/main.exe emits, validated by
   bench/validate.exe).

   Usage:
     loadgen.exe --socket PATH [--clients N] [--requests M] [--rows R]
                 [--spawn] [--json FILE]

   [--spawn] forks a private server on PATH first (and shuts it down at
   the end) so the tool is self-contained; without it, PATH must belong
   to an already-running [shapctl serve]. *)

module Client = Aggshap_server.Client
module Protocol = Aggshap_server.Protocol
module Server = Aggshap_server.Server
module Api = Aggshap_api.Api
module J = Aggshap_json.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("loadgen: " ^ s); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let argv = Array.to_list Sys.argv

let opt_value name =
  let rec find = function
    | flag :: v :: _ when flag = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find argv

let int_opt name default =
  match opt_value name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> die "%s wants a positive integer (got %S)" name s)

let socket =
  match opt_value "--socket" with
  | Some s -> s
  | None ->
    prerr_endline
      "usage: loadgen.exe --socket PATH [--clients N] [--requests M] [--rows R] \
       [--spawn] [--json FILE]";
    exit 2

let clients = int_opt "--clients" 4
let requests = int_opt "--requests" 20
let rows = int_opt "--rows" 40
let json_path = opt_value "--json"
let spawn = List.mem "--spawn" argv

(* ------------------------------------------------------------------ *)
(* Workload: Sum over Qxyy(x) <- R(x,y), S(y), τ = id:R:0               *)
(* ------------------------------------------------------------------ *)

let query = "Q(x) <- R(x, y), S(y)"

let database_text rows =
  let groups = max 1 (int_of_float (sqrt (float_of_int rows))) in
  let b = Buffer.create (rows * 12) in
  for i = 0 to rows - 1 do
    Buffer.add_string b (Printf.sprintf "R(%d, %d)\n" i (i mod groups))
  done;
  for j = 0 to groups - 1 do
    Buffer.add_string b (Printf.sprintf "S(%d)\n" j)
  done;
  Buffer.contents b

let spec =
  { Api.query; db = database_text rows; agg = "sum"; tau = Some "id:R:0";
    jobs = Some 1 }

(* The update stream: delete/re-insert pairs over the first R fact, so
   the database returns to its base state after every round-trip and
   solve cost stays flat across the run. *)
let update_script step =
  if step mod 2 = 0 then "delete R(0, 0)" else "insert R(0, 0)"

(* ------------------------------------------------------------------ *)
(* One client process                                                  *)
(* ------------------------------------------------------------------ *)

(* Children report latencies through a temp file — one "KIND SECONDS"
   line per request — because waitpid gives the parent only an exit
   status. *)
let run_client ~tenant ~out_path =
  let oc = open_out out_path in
  let record kind t0 =
    Printf.fprintf oc "%s %.9f\n" kind (Unix.gettimeofday () -. t0)
  in
  let fail msg =
    close_out oc;
    prerr_endline (Printf.sprintf "loadgen: client %s: %s" tenant msg);
    exit 1
  in
  let outcome =
    Client.with_connection socket (fun c ->
        let roundtrip kind req expect =
          let t0 = Unix.gettimeofday () in
          match Client.request c req with
          | Error msg -> Error msg
          | Ok (Protocol.Error { message; _ }) -> Error message
          | Ok r ->
            record kind t0;
            expect r
        in
        let ( let* ) = Result.bind in
        let* () =
          roundtrip "open" (Protocol.Open { session = tenant; spec }) (function
            | Protocol.Opened _ -> Ok ()
            | _ -> Error "unexpected reply to open")
        in
        let rec go step =
          if step >= requests then Ok ()
          else
            let* () =
              roundtrip "update"
                (Protocol.Update { session = tenant; script = update_script step })
                (function
                  | Protocol.Updated _ -> Ok ()
                  | _ -> Error "unexpected reply to update")
            in
            let* () =
              roundtrip "solve" (Protocol.Solve { session = tenant }) (function
                | Protocol.Solved { values; _ } when values <> [] -> Ok ()
                | Protocol.Solved _ -> Error "solve returned no values"
                | _ -> Error "unexpected reply to solve")
            in
            go (step + 1)
        in
        let* () = go 0 in
        roundtrip "close" (Protocol.Close { session = tenant }) (function
          | Protocol.Closed _ -> Ok ()
          | _ -> Error "unexpected reply to close"))
  in
  match outcome with
  | Ok () ->
    close_out oc;
    exit 0
  | Error msg -> fail msg

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile from the benchmark's order-statistics module
   ([Stats], perf/stats.ml): a 1-sample run reports that sample for
   every percentile. An empty series prints as 0 and writes no row. *)
let percentile sorted p = Option.value (Stats.percentile sorted p) ~default:0.0

let read_latencies path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
      match String.split_on_char ' ' line with
      | [ kind; t ] -> (
        match float_of_string_opt t with
        | Some lat -> go ((kind, lat) :: acc)
        | None -> go acc)
      | _ -> go acc)
    | exception End_of_file ->
      close_in ic;
      acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let server_pid =
    if not spawn then None
    else begin
      match Unix.fork () with
      | 0 ->
        let config =
          { Server.socket; max_sessions = max 1 (clients / 2); state_dir = None;
            default_jobs = Some 1; log = ignore }
        in
        (match Server.run config with
         | Ok () -> exit 0
         | Error msg ->
           prerr_endline ("loadgen: server: " ^ msg);
           exit 1)
      | pid -> Some pid
    end
  in
  (* Make sure the server answers before starting the clock. *)
  (match
     Client.with_connection socket (fun c -> Client.request c Protocol.Ping)
   with
  | Ok Protocol.Pong -> ()
  | Ok _ -> die "unexpected reply to ping on %s" socket
  | Error msg -> die "%s" msg);
  Printf.printf "loadgen: %d clients x %d update+solve round-trips, %d rows/tenant, %s\n%!"
    clients requests rows socket;
  let out_path i = Filename.temp_file "loadgen" (Printf.sprintf ".%d.lat" i) in
  let children =
    List.init clients (fun i ->
        let path = out_path i in
        match Unix.fork () with
        | 0 -> run_client ~tenant:(Printf.sprintf "tenant-%d" i) ~out_path:path
        | pid -> (pid, path))
  in
  let t0 = Unix.gettimeofday () in
  let failures =
    List.fold_left
      (fun acc (pid, _) ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> acc
        | _, _ -> acc + 1)
      0 children
  in
  let wall = Unix.gettimeofday () -. t0 in
  let latencies = List.concat_map (fun (_, path) -> read_latencies path) children in
  List.iter (fun (_, path) -> try Sys.remove path with Sys_error _ -> ()) children;
  (match server_pid with
  | None -> ()
  | Some pid ->
    (match
       Client.with_connection socket (fun c -> Client.request c Protocol.Shutdown)
     with
    | Ok _ -> ()
    | Error _ -> (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
    ignore (Unix.waitpid [] pid));
  if failures > 0 then die "%d of %d clients failed" failures clients;
  let kinds = [ "open"; "update"; "solve"; "close" ] in
  Printf.printf "%-8s %8s %12s %12s %12s %12s\n" "request" "count" "p50" "p99" "max"
    "mean";
  let stats =
    List.map
      (fun kind ->
        let ls =
          List.filter_map (fun (k, t) -> if k = kind then Some t else None) latencies
        in
        let sorted = Array.of_list ls in
        Array.sort compare sorted;
        let count = Array.length sorted in
        let p50 = percentile sorted 0.50 in
        let p99 = percentile sorted 0.99 in
        let mx = if count = 0 then 0.0 else sorted.(count - 1) in
        let mean =
          if count = 0 then 0.0
          else Array.fold_left ( +. ) 0.0 sorted /. float_of_int count
        in
        Printf.printf "%-8s %8d %11.5fs %11.5fs %11.5fs %11.5fs\n" kind count p50 p99
          mx mean;
        (kind, count, p50, p99))
      kinds
  in
  let total = List.fold_left (fun acc (_, c, _, _) -> acc + c) 0 stats in
  Printf.printf "total: %d requests in %.3fs (%.1f req/s)\n" total wall
    (float_of_int total /. Stdlib.max 1e-9 wall);
  match json_path with
  | None -> ()
  | Some path ->
    let row workload wall_s reqs =
      J.Obj
        [ ("experiment", J.String "E17");
          ("workload", J.String workload);
          ("n", J.Int requests);
          ("players", J.Int clients);
          ("wall_s", J.Float wall_s);
          ("kernels", J.Obj [ ("requests", J.Int reqs); ("rows", J.Int rows) ]) ]
    in
    let results =
      List.concat_map
        (fun (kind, count, p50, p99) ->
          if count = 0 then []
          else
            [ row (Printf.sprintf "serve_%s:p50" kind) p50 count;
              row (Printf.sprintf "serve_%s:p99" kind) p99 count ])
        stats
      @ [ row "serve_total" wall total ]
    in
    let report =
      J.Obj
        [ ("schema", J.String Bench_json.schema_version);
          ("quick", J.Bool true);
          ("results", J.List results) ]
    in
    (match Bench_json.validate report with
     | Ok () -> ()
     | Error msg -> die "emitted report violates BENCH_v1: %s" msg);
    let oc = open_out path in
    output_string oc (J.to_string report);
    close_out oc;
    Printf.printf "wrote %s (%s, %d result rows)\n" path Bench_json.schema_version
      (List.length results)
