(* perf.exe — the repository benchmark.

   Usage, from the root of the repository:
     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--json FILE]
     perf.exe --smoke

   Generates the workload's inputs from the seed, sets up (five times,
   reporting the median), measures for S seconds, checks every answer,
   and prints one "name value unit" line per metric followed by a last
   line holding one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   With --trace 0 the metrics are the end-to-end ones, their times
   scaled to the host's nominal speed (host.ml) after "#" lines giving
   them as measured; with --trace 1 every other request of each kind is
   traced and the metrics are the per-layer ones. The names and units of both lists are read from
   BENCHMARK.json in the working directory. Exits 1 if any operation or
   check failed, 2 on bad arguments or a missing BENCHMARK.json. See
   perf/README.md. *)

module J = Aggshap_json.Json

let workloads =
  [ ("frontier_mix", Pool.frontier_mix);
    ("beyond_frontier", Pool.beyond_frontier);
    ("session_churn", Churn.run);
    ("wire_mixed", Wire.run) ]

let usage =
  "usage: perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] \
   [--json FILE]\n\
  \       perf.exe --smoke\n\
   workloads: " ^ String.concat ", " (List.map fst workloads)

let die msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

(* The (name, unit) pairs of one metric list of BENCHMARK.json, in its
   order: the one place metric names and units are written down. *)
let declared key =
  let fail msg = die ("BENCHMARK.json: " ^ msg) in
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error msg -> die msg
  in
  match J.parse text with
  | Error msg -> fail msg
  | Ok doc -> (
    match J.member key doc with
    | Some (J.List ms) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.String n), Some (J.String u) -> (n, u)
          | _ -> fail ("an entry of " ^ key ^ " lacks a name or unit"))
        ms
    | _ -> fail ("no " ^ key ^ " list"))

(* The metrics a run reports: [produced], in the declared order. A
   produced metric the list does not declare under the same unit is an
   error; a declared one not produced reads [missing], or is an error
   without it. *)
let conform declared ?missing produced =
  List.iter
    (fun (m : Run.metric) ->
      if List.assoc_opt m.name declared <> Some m.unit_ then
        failwith (Printf.sprintf "metric %s (%s) is not declared in BENCHMARK.json" m.name m.unit_))
    produced;
  List.map
    (fun (name, unit_) ->
      match (List.find_opt (fun (m : Run.metric) -> m.name = name) produced, missing) with
      | Some m, _ -> m
      | None, Some v -> Run.metric name unit_ v
      | None, None -> failwith (Printf.sprintf "declared metric %s is not measured" name))
    declared

let rec flags acc = function
  | "--smoke" :: rest -> flags (("--smoke", "1") :: acc) rest
  | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
    flags ((flag, value) :: acc) rest
  | [] -> acc
  | arg :: _ -> die ("unexpected argument " ^ arg)

let int_flag args name default =
  match List.assoc_opt name args with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ -> die (Printf.sprintf "%s wants a non-negative integer, got %S" name s))

(* The end-to-end metrics as measured, and with every time scaled to the
   host's nominal speed: what the result line reports. *)
let e2e_metrics declared (o : Run.outcome) =
  let sorted = Stats.sort o.solve_ms in
  let pct p = Option.value ~default:0.0 (Stats.percentile sorted p) in
  let busy_s = List.fold_left ( +. ) 0.0 o.solve_ms /. 1e3 in
  let metrics k =
    conform declared
      [ Run.metric "setup_s" "s" (k *. Option.value ~default:0.0 (Stats.median (Stats.sort o.setup_s)));
        Run.metric "solve_p50_ms" "ms" (k *. pct 0.5);
        Run.metric "solve_p99_ms" "ms" (k *. pct 0.99);
        Run.metric "facts_per_s" "1/s" (Run.ratio (float_of_int o.facts) (k *. busy_s));
        Run.metric "peak_rss_mb" "MiB" o.peak_rss_mb ]
  in
  (metrics 1.0, metrics (Host.scale ()))

(* A layer the workload never reaches reads 0. *)
let layer_metrics declared (o : Run.outcome) =
  conform declared ~missing:0.0 (Run.metric "host.kernel_ms" "ms" (Host.kernel_ms ()) :: o.layers)

let result_json (o : Run.outcome) metrics =
  J.Obj
    [ ("correct", J.Bool (o.failed = 0));
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (m : Run.metric) ->
               (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]))
             metrics) ) ]

let print_metrics ?(prefix = "") metrics =
  List.iter (fun (m : Run.metric) -> Printf.printf "%s%s %.9g %s\n" prefix m.name m.value m.unit_) metrics

(* The times as measured, then as reported. *)
let print_e2e (measured, scaled) =
  Printf.printf "# host kernel %.4f ms (nominal %.2f ms); measured:\n" (Host.kernel_ms ()) Host.nominal_ms;
  print_metrics ~prefix:"#   " measured;
  print_metrics scaled

let append_record path ~workload ~seed ~traced result =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc
    (J.to_line
       (J.Obj
          [ ("workload", J.String workload); ("seed", J.Int seed);
            ("trace", J.Int (if traced then 1 else 0)); ("result", result) ]));
  output_char oc '\n';
  close_out oc

let report name (o : Run.outcome) =
  let n = List.length o.solve_ms in
  Printf.printf "# %s: %d solves (highest percentile with ten beyond it: %s), %d operations attempted, %d failed\n"
    name n
    (match Stats.tail_percentile n with Some p -> Printf.sprintf "p%g" (100.0 *. p) | None -> "none")
    o.attempted o.failed

(* A few requests of every workload, traced, with all checks on: what
   `dune runtest` runs. Printing both metric lists checks them against
   BENCHMARK.json. *)
let smoke ~e2e ~layers =
  let failed =
    List.fold_left
      (fun failed (name, run) ->
        let o = run { Run.seed = 1; seconds = 0.0; traced = true; smoke = true } in
        report name o;
        print_e2e (e2e_metrics e2e o);
        print_metrics (layer_metrics layers o);
        if o.attempted = 0 then (
          Printf.printf "# %s: nothing was checked\n" name;
          failed + 1)
        else failed + o.failed)
      0 workloads
  in
  if failed > 0 then exit 1

let () =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (* A termination signal unwinds like an error, so a forked server is
     still stopped and waited for on the way out. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> failwith "terminated")))
    [ Sys.sigterm; Sys.sigint ];
  let args = flags [] (List.tl (Array.to_list Sys.argv)) in
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  if List.mem_assoc "--smoke" args then smoke ~e2e ~layers
  else
    let name =
      match List.assoc_opt "--workload" args with
      | Some w -> w
      | None -> die "--workload is required"
    in
    let run =
      match List.assoc_opt name workloads with
      | Some run -> run
      | None -> die ("unknown workload " ^ name)
    in
    let seed = int_flag args "--seed" 1 in
    let seconds = float_of_int (max 1 (int_flag args "--seconds" 20)) in
    let traced =
      match int_flag args "--trace" 0 with
      | 0 -> false
      | 1 -> true
      | _ -> die "--trace wants 0 or 1"
    in
    let o = run { Run.seed; seconds; traced; smoke = false } in
    report name o;
    let metrics =
      if traced then begin
        let m = layer_metrics layers o in
        print_metrics m;
        m
      end
      else begin
        let m = e2e_metrics e2e o in
        print_e2e m;
        snd m
      end
    in
    (match (List.assoc_opt "--trace-out" args, o.trace) with
     | Some path, Some tr -> Trace.write_json tr path
     | _ -> ());
    let result = result_json o metrics in
    Option.iter (fun path -> append_record path ~workload:name ~seed ~traced result)
      (List.assoc_opt "--json" args);
    print_endline (J.to_line result);
    if o.failed > 0 || o.attempted = 0 then exit 1
