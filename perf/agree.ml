(* agree.exe — do two sets of benchmark runs agree?

   Usage: agree.exe A.jsonl B.jsonl [--benchmark BENCHMARK.json]

   A and B hold the records perf.exe --json appends, one run per line,
   typically five or more runs per workload each (one set per commit,
   or two sets of one commit). For every (workload, metric) it prints
   the median and quartiles of each set and a verdict against the
   metric's bound in BENCHMARK.json:
   - "unresolved" when either set's interquartile range, as a share of
     its median, exceeds the bound: the runs are too noisy to tell;
   - "worse" / "better" when B's median differs from A's by more than
     the bound in the metric's direction;
   - "ok" otherwise.
   Per-layer metrics have no bound and are printed without a verdict.
   Exits 1 if any end-to-end metric is worse, if a run in either set
   failed an operation or a check, or if an end-to-end metric of a
   workload is missing from either set; an unresolved metric is
   reported, not counted as a regression. *)

module J = Aggshap_json.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("agree: " ^ s); exit 2) fmt

(* Problems that make the comparison fail, reported as they are found. *)
let errors = ref 0

let error fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      prerr_endline ("agree: " ^ s))
    fmt

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die "%s" msg
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s

let number = function
  | J.Float f -> Some f
  | J.Int n -> Some (float_of_int n)
  | _ -> None

(* (workload, metric) -> values, from one file of run records. A run
   that failed an operation or a check is an error: its numbers do not
   measure the workload as defined. *)
let load path =
  let table = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match J.parse line with
        | Error msg -> die "%s line %d: %s" path (i + 1) msg
        | Ok record -> (
          match (J.member "workload" record, J.member "result" record) with
          | Some (J.String w), Some result -> (
            (match (J.member "correct" result, J.member "failed" result) with
             | Some (J.Bool true), Some (J.Int 0) -> ()
             | _, failed ->
               error "%s line %d: a %s run failed (%s operations or checks)" path (i + 1) w
                 (match failed with Some (J.Int n) -> string_of_int n | _ -> "unknown"));
            match J.member "metrics" result with
            | Some (J.Obj metrics) ->
              List.iter
                (fun (name, m) ->
                  match Option.bind (J.member "value" m) number with
                  | Some v ->
                    let key = (w, name) in
                    Hashtbl.replace table key
                      (v :: Option.value ~default:[] (Hashtbl.find_opt table key))
                  | None -> ())
                metrics
            | _ -> die "%s line %d: no metrics" path (i + 1))
          | _ -> die "%s line %d: not a run record" path (i + 1)))
    (String.split_on_char '\n' (read_file path));
  table

(* metric -> (better, bound), from BENCHMARK.json's end_to_end list. *)
let bounds path =
  match J.parse (read_file path) with
  | Error msg -> die "%s: %s" path msg
  | Ok doc -> (
    match J.member "end_to_end" doc with
    | Some (J.List ms) ->
      List.filter_map
        (fun m ->
          match (J.member "name" m, J.member "better" m, Option.bind (J.member "bound" m) number) with
          | Some (J.String n), Some (J.String b), Some bound -> Some (n, (b, bound))
          | _ -> None)
        ms
    | _ -> die "%s: no end_to_end list" path)

let summary values =
  let sorted = Stats.sort values in
  match (Stats.median sorted, Stats.quartiles sorted) with
  | Some m, Some (q1, _, q3) -> Some (m, q1, q3)
  | _ -> None

let spread (m, q1, q3) = if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

let () =
  let files, bench =
    let rec go files bench = function
      | "--benchmark" :: p :: rest -> go files p rest
      | f :: rest -> go (f :: files) bench rest
      | [] -> (List.rev files, bench)
    in
    go [] "BENCHMARK.json" (List.tl (Array.to_list Sys.argv))
  in
  let (pa, a), (pb, b) =
    match files with
    | [ pa; pb ] -> ((pa, load pa), (pb, load pb))
    | _ -> die "usage: agree.exe A.jsonl B.jsonl [--benchmark BENCHMARK.json]"
  in
  let bounds = bounds bench in
  let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] in
  (* Every end-to-end metric of every workload either set ran must be in
     both: a run that crashed or a metric that was dropped would
     otherwise leave the comparison silently incomplete. *)
  let workloads =
    List.sort_uniq compare
      (List.filter_map (fun (w, name) -> if List.mem_assoc name bounds then Some w else None) (keys a @ keys b))
  in
  List.iter
    (fun w ->
      List.iter
        (fun (name, _) ->
          List.iter
            (fun (path, t) ->
              if not (Hashtbl.mem t (w, name)) then error "%s: no %s runs report %s" path w name)
            [ (pa, a); (pb, b) ])
        bounds)
    workloads;
  let common = List.sort_uniq compare (keys a) |> List.filter (Hashtbl.mem b) in
  Printf.printf "%-16s %-28s %5s %14s %14s %14s %5s %14s %14s %14s  %s\n" "workload" "metric" "runs"
    "A median" "A q1" "A q3" "runs" "B median" "B q1" "B q3" "verdict";
  let worse = ref 0 in
  List.iter
    (fun ((w, name) as key) ->
      let va = Hashtbl.find a key and vb = Hashtbl.find b key in
      match (summary va, summary vb) with
      | Some ((ma, q1a, q3a) as sa), Some ((mb, q1b, q3b) as sb) ->
        let verdict =
          match List.assoc_opt name bounds with
          | None -> ""
          | Some (better, bound) ->
            let change = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
            let is_worse = if better = "lower" then change > bound else change < -.bound in
            let improved = if better = "lower" then change < -.bound else change > bound in
            let v =
              if spread sa > bound || spread sb > bound then "unresolved"
              else if is_worse then "worse"
              else if improved then "better"
              else "ok"
            in
            if v = "worse" then incr worse;
            Printf.sprintf "%s (%+.1f%%, bound %.0f%%, spreads %.1f%% / %.1f%%)" v (100.0 *. change)
              (100.0 *. bound) (100.0 *. spread sa) (100.0 *. spread sb)
        in
        Printf.printf "%-16s %-28s %5d %14.6g %14.6g %14.6g %5d %14.6g %14.6g %14.6g  %s\n" w name
          (List.length va) ma q1a q3a (List.length vb) mb q1b q3b verdict
      | _ -> ())
    common;
  if !worse > 0 || !errors > 0 then exit 1
