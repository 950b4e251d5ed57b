(* bench/validate.exe FILE [--compare BASELINE.json [--tolerance PCT]]

   Parse FILE and check it against the BENCH_v1 schema; exit 1 with a
   diagnostic otherwise. With [--compare], additionally gate wall-clock
   regressions against a committed baseline report: every pinned
   experiment row of the baseline (E13–E16, E19–E21 — the deterministic
   kernel / incremental / engine benchmarks) must be present in FILE and must
   not be slower than baseline by more than the tolerance (default
   25%). A per-row delta table is always printed; E17 (server latency)
   and other unpinned rows are reported but never gate. CI runs this on
   the artifact produced by [bench/main.exe --quick --json]. *)

let usage () =
  prerr_endline
    "usage: validate.exe BENCH.json [--compare BASELINE.json [--tolerance PCT]]";
  exit 2

(* Rows too fast for a stable ratio: an absolute floor below which a
   regression cannot be claimed (timer noise dominates — the
   sub-millisecond rows swing 2x between runs on an otherwise idle
   machine). *)
let noise_floor_s = 0.002

type args = { path : string; compare : string option; tolerance : float }

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | "--compare" :: base :: rest -> go { acc with compare = Some base } rest
    | "--tolerance" :: pct :: rest -> (
      match float_of_string_opt pct with
      | Some t when t >= 0.0 -> go { acc with tolerance = t } rest
      | _ ->
        prerr_endline ("validate: --tolerance wants a non-negative number, got " ^ pct);
        exit 2)
    | path :: rest when acc.path = "" -> go { acc with path } rest
    | _ -> usage ()
  in
  let acc =
    go { path = ""; compare = None; tolerance = 25.0 } (List.tl (Array.to_list Sys.argv))
  in
  if acc.path = "" then usage () else acc

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error msg ->
    prerr_endline ("validate: " ^ msg);
    exit 1

let load path =
  match Bench_json.parse (read_file path) with
  | Error msg ->
    Printf.eprintf "validate: %s: JSON parse error %s\n" path msg;
    exit 1
  | Ok json -> (
    match Bench_json.validate json with
    | Error msg ->
      Printf.eprintf "validate: %s: schema violation: %s\n" path msg;
      exit 1
    | Ok () -> json)

(* The regression gate covers the deterministic benchmark experiments;
   E17 latency rows (load-dependent) are informational only. E19 is
   pinned so the join-planner win stays locked in: a regression in
   indexed evaluation shows up as a slower [:indexed] row. E20 pins the
   knowledge-compilation tier the same way, and E21 pins the solve
   planner's auto tier. *)
let pinned experiment =
  List.mem experiment [ "E13"; "E14"; "E15"; "E16"; "E19"; "E20"; "E21" ]

(* Planner-overhead guard, run on every report (no baseline needed):
   an E21 ":auto" row must not run slower than 1.2x the best forced
   exact tier on the same instance — the planner's whole point is that
   picking a route costs (almost) nothing. The forced wall-clock rides
   on the auto row itself as [best_forced_s]. Sub-noise-floor pairs are
   skipped: they swing too much for the ratio to mean anything. A
   report that carries E21 rows must also carry the ":budget"
   degradation row, so the abort-and-fall-back path stays exercised in
   every baseline. *)
let check_auto_planner json =
  let open Bench_json in
  let rows = match member "results" json with Some (List rs) -> rs | _ -> [] in
  let number = function
    | Some (Int i) -> Some (float_of_int i)
    | Some (Float f) -> Some f
    | _ -> None
  in
  let e21 =
    List.filter
      (fun r -> match member "experiment" r with
        | Some (String "E21") -> true
        | _ -> false)
      rows
  in
  let workload r = match member "workload" r with Some (String w) -> w | _ -> "" in
  let suffix s tail =
    let n = String.length s and m = String.length tail in
    n >= m && String.sub s (n - m) m = tail
  in
  let bad =
    List.filter
      (fun r ->
        suffix (workload r) ":auto"
        &&
        match (number (member "wall_s" r), number (member "best_forced_s" r)) with
        | Some wall, Some best ->
          wall >= noise_floor_s && best >= noise_floor_s
          && wall > 1.2 *. best
        | _ -> false)
      e21
  in
  List.iter
    (fun r ->
      match (number (member "wall_s" r), number (member "best_forced_s" r),
             member "n" r) with
      | Some wall, Some best, Some (Int n) ->
        Printf.eprintf
          "validate: planner overhead: %s n=%d took %.4fs vs best forced %.4fs (> 1.2x)\n"
          (workload r) n wall best
      | _ -> ())
    bad;
  let missing_budget =
    e21 <> [] && not (List.exists (fun r -> suffix (workload r) ":budget") e21)
  in
  if missing_budget then
    prerr_endline
      "validate: E21 rows present but no \":budget\" degradation row — the \
       node-budget abort path is not exercised";
  if bad <> [] || missing_budget then exit 1

let compare_reports ~tolerance ~base_path baseline current =
  let open Bench_json in
  let base_rows = report_rows baseline in
  let cur_rows = report_rows current in
  let lookup key =
    List.find_opt (fun r -> row_key r = key) cur_rows
  in
  Printf.printf "\nregression gate: vs %s, tolerance %+.0f%% on pinned rows (%s)\n"
    base_path tolerance "E13-E16, E19-E21";
  Printf.printf "%-44s %10s %10s %8s  %s\n" "row" "baseline" "current" "delta" "gate";
  let failures =
    List.fold_left
      (fun failures base ->
        let key = row_key base in
        let gated = pinned base.experiment in
        match lookup key with
        | None ->
          Printf.printf "%-44s %9.4fs %10s %8s  %s\n" key base.wall_s "-" "-"
            (if gated then "FAIL (missing)" else "skip (missing)");
          if gated then failures + 1 else failures
        | Some cur ->
          let delta_pct =
            if base.wall_s <= 0.0 then 0.0
            else (cur.wall_s -. base.wall_s) /. base.wall_s *. 100.0
          in
          let too_small =
            base.wall_s < noise_floor_s && cur.wall_s < noise_floor_s
          in
          let regressed = (not too_small) && delta_pct > tolerance in
          let verdict =
            if not gated then "info"
            else if too_small then "ok (below noise floor)"
            else if regressed then "FAIL"
            else "ok"
          in
          Printf.printf "%-44s %9.4fs %9.4fs %+7.1f%%  %s\n" key base.wall_s
            cur.wall_s delta_pct verdict;
          if gated && regressed then failures + 1 else failures)
      0 base_rows
  in
  let new_rows =
    List.filter
      (fun r -> not (List.exists (fun b -> row_key b = row_key r) base_rows))
      cur_rows
  in
  List.iter
    (fun r -> Printf.printf "%-44s %10s %9.4fs %8s  new\n" (row_key r) "-" r.wall_s "-")
    new_rows;
  if failures > 0 then begin
    Printf.eprintf
      "validate: %d pinned row%s regressed beyond %.0f%% (or went missing)\n" failures
      (if failures = 1 then "" else "s")
      tolerance;
    exit 1
  end
  else Printf.printf "regression gate: all pinned rows within tolerance\n"

let () =
  let args = parse_args () in
  let json = load args.path in
  let count =
    match json with
    | Bench_json.Obj fields -> (
      match List.assoc_opt "results" fields with
      | Some (Bench_json.List rs) -> List.length rs
      | _ -> 0)
    | _ -> 0
  in
  Printf.printf "validate: %s: valid %s report with %d result row%s\n" args.path
    Bench_json.schema_version count
    (if count = 1 then "" else "s");
  check_auto_planner json;
  match args.compare with
  | None -> ()
  | Some base_path ->
    let baseline = load base_path in
    compare_reports ~tolerance:args.tolerance ~base_path baseline json
