type config = {
  seed : int;
  trials : int;
  max_endo : int;
  par_jobs : int;
  max_failures : int;
}

let default = { seed = 0; trials = 100; max_endo = 8; par_jobs = 2; max_failures = 3 }

type 't failure_report = {
  trial : 't;
  failure : Oracle.failure;
  shrunk : 't;
  shrunk_failure : Oracle.failure;
}

type 't report = {
  ran : int;
  failures : 't failure_report list;
}

(* A sparse odd multiplier keeps derived seeds distinct across both the
   trial index and nearby master seeds. *)
let trial_seed ~master i = (master * 1_000_003) + i

let parse_corpus contents =
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         match String.trim line with
         | "" -> None
         | s -> (
           match int_of_string_opt s with
           | Some seed -> Some seed
           | None -> invalid_arg ("Fuzz.parse_corpus: malformed seed " ^ s)))

let run_one ?max_endo ?par_jobs ~seed () =
  let trial = Trial.generate ?max_endo ~seed () in
  (trial, Oracle.run ?par_jobs trial)

let run_updates_one ?max_endo ~seed () =
  let utrial = Utrial.generate ?max_endo ~seed () in
  (utrial, Oracle.run_updates utrial)

(* The loop both campaigns run: trial [i] is generated from the [i]-th
   derived seed, each failure is shrunk against the same check, and the
   run stops once [max_failures] have been collected. *)
let campaign ~generate ~check ~minimize ?on_trial config =
  let rec go i failures =
    if i >= config.trials || List.length failures >= config.max_failures then
      { ran = i; failures = List.rev failures }
    else begin
      let trial = generate (trial_seed ~master:config.seed i) in
      (match on_trial with Some f -> f i trial | None -> ());
      match check trial with
      | None -> go (i + 1) failures
      | Some failure ->
        let shrunk, shrunk_failure = minimize check trial failure in
        go (i + 1) ({ trial; failure; shrunk; shrunk_failure } :: failures)
    end
  in
  go 0 []

let run ?on_trial config =
  campaign
    ~generate:(fun seed -> Trial.generate ~max_endo:config.max_endo ~seed ())
    ~check:(Oracle.run ~par_jobs:config.par_jobs)
    ~minimize:Shrink.minimize ?on_trial config

(* The update checks run the session and the naive reference in the
   calling domain, so [par_jobs] plays no role here. *)
let run_updates ?on_trial config =
  campaign
    ~generate:(fun seed -> Utrial.generate ~max_endo:config.max_endo ~seed ())
    ~check:Oracle.run_updates
    ~minimize:Shrink.minimize_updates ?on_trial config
