type config = {
  seed : int;
  trials : int;
  max_endo : int;
  par_jobs : int;
  max_failures : int;
  kc_always : bool;
  auto_always : bool;
}

let default =
  { seed = 0; trials = 100; max_endo = 8; par_jobs = 2; max_failures = 3;
    kc_always = false; auto_always = false }

type failure_report = {
  trial : Trial.t;
  failure : Oracle.failure;
  shrunk : Trial.t;
  shrunk_failure : Oracle.failure;
}

type report = {
  ran : int;
  failures : failure_report list;
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

let run_one ?max_endo ?par_jobs ?kc_always ?auto_always ~seed () =
  let trial = Trial.generate ?max_endo ~seed () in
  (trial, Oracle.run ?par_jobs ?kc_always ?auto_always trial)

type ufailure_report = {
  utrial : Utrial.t;
  ufailure : Oracle.failure;
  ushrunk : Utrial.t;
  ushrunk_failure : Oracle.failure;
}

type ureport = {
  uran : int;
  usteps : int;
  ufailures : ufailure_report list;
}

let run_updates_one ?max_endo ~seed () =
  let utrial = Utrial.generate ?max_endo ~seed () in
  (utrial, Oracle.run_updates utrial)

(* The update checks run the session and the naive reference in the
   calling domain, so [par_jobs] plays no role here. *)
let run_updates ?on_trial config =
  let failures = ref [] in
  let ran = ref 0 in
  let steps = ref 0 in
  let i = ref 0 in
  while !i < config.trials && List.length !failures < config.max_failures do
    let seed = trial_seed ~master:config.seed !i in
    let utrial, outcome = run_updates_one ~max_endo:config.max_endo ~seed () in
    (match on_trial with Some f -> f !i utrial | None -> ());
    incr ran;
    steps := !steps + List.length utrial.Utrial.ops;
    (match outcome with
     | None -> ()
     | Some ufailure ->
       let ushrunk, ushrunk_failure =
         Shrink.minimize_updates Oracle.run_updates utrial ufailure
       in
       failures := { utrial; ufailure; ushrunk; ushrunk_failure } :: !failures);
    incr i
  done;
  { uran = !ran; usteps = !steps; ufailures = List.rev !failures }

let run ?on_trial config =
  let failures = ref [] in
  let ran = ref 0 in
  let i = ref 0 in
  while !i < config.trials && List.length !failures < config.max_failures do
    let seed = trial_seed ~master:config.seed !i in
    let trial, outcome =
      run_one ~max_endo:config.max_endo ~par_jobs:config.par_jobs
        ~kc_always:config.kc_always ~auto_always:config.auto_always ~seed ()
    in
    (match on_trial with Some f -> f !i trial | None -> ());
    incr ran;
    (match outcome with
     | None -> ()
     | Some failure ->
       let check t =
         Oracle.run ~par_jobs:config.par_jobs ~kc_always:config.kc_always
           ~auto_always:config.auto_always t
       in
       let shrunk, shrunk_failure = Shrink.minimize check trial failure in
       failures := { trial; failure; shrunk; shrunk_failure } :: !failures);
    incr i
  done;
  { ran = !ran; failures = List.rev !failures }
