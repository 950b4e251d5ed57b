(* What every workload hands back to the driver in perf.ml, and the
   helpers the workloads share: the timed loop's bookkeeping, the
   correctness gates, and post-window replays. *)

module Api = Aggshap_api.Api
module Q = Aggshap_arith.Rational
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database
module Solver = Aggshap_core.Solver

type config = {
  seed : int;
  seconds : float;  (** length of the timed window *)
  traced : bool;
  smoke : bool;  (** tiny inputs, one set-up, a window of a few requests *)
}

let timed f =
  let t0 = Trace.now_ns () in
  let r = f () in
  (r, Trace.ms_between t0 (Trace.now_ns ()))

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  setup_s : float list;  (** one entry per set-up repetition *)
  solve_ms : float list;
      (** latencies of the untraced requests that return Shapley values
          for all facts *)
  facts : int;  (** Shapley values those requests returned *)
  attempted : int;  (** operations, including checks made after the window *)
  failed : int;
  peak_rss_mb : float;
  layers : metric list;  (** per-layer metrics; empty unless traced *)
  trace : Trace.t option;
}

(* A traced run interleaves: of the requests of one kind (one pool
   instance, one session, one wire request type), the odd-numbered ones
   are traced and the others not. Both halves then make the same mix of
   requests on the same machine and heap, and their difference is the
   tracing overhead. *)
type tracing = {
  tr : Trace.t;
  sums : Trace.sums;
}

let tracing c = if c.traced then Some { tr = Trace.create (); sums = Trace.sums () } else None

let pick tracing i =
  match tracing with
  | Some t when i land 1 = 1 -> (Some t.tr, Some t.sums)
  | Some _ | None -> (None, None)

type tally = {
  mutable attempted : int;
  mutable failed : int;
}

let tally () = { attempted = 0; failed = 0 }

(* Counts one operation; a failure is reported on stderr with [what]. *)
let check tally what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 10 then prerr_endline ("perf: check failed: " ^ what)
  end

let ok_or tally what = function
  | Ok v ->
    check tally what true;
    Some v
  | Error msg ->
    check tally (what ^ ": " ^ msg) false;
    None

(* One set-up in a forked child, which times it, releases it and sends
   back the time and its tally. The child never returns into the
   caller's code, and is stopped and waited for if the caller is
   interrupted. *)
let setup_apart tally release f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let r, ms = timed f in
        release r;
        let line = Printf.sprintf "%.17g %d %d\n" ms tally.attempted tally.failed in
        ignore (Unix.write_substring wr line 0 (String.length line));
        0
      with e ->
        prerr_endline ("perf: set-up: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line =
      match In_channel.input_line ic with
      | line -> line
      | exception e ->
        close_in_noerr ic;
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        raise e
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match Option.bind line (fun l -> Scanf.sscanf_opt l "%f %d %d" (fun ms a f -> (ms, a, f))) with
    | Some (ms, attempted, failed) ->
      tally.attempted <- attempted;
      tally.failed <- failed;
      ms
    | None -> failwith "a set-up process died"

(* Set-up runs five times and its median is reported, so a slow spell
   of the host during one or two set-ups does not decide the metric.
   The first four run in forked children, each from the same state as
   the last: their memory never shows in this process, whose peak is
   then that of one set-up and the window, as for a user. The last one
   serves the window. Returns it with the set-up times in seconds. *)
let setups c tally ?(release = ignore) f =
  let apart =
    List.init (if c.smoke then 0 else 4) (fun _ ->
        Host.sample ();
        setup_apart tally release f)
  in
  Host.sample ();
  let r, ms = timed f in
  (r, List.map (fun ms -> ms /. 1e3) (apart @ [ ms ]))

let deadline_after seconds = Int64.add (Trace.now_ns ()) (Int64.of_float (seconds *. 1e9))
let before deadline = Int64.compare (Trace.now_ns ()) deadline < 0

(* Median wall time of [k] calls, in ms: a replay measured apart from
   the request it explains. *)
let replay_ms k f =
  let ts = List.init k (fun _ -> snd (timed (fun () -> ignore (Sys.opaque_identity (f ()))))) in
  Option.value ~default:0.0 (Stats.median (Stats.sort ts))

let own_peak_rss_mb () = Option.value ~default:0.0 (Trace.peak_rss_mb "self")

(* ------------------------------------------------------------------ *)
(* Correctness gates                                                   *)
(* ------------------------------------------------------------------ *)

let exact values =
  List.map
    (fun (f, o) ->
      match o with
      | Solver.Exact v -> (f, v)
      | Solver.Estimate _ -> invalid_arg "perf: an exact route returned an estimate")
    values

let same_values a b =
  List.length a = List.length b
  && List.for_all2 (fun (f, v) (g, w) -> Fact.equal f g && Q.equal v w) a b

(* The efficiency axiom: the values of all endogenous facts sum to
   α(D) − α(D_exo). *)
let efficient a db values =
  let exo = Database.filter (fun _ p -> p = Database.Exogenous) db in
  match (Api.eval a db, Api.eval a exo) with
  | Ok full, Ok base ->
    Q.equal (List.fold_left (fun acc (_, v) -> Q.add acc v) Q.zero values) (Q.sub full base)
  | Error _, _ | _, Error _ -> false

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the traced requests                         *)
(* ------------------------------------------------------------------ *)

let per n x = if n = 0 then 0.0 else x /. float_of_int n
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Summed self time of the spans whose name satisfies [keep]. *)
let self_ms selfs keep =
  List.fold_left (fun acc ((s : Trace.span), t) -> if keep s.name then acc +. t else acc) 0.0 selfs

(* Counter metrics per operation, from the summed deltas of [n]
   operations. *)
let counter_metrics sums n =
  let c name = metric name "count/op" (per n (Trace.get sums name)) in
  [ c "engine.nodes"; c "engine.merges"; c "engine.leaves"; c "engine.combines";
    c "tables.convolve";
    metric "tables.convolve_small_share" "ratio"
      (ratio (Trace.get sums "tables.convolve_small") (Trace.get sums "tables.convolve"));
    c "tables.convolve_ntt"; c "tables.tree_folds"; c "bigint.mul_schoolbook";
    c "bigint.mul_karatsuba"; c "bigint.mul_small"; c "bigint.gcd"; c "bigint.divmod";
    c "bigint.promotions"; c "db.index_probes"; c "db.rel_scans"; c "db.index_builds";
    c "cq.plan_compiles"; c "ddnnf.nodes";
    metric "ddnnf.cache_hit_ratio" "ratio"
      (ratio (Trace.get sums "ddnnf.cache_hits")
         (Trace.get sums "ddnnf.cache_hits" +. Trace.get sums "ddnnf.cache_misses"));
    c "ddnnf.budget_aborts";
    metric "ddnnf.compile_ms" "ms" (per n (Trace.get sums "ddnnf.compile_ms"));
    metric "ddnnf.wmc_ms" "ms" (per n (Trace.get sums "ddnnf.wmc_ms"));
    metric "gc.minor_mw" "Mw/op" (per n (Trace.get sums "gc.minor_mw"));
    metric "gc.promoted_mw" "Mw/op" (per n (Trace.get sums "gc.promoted_mw"));
    c "gc.major_collections" ]

(* [trace.overhead_pct]: the traced requests' median latency against the
   untraced ones'. *)
let overhead_pct ~untraced ~traced =
  match (Stats.percentile (Stats.sort untraced) 0.5, Stats.percentile (Stats.sort traced) 0.5) with
  | Some u, Some t when u > 0.0 -> 100.0 *. (t -. u) /. u
  | _ -> 0.0

let percentile_ms samples p = Option.value ~default:0.0 (Stats.percentile (Stats.sort samples) p)
