(* Monotonic clock, in-memory spans and per-operation counter deltas.

   Spans are recorded by the harness around each call it makes into a
   layer's public function — the library itself is not instrumented.
   A span has a name, a start, an end, the span that caused it and the
   request it belongs to. Untraced runs pass [None] and pay nothing but
   the closure call. *)

module Engine = Aggshap_core.Engine
module Tables = Aggshap_core.Tables
module Bigint = Aggshap_arith.Bigint
module Database = Aggshap_relational.Database
module Plan = Aggshap_cq.Plan
module Ddnnf = Aggshap_lineage.Ddnnf
module J = Aggshap_json.Json

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** [-1] for a request's root span *)
  start_ns : int64;
  mutable stop_ns : int64;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : span list;  (** open spans, innermost first *)
  mutable req : int;
}

let create () = { spans = []; next = 0; stack = []; req = 0 }

let add tr ~req ~parent name start_ns stop_ns =
  let s = { id = tr.next; name; req; parent; start_ns; stop_ns } in
  tr.next <- tr.next + 1;
  tr.spans <- s :: tr.spans;
  s

(* [span tr name f]: a span around the call [f ()], child of the
   innermost open span. *)
let span tro name f =
  match tro with
  | None -> f ()
  | Some tr ->
    let parent = match tr.stack with s :: _ -> s.id | [] -> -1 in
    let s = add tr ~req:tr.req ~parent name (now_ns ()) 0L in
    tr.stack <- s :: tr.stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        tr.stack <- List.tl tr.stack)
      f

(* A request's root span: every span opened inside shares its id. *)
let request tro name f =
  match tro with
  | None -> f ()
  | Some tr ->
    tr.req <- tr.req + 1;
    span tro name f

(* Spans whose interval the harness observed without a call of its own
   around it: on the wire a request is due before it is sent, and its
   wait ends when the reply line is read. A root's end is set when the
   request completes. *)
let root tr name start_ns =
  tr.req <- tr.req + 1;
  add tr ~req:tr.req ~parent:(-1) name start_ns 0L

let child tr (p : span) name start_ns stop_ns =
  ignore (add tr ~req:p.req ~parent:p.id name start_ns stop_ns)

let duration_ms s = ms_between s.start_ns s.stop_ns

(* Span id -> summed duration of its direct children. *)
let children_ms tr =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    tr.spans;
  child

(* Self time: a span's duration minus the part its children cover. *)
let self_times tr =
  let child = children_ms tr in
  List.map
    (fun s -> (s, duration_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    tr.spans

(* Share of each root span's duration that its direct children cover;
   the minimum over requests says whether the spans account for the
   time a user waited. A request that is a single layer call is one
   span with no children, attributed whole. *)
let min_coverage_pct tr =
  let child = children_ms tr in
  List.fold_left
    (fun acc s ->
      match Hashtbl.find_opt child s.id with
      | Some covered when s.parent < 0 && duration_ms s > 0.0 ->
        Float.min acc (100.0 *. covered /. duration_ms s)
      | _ -> acc)
    100.0 tr.spans

let to_json tr =
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [ ("id", J.Int s.id); ("name", J.String s.name); ("req", J.Int s.req);
             ("parent", J.Int s.parent); ("start_ns", J.String (Int64.to_string s.start_ns));
             ("end_ns", J.String (Int64.to_string s.stop_ns)) ])
       tr.spans)

let write_json tr path =
  let oc = open_out path in
  output_string oc (J.to_string (to_json tr));
  close_out oc

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Every public layer counter the library keeps, under the per-layer
   metric name it feeds. Read before and after one operation; the
   difference is what that operation cost. Exact only with every solve
   on one domain, which is why the benchmark runs with jobs = 1. *)
let counters () =
  let e = Engine.stats () and t = Tables.stats () and b = Bigint.stats () in
  let d = Database.stats () and p = Plan.stats () and k = Ddnnf.stats () in
  let g = Gc.quick_stat () in
  let i = float_of_int in
  [ ("engine.nodes", i e.Engine.nodes);
    ("engine.merges", i e.Engine.merges);
    ("engine.leaves", i e.Engine.leaves);
    ("engine.combines", i e.Engine.combines);
    ("tables.convolve", i t.Tables.convolve);
    ("tables.convolve_small", i t.Tables.convolve_small);
    ("tables.convolve_ntt", i t.Tables.convolve_ntt);
    ("tables.tree_folds", i t.Tables.tree_folds);
    ("bigint.mul_schoolbook", i b.Bigint.mul_schoolbook);
    ("bigint.mul_karatsuba", i b.Bigint.mul_karatsuba);
    ("bigint.mul_small", i b.Bigint.mul_small);
    ("bigint.gcd", i b.Bigint.gcd);
    ("bigint.divmod", i b.Bigint.divmod);
    ("bigint.promotions", i b.Bigint.promotions);
    ("db.index_probes", i d.Database.index_probes);
    ("db.rel_scans", i d.Database.rel_scans);
    ("db.index_builds", i d.Database.index_builds);
    ("cq.plan_compiles", i p.Plan.plan_compiles);
    ("ddnnf.nodes", i k.Ddnnf.nodes);
    ("ddnnf.cache_hits", i k.Ddnnf.cache_hits);
    ("ddnnf.cache_misses", i k.Ddnnf.cache_misses);
    ("ddnnf.budget_aborts", i k.Ddnnf.budget_aborts);
    ("ddnnf.compile_ms", k.Ddnnf.compile_s *. 1e3);
    ("ddnnf.wmc_ms", k.Ddnnf.wmc_s *. 1e3);
    ("gc.minor_mw", g.Gc.minor_words /. 1e6);
    ("gc.promoted_mw", g.Gc.promoted_words /. 1e6);
    ("gc.major_collections", i g.Gc.major_collections) ]

(* Running sums of counter deltas, by name. *)
type sums = (string, float) Hashtbl.t

let sums () : sums = Hashtbl.create 64
let get (s : sums) name = Option.value ~default:0.0 (Hashtbl.find_opt s name)

(* Runs [f], adding the counter deltas it caused to [s]. Returns those
   deltas too, for callers that attribute them further. *)
let counted (s : sums option) f =
  match s with
  | None -> (f (), [])
  | Some s ->
    let before = counters () in
    let r = f () in
    let delta = List.map2 (fun (n, a) (_, b) -> (n, b -. a)) before (counters ()) in
    List.iter (fun (n, d) -> Hashtbl.replace s n (d +. get s n)) delta;
    (r, delta)

(* ------------------------------------------------------------------ *)
(* Peak memory                                                         *)
(* ------------------------------------------------------------------ *)

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              Some (float_of_int kb /. 1024.0))
        else go ()
    in
    let r = go () in
    close_in ic;
    r
