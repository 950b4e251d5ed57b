module Cq = Aggshap_cq.Cq
module Decompose = Aggshap_cq.Decompose
module Database = Aggshap_relational.Database
module Value = Aggshap_relational.Value
module Fault = Aggshap_arith.Fault

type stats = {
  nodes : int;
  leaves : int;
  merges : int;
  combines : int;
}

(* Atomic counters, same contract as [Tables.stats]: exact under
   concurrent domains. *)
let c_nodes = Atomic.make 0
let c_leaves = Atomic.make 0
let c_merges = Atomic.make 0
let c_combines = Atomic.make 0

let stats () =
  { nodes = Atomic.get c_nodes;
    leaves = Atomic.get c_leaves;
    merges = Atomic.get c_merges;
    combines = Atomic.get c_combines }

let reset_stats () =
  Atomic.set c_nodes 0;
  Atomic.set c_leaves 0;
  Atomic.set c_merges 0;
  Atomic.set c_combines 0

(* The partition step shared by every engine instance. [`Block_drop]
   demotes the last block (when there are at least two) to null-player
   padding: the table stays length-consistent — the block's facts are
   still accounted for — but its contribution to the merge is lost, so
   every aggregate's values go wrong whenever that block matters. *)
let faulty_partition q x db =
  let blocks, dropped = Decompose.partition q x db in
  match !Fault.current with
  | `Block_drop when List.length blocks >= 2 -> begin
    match List.rev blocks with
    | (_, last) :: kept_rev ->
      ( List.rev kept_rev,
        Database.fold
          (fun f p acc -> Database.add ~provenance:p f acc)
          last dropped )
    | [] -> assert false
  end
  | _ -> (blocks, dropped)

(* Partition results are pure functions of (query, database) — the root
   is chosen deterministically from the query — so they are shared
   process-wide under the same injective key the DP memos use. The big
   winners are solves that revisit the same sub-database with different
   table contexts: Avg/Quantile re-runs the engine once per reference
   value, and the per-fact batch loops revisit every block the fact is
   not in. The cache is bypassed (neither read nor written) whenever a
   fault is armed, so a faulty partition is never cached and a
   fault-free one never hides a fault. Bounded: wholesale reset at
   [partition_cache_cap] entries — stale entries are never wrong (the
   key is injective), only unused. *)
let partition_cache :
    (string, (Value.t * Database.t) list * Database.t) Hashtbl.t =
  Hashtbl.create 1024

let partition_lock = Mutex.create ()
let partition_cache_cap = 8192

let cached_partition q root db =
  if !Fault.current <> `None then
    faulty_partition q root db
  else begin
    let key = Decompose.block_key q db in
    Mutex.lock partition_lock;
    match Hashtbl.find_opt partition_cache key with
    | Some r ->
      Mutex.unlock partition_lock;
      r
    | None ->
      Mutex.unlock partition_lock;
      let r = Decompose.partition q root db in
      Mutex.lock partition_lock;
      if Hashtbl.length partition_cache >= partition_cache_cap then
        Hashtbl.reset partition_cache;
      if not (Hashtbl.mem partition_cache key) then Hashtbl.add partition_cache key r;
      Mutex.unlock partition_lock;
      r
  end

let connected_root q =
  match Decompose.connected_components q with
  | [ _ ] when not (Decompose.is_ground q) -> Decompose.choose_root q
  | _ -> None

let root_partition q ~root db = faulty_partition q root db

module type TABLE_ALGEBRA = sig
  type table
  type ctx

  val memo_prefix : ctx -> string
  val leaf : ctx -> Cq.t -> Database.t -> table option
  val connected_leaf : ctx -> Cq.t -> Database.t -> table option
  val empty : ctx -> Database.t -> table
  val root_mode : [ `Any_root | `Free_root ]
  val root_error : string
  val merge : ctx -> root:string -> (Value.t * Database.t * table) list -> table

  val combine :
    ctx -> Cq.t -> Database.t -> (Cq.t * Database.t * (unit -> table)) list -> table

  val pad : ctx -> int -> table -> table
end

module Make (A : TABLE_ALGEBRA) = struct
  let rec eval ?memo ctx q db =
    Memo.find_or_compute memo
      ~key:(fun () -> A.memo_prefix ctx ^ Decompose.block_key q db)
      (fun () -> eval_uncached ?memo ctx q db)

  and eval_uncached ?memo ctx q db =
    Atomic.incr c_nodes;
    match A.leaf ctx q db with
    | Some t ->
      Atomic.incr c_leaves;
      t
    | None -> begin
      match Decompose.connected_components q with
      | [] -> A.empty ctx db
      | [ _ ] -> connected ?memo ctx q db
      | comps ->
        Atomic.incr c_combines;
        A.combine ctx q db
          (List.map
             (fun comp ->
               let db_c, _ = Database.restrict_relations (Cq.relations comp) db in
               (comp, db_c, fun () -> eval ?memo ctx comp db_c))
             comps)
    end

  and connected ?memo ctx q db =
    match A.connected_leaf ctx q db with
    | Some t ->
      Atomic.incr c_leaves;
      t
    | None ->
      let root =
        match Decompose.choose_root q with
        | Some x
          when (match A.root_mode with
                | `Any_root -> true
                | `Free_root -> Cq.is_free q x) ->
          x
        | Some _ | None -> invalid_arg (A.root_error ^ Cq.to_string q)
      in
      Atomic.incr c_merges;
      let blocks, dropped = cached_partition q root db in
      let subst = Cq.substituter q root in
      let tables =
        List.map (fun (v, block) -> (v, block, eval ?memo ctx (subst v) block)) blocks
      in
      A.pad ctx (Database.endo_size dropped) (A.merge ctx ~root tables)

  let eval_top ?memo ctx q db =
    let db_rel, pad = Decompose.relevant_part q db in
    A.pad ctx pad (eval ?memo ctx q db_rel)
end

type shape =
  | Empty
  | Ground of string
  | Partition of { root : string; free : bool; sub : shape }
  | Cross of (string * shape) list
  | Stuck of string

(* A fresh constant never produced by the parser's value lexer, so the
   substitution below cannot collide with constants of the query. *)
let placeholder = Value.Str "\xe2\x80\xa2"

let rec shape q =
  match Decompose.connected_components q with
  | [] -> Empty
  | [ _ ] ->
    if Decompose.is_ground q then
      Ground (match q.Cq.body with a :: _ -> a.Cq.rel | [] -> assert false)
    else begin
      match Decompose.choose_root q with
      | None -> Stuck (Cq.to_string q)
      | Some x ->
        Partition
          { root = x; free = Cq.is_free q x; sub = shape (Cq.substitute q x placeholder) }
    end
  | comps -> Cross (List.map (fun c -> (Cq.to_string c, shape c)) comps)

let pp_shape fmt s =
  let pad fmt indent =
    for _ = 1 to indent do
      Format.pp_print_string fmt "  "
    done
  in
  let rec pp indent s =
    pad fmt indent;
    match s with
    | Empty -> Format.fprintf fmt "empty query: vacuously true@,"
    | Ground rel -> Format.fprintf fmt "ground atom of %s: read provenance@," rel
    | Partition { root; free; sub } ->
      Format.fprintf fmt "partition on root %s (%s): merge per-value blocks@," root
        (if free then "free" else "existential");
      pp (indent + 1) sub
    | Cross comps ->
      Format.fprintf fmt "conjunction of %d independent components@,"
        (List.length comps);
      List.iter
        (fun (name, sub) ->
          pad fmt (indent + 1);
          Format.fprintf fmt "component %s@," name;
          pp (indent + 2) sub)
        comps
    | Stuck q ->
      Format.fprintf fmt "stuck: no root variable (not hierarchical): %s@," q
  in
  Format.pp_open_vbox fmt 0;
  pp 0 s;
  Format.pp_close_box fmt ()
