module Cq = Aggshap_cq.Cq
module Decompose = Aggshap_cq.Decompose
module Database = Aggshap_relational.Database
module Value = Aggshap_relational.Value
module Fact = Aggshap_relational.Fact
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
let root_blocks q x db =
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

module type TABLE_ALGEBRA = sig
  type table
  type ctx

  val memo_prefix : ctx -> string
  val leaf : ctx -> Cq.t -> Database.t -> (unit -> table) option
  val connected_leaf : ctx -> Cq.t -> Database.t -> (unit -> table) option
  val empty : ctx -> Database.t -> table
  val root_mode : [ `Any_root | `Free_root ]
  val root_error : string
  val merge : ctx -> root:string -> (Value.t * Database.t * table) list -> table

  val combine :
    ctx -> Cq.t -> Database.t -> (Cq.t * Database.t * (unit -> table)) list -> table

  val pad : ctx -> int -> table -> table
end

type 'table variant = {
  fact : Fact.t;
  exo : 'table;
  rm : 'table;
}

type 'table split = {
  pad : int;
  groups : ('table * 'table variant list) list;
}

let variant_dbs f db =
  (Database.set_provenance Database.Exogenous f db, Database.remove f db)

let each_variant db table_of =
  List.map
    (fun f ->
      let db_exo, db_rm = variant_dbs f db in
      { fact = f; exo = table_of db_exo; rm = table_of db_rm })
    (Database.endogenous db)

let leave_one_out ~unit ~op tables =
  let op a b = if a == unit then b else if b == unit then a else op a b in
  let g = Array.length tables in
  let pre = Array.make (g + 1) unit and suf = Array.make (g + 1) unit in
  for i = 0 to g - 2 do
    pre.(i + 1) <- op pre.(i) tables.(i)
  done;
  for i = g - 1 downto 1 do
    suf.(i) <- op tables.(i) suf.(i + 1)
  done;
  Array.init g (fun i -> op pre.(i) suf.(i + 1))

module type PASS_ALGEBRA = sig
  include TABLE_ALGEBRA

  val neutral : table
  val union : ctx -> table -> table -> table
  val leaf_variants : ctx -> Cq.t -> Database.t -> table -> table variant list
end

module Make (A : TABLE_ALGEBRA) = struct
  let key ctx q db () = A.memo_prefix ctx ^ Decompose.block_key q db

  let components comps db =
    List.map
      (fun comp -> (comp, fst (Database.restrict_relations (Cq.relations comp) db)))
      comps

  let partition q db =
    let root =
      match Decompose.choose_root q with
      | Some x
        when (match A.root_mode with
              | `Any_root -> true
              | `Free_root -> Cq.is_free q x) ->
        x
      | Some _ | None -> invalid_arg (A.root_error ^ Cq.to_string q)
    in
    let blocks, dropped = root_blocks q root db in
    (root, blocks, dropped)

  let rec eval ?memo ctx q db =
    Memo.find_or_compute memo ~key:(key ctx q db) (fun () -> eval_uncached ?memo ctx q db)

  and eval_uncached ?memo ctx q db =
    Atomic.incr c_nodes;
    match A.leaf ctx q db with
    | Some compute ->
      Atomic.incr c_leaves;
      compute ()
    | None -> begin
      match Decompose.connected_components q with
      | [] -> A.empty ctx db
      | [ _ ] -> connected ?memo ctx q db
      | comps ->
        Atomic.incr c_combines;
        A.combine ctx q db
          (List.map
             (fun (comp, db_c) -> (comp, db_c, fun () -> eval ?memo ctx comp db_c))
             (components comps db))
    end

  and connected ?memo ctx q db =
    match A.connected_leaf ctx q db with
    | Some compute ->
      Atomic.incr c_leaves;
      compute ()
    | None ->
      let root, blocks, dropped = partition q db in
      let subst = Cq.substituter q root in
      Atomic.incr c_merges;
      let tables =
        List.map (fun (v, block) -> (v, block, eval ?memo ctx (subst v) block)) blocks
      in
      A.pad ctx (Database.endo_size dropped) (A.merge ctx ~root tables)


  let eval_top ?memo ctx q db =
    let db_rel, pad = Decompose.relevant_part q db in
    A.pad ctx pad (eval ?memo ctx q db_rel)
end

(* The variant pass. A fact's two variant databases differ from [db]
   only along the fact's own path down the decomposition: at a root
   partition only its block changes, at a conjunction only its
   component. So every node's own table is built once, and a fact's
   variant table of a node is rebuilt from its variant table one level
   down:

   - at a root partition, by the union of the block's variant with the
     leave-one-out table L_i of its siblings (prefix/suffix sweeps of
     [union]); a fact in no block keeps the node's own table (minus one
     null player) for both variants;
   - at a conjunction, by the algebra's [combine] on the variant
     database with the fact's component replaced. Components the algebra
     hands to a sub-algorithm (it never forces their thunk) are thereby
     re-evaluated on the variant database; only a forced thunk recurses
     into the pass. The thunks of the components a variant keeps
     re-evaluate them on every [combine], unless a memo serves them;
   - at a leaf, by [leaf_variants].

   A fact whose removal dissolves its block keeps it as a block whose
   sub-query has no answer in any subset: a table that unions like null
   players, which is what the dissolved block's facts become. *)
module Pass (A : PASS_ALGEBRA) = struct
  include Make (A)

  let node ?memo ctx q db compute =
    Memo.find_or_compute memo ~key:(key ctx q db) (fun () ->
        Atomic.incr c_nodes;
        compute ())

  let union ctx a b =
    if a == A.neutral then b else if b == A.neutral then a else A.union ctx a b

  let rec variants ?memo ctx q db =
    match A.leaf ctx q db with
    | Some compute -> leaf ?memo ctx q db compute
    | None -> begin
      match Decompose.connected_components q with
      | [] -> (node ?memo ctx q db (fun () -> A.empty ctx db), each_variant db (A.empty ctx))
      | [ _ ] -> begin
        match A.connected_leaf ctx q db with
        | Some compute -> leaf ?memo ctx q db compute
        | None -> partitioned ?memo ctx q db
      end
      | comps -> conjunction ?memo ctx q db comps
    end

  and leaf ?memo ctx q db compute =
    let t =
      node ?memo ctx q db (fun () ->
          Atomic.incr c_leaves;
          compute ())
    in
    (t, A.leaf_variants ctx q db t)

  and blocks ?memo ctx q db =
    let root, blocks, dropped = partition q db in
    let subst = Cq.substituter q root in
    let children =
      List.map (fun (v, block) -> (v, block, variants ?memo ctx (subst v) block)) blocks
    in
    let tables = Array.of_list (List.map (fun (_, _, (t, _)) -> t) children) in
    (root, children, leave_one_out ~unit:A.neutral ~op:(A.union ctx) tables, dropped)

  and partitioned ?memo ctx q db =
    let root, children, ls, dropped = blocks ?memo ctx q db in
    let p = Database.endo_size dropped in
    let merged =
      lazy
        (Atomic.incr c_merges;
         A.merge ctx ~root (List.map (fun (v, block, (t, _)) -> (v, block, t)) children))
    in
    let t = node ?memo ctx q db (fun () -> A.pad ctx p (Lazy.force merged)) in
    let in_blocks =
      List.concat
        (List.mapi
           (fun i (_, _, (_, vs)) ->
             let lift t = A.pad ctx p (union ctx ls.(i) t) in
             List.map (fun v -> { v with exo = lift v.exo; rm = lift v.rm }) vs)
           children)
    in
    let null = lazy (A.pad ctx (p - 1) (Lazy.force merged)) in
    let outside =
      List.map
        (fun f -> { fact = f; exo = Lazy.force null; rm = Lazy.force null })
        (Database.endogenous dropped)
    in
    (t, in_blocks @ outside)

  and conjunction ?memo ctx q db comps =
    let parts = components comps db in
    let entries =
      List.map (fun (comp, db_c) -> (comp, db_c, fun () -> eval ?memo ctx comp db_c)) parts
    in
    let conj db entries =
      Atomic.incr c_combines;
      A.combine ctx q db entries
    in
    let t = node ?memo ctx q db (fun () -> conj db entries) in
    let vs =
      List.concat
        (List.mapi
           (fun j (comp, db_c) ->
             let inner =
               lazy
                 (let tbl = Hashtbl.create 16 in
                  List.iter
                    (fun v -> Hashtbl.replace tbl v.fact v)
                    (snd (variants ?memo ctx comp db_c));
                  tbl)
             in
             let at f db' db_c' pick =
               conj db'
                 (List.mapi
                    (fun j' e ->
                      if j' <> j then e
                      else (comp, db_c', fun () -> pick (Hashtbl.find (Lazy.force inner) f)))
                    entries)
             in
             List.map
               (fun f ->
                 let db_exo, db_rm = variant_dbs f db in
                 let c_exo, c_rm = variant_dbs f db_c in
                 { fact = f;
                   exo = at f db_exo c_exo (fun v -> v.exo);
                   rm = at f db_rm c_rm (fun v -> v.rm) })
               (Database.endogenous db_c))
           parts)
    in
    (t, vs)

  let split ?memo ctx q db =
    let db_rel, irrelevant = Decompose.relevant_part q db in
    let live vs = List.filter (fun v -> v.exo != v.rm) vs in
    let partitions =
      Option.is_none (A.leaf ctx q db_rel)
      && (match Decompose.connected_components q with
          | [ _ ] -> Option.is_none (A.connected_leaf ctx q db_rel)
          | _ -> false)
    in
    if partitions then begin
      let _, children, ls, dropped = blocks ?memo ctx q db_rel in
      { pad = irrelevant + Database.endo_size dropped;
        groups = List.mapi (fun i (_, _, (_, vs)) -> (ls.(i), live vs)) children }
    end
    else
      { pad = irrelevant; groups = [ (A.neutral, live (snd (variants ?memo ctx q db_rel))) ] }
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
