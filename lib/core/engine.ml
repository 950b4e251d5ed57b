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
  diff : 'table;
}

type 'table split = {
  pad : int;
  groups : ('table * 'table variant list) list;
}

let each_removal db table_of =
  List.map (fun f -> (f, table_of (Database.remove f db))) (Database.endogenous db)

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
  ( Array.init g (fun i -> op pre.(i) suf.(i + 1)),
    lazy (if g = 0 then unit else op pre.(g - 1) tables.(g - 1)) )

module type PASS_ALGEBRA = sig
  include TABLE_ALGEBRA

  val neutral : table
  val union : ctx -> table -> table -> table
  val diff : table -> table -> table
  val leaf_removals : ctx -> Cq.t -> Database.t -> table -> (Fact.t * table) list
end

module Make (A : TABLE_ALGEBRA) = struct
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

  let rec eval ctx q db =
    Atomic.incr c_nodes;
    match A.leaf ctx q db with
    | Some compute ->
      Atomic.incr c_leaves;
      compute ()
    | None -> begin
      match Decompose.connected_components q with
      | [] -> A.empty ctx db
      | [ _ ] -> connected ctx q db
      | comps ->
        Atomic.incr c_combines;
        A.combine ctx q db
          (List.map
             (fun (comp, db_c) -> (comp, db_c, fun () -> eval ctx comp db_c))
             (components comps db))
    end

  and connected ctx q db =
    match A.connected_leaf ctx q db with
    | Some compute ->
      Atomic.incr c_leaves;
      compute ()
    | None ->
      let root, blocks, dropped = partition q db in
      let subst = Cq.substituter q root in
      Atomic.incr c_merges;
      let tables =
        List.map (fun (v, block) -> (v, block, eval ctx (subst v) block)) blocks
      in
      A.pad ctx (Database.endo_size dropped) (A.merge ctx ~root tables)

  let eval_top ctx q db =
    let db_rel, pad = Decompose.relevant_part q db in
    A.pad ctx pad (eval ctx q db_rel)
end

(* The variant pass. A fact's removal database differs from [db] only
   along the fact's own path down the decomposition: at a root
   partition only its block changes, at a conjunction only its
   component. So every node's own table is built once, and a fact's
   removal table of a node is rebuilt from its removal table one level
   down:

   - at a root partition, by the union of the block's removal table with
     the leave-one-out table L_i of its siblings (prefix/suffix sweeps of
     [union], whose last prefix is the node's own table); a fact in no
     block is a null player and gets no removal table;
   - at a conjunction, by the algebra's [combine] on the removal
     database with the fact's component replaced. Every component is
     walked at most once, lazily, and its entry's thunk returns the
     table of that walk, to the node's own [combine] and to every
     fact's. Components the algebra hands to a sub-algorithm (it never
     forces their thunk) are thereby re-evaluated on the removal
     database, and are never walked. A fact the walk of its component
     left out is a null player of that component, and so of the
     conjunction whose [combine] reads the component's table;
   - at a leaf, by [leaf_removals].

   A fact whose removal dissolves its block keeps it as a block whose
   sub-query has no answer in any subset: a table that unions like null
   players, which is what the dissolved block's facts become. Since a
   table counts subsets by key and size, the fact's exogenous variant
   is read off the node's own table and the removal table ([A.diff]),
   where a read-out needs it. *)
module Pass (A : PASS_ALGEBRA) = struct
  include Make (A)

  exception Null_player

  let union ctx a b =
    if a == A.neutral then b else if b == A.neutral then a else A.union ctx a b

  (* The node's own table, built on demand, and every live fact's
     removal table. *)
  let rec walk ctx q db =
    match A.leaf ctx q db with
    | Some compute -> leaf ctx q db compute
    | None -> begin
      match Decompose.connected_components q with
      | [] ->
        ( lazy
            (Atomic.incr c_nodes;
             A.empty ctx db),
          [] )
      | [ _ ] -> begin
        match A.connected_leaf ctx q db with
        | Some compute -> leaf ctx q db compute
        | None -> partitioned ctx q db
      end
      | comps -> conjunction ctx q db comps
    end

  and leaf ctx q db compute =
    Atomic.incr c_nodes;
    Atomic.incr c_leaves;
    let t = compute () in
    (Lazy.from_val t, A.leaf_removals ctx q db t)

  and blocks ctx q db =
    let root, blocks, dropped = partition q db in
    let subst = Cq.substituter q root in
    let children = List.map (fun (v, block) -> walk ctx (subst v) block) blocks in
    let ls, all =
      leave_one_out ~unit:A.neutral ~op:(A.union ctx)
        (Array.of_list (List.map (fun (t, _) -> Lazy.force t) children))
    in
    (children, ls, all, dropped)

  and partitioned ctx q db =
    let children, ls, all, dropped = blocks ctx q db in
    let p = Database.endo_size dropped in
    let t =
      lazy
        (Atomic.incr c_nodes;
         Atomic.incr c_merges;
         A.pad ctx p (Lazy.force all))
    in
    let rms =
      List.concat
        (List.mapi
           (fun i (_, rms) ->
             List.map (fun (f, rm) -> (f, A.pad ctx p (union ctx ls.(i) rm))) rms)
           children)
    in
    (t, rms)

  and conjunction ctx q db comps =
    let parts =
      List.map
        (fun (comp, db_c) -> (comp, db_c, lazy (walk ctx comp db_c)))
        (components comps db)
    in
    let entries =
      List.map
        (fun (comp, db_c, w) -> (comp, db_c, fun () -> Lazy.force (fst (Lazy.force w))))
        parts
    in
    let conj db entries =
      let t = A.combine ctx q db entries in
      Atomic.incr c_combines;
      t
    in
    let t =
      lazy
        (Atomic.incr c_nodes;
         conj db entries)
    in
    let rms =
      List.concat
        (List.mapi
           (fun j (comp, db_c, w) ->
             let found =
               lazy
                 (let tbl = Hashtbl.create 16 in
                  List.iter (fun (f, rm) -> Hashtbl.replace tbl f rm) (snd (Lazy.force w));
                  tbl)
             in
             List.filter_map
               (fun f ->
                 let rm_c () =
                   match Hashtbl.find_opt (Lazy.force found) f with
                   | Some rm -> rm
                   | None -> raise Null_player
                 in
                 let replaced =
                   List.mapi
                     (fun j' e -> if j' <> j then e else (comp, Database.remove f db_c, rm_c))
                     entries
                 in
                 match conj (Database.remove f db) replaced with
                 | rm -> Some (f, rm)
                 | exception Null_player -> None)
               (Database.endogenous db_c))
           parts)
    in
    (t, rms)

  let removals ctx q db = snd (walk ctx q db)
  let diffs t rms = List.map (fun (fact, rm) -> { fact; diff = A.diff t rm }) rms

  let variants ctx q db =
    let t, rms = walk ctx q db in
    let t = Lazy.force t in
    (t, diffs t rms)

  let split ctx q db =
    let db_rel, irrelevant = Decompose.relevant_part q db in
    let partitions =
      Option.is_none (A.leaf ctx q db_rel)
      && (match Decompose.connected_components q with
          | [ _ ] -> Option.is_none (A.connected_leaf ctx q db_rel)
          | _ -> false)
    in
    if partitions then begin
      let children, ls, _, dropped = blocks ctx q db_rel in
      { pad = irrelevant + Database.endo_size dropped;
        groups = List.mapi (fun i (t, rms) -> (ls.(i), diffs (Lazy.force t) rms)) children }
    end
    else begin
      let t, rms = walk ctx q db_rel in
      { pad = irrelevant; groups = [ (A.neutral, diffs (Lazy.force t) rms) ] }
    end
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
