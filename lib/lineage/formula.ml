(* Hash-consed monotone Boolean formulas over integer variables.

   Lineage of an aggregate-query answer is a positive DNF over the
   endogenous facts (one minterm per homomorphism), and every event the
   aggregate decomposition produces is an OR/AND combination of such
   lineages — so negation never appears. Smart constructors keep terms
   canonical (flattened, children sorted by id, unit/absorbing elements
   folded away, subsumed minterms dropped), and a per-store table makes
   structurally equal formulas physically equal: the compiler's
   formula-keyed cache (see {!Ddnnf}) is sound exactly because equal
   sub-problems share one id. *)

module ISet = Set.Make (Int)

type t = {
  id : int;
  node : node;
  vars : ISet.t;
  minterm : bool;  (* pure conjunction of variables (includes True) *)
}

and node =
  | True
  | False
  | Var of int
  | And of t list
  | Or of t list

(* Structural keys for hash-consing; children by id only. *)
type key =
  | KTrue
  | KFalse
  | KVar of int
  | KAnd of int list
  | KOr of int list

type store = {
  tbl : (key, t) Hashtbl.t;
  cond_memo : (int * int * bool, t) Hashtbl.t;
  mutable next_id : int;
}

let create_store () =
  { tbl = Hashtbl.create 256; cond_memo = Hashtbl.create 256; next_id = 0 }

let intern store key node ~vars ~minterm =
  match Hashtbl.find_opt store.tbl key with
  | Some f -> f
  | None ->
    let f = { id = store.next_id; node; vars; minterm } in
    store.next_id <- store.next_id + 1;
    Hashtbl.add store.tbl key f;
    f

let tru store = intern store KTrue True ~vars:ISet.empty ~minterm:true
let fls store = intern store KFalse False ~vars:ISet.empty ~minterm:false

let var store v =
  if v < 0 then invalid_arg "Formula.var: negative variable";
  intern store (KVar v) (Var v) ~vars:(ISet.singleton v) ~minterm:true

let id f = f.id
let var_set f = f.vars
let vars f = ISet.elements f.vars
let is_true f = match f.node with True -> true | _ -> false
let is_false f = match f.node with False -> true | _ -> false
let view f = f.node

let by_id a b = compare a.id b.id

(* AND: flatten nested conjunctions, drop True, annihilate on False,
   sort + dedup children by id. *)
let and_ store xs =
  let rec gather acc = function
    | [] -> Some acc
    | x :: rest -> (
      match x.node with
      | True -> gather acc rest
      | False -> None
      | And ys -> (
        match gather acc ys with None -> None | Some acc -> gather acc rest)
      | Var _ | Or _ -> gather (x :: acc) rest)
  in
  match gather [] xs with
  | None -> fls store
  | Some children -> (
    let children = List.sort_uniq by_id children in
    match children with
    | [] -> tru store
    | [ x ] -> x
    | _ ->
      let vars =
        List.fold_left (fun s x -> ISet.union s x.vars) ISet.empty children
      in
      let minterm = List.for_all (fun x -> x.minterm) children in
      intern store
        (KAnd (List.map (fun x -> x.id) children))
        (And children) ~vars ~minterm)

(* OR: flatten nested disjunctions, drop False, annihilate on True,
   sort + dedup, and drop minterms subsumed by a smaller minterm (for
   pure conjunctions of variables, [vars y ⊆ vars x] implies [x ⇒ y] by
   monotonicity, so [x] is redundant under the OR). *)
let or_ store xs =
  let rec gather acc = function
    | [] -> Some acc
    | x :: rest -> (
      match x.node with
      | False -> gather acc rest
      | True -> None
      | Or ys -> (
        match gather acc ys with None -> None | Some acc -> gather acc rest)
      | Var _ | And _ -> gather (x :: acc) rest)
  in
  match gather [] xs with
  | None -> tru store
  | Some children -> (
    let children = List.sort_uniq by_id children in
    let minterms, others = List.partition (fun x -> x.minterm) children in
    let minterms =
      List.filter
        (fun x ->
          not
            (List.exists
               (fun y -> y.id <> x.id && ISet.subset y.vars x.vars)
               minterms))
        minterms
    in
    let children = List.sort by_id (minterms @ others) in
    match children with
    | [] -> fls store
    | [ x ] -> x
    | _ ->
      let vars =
        List.fold_left (fun s x -> ISet.union s x.vars) ISet.empty children
      in
      intern store
        (KOr (List.map (fun x -> x.id) children))
        (Or children) ~vars ~minterm:false)

(* Conditioning φ|v=b, memoized per (formula, variable, polarity): the
   Shannon expansion of the compiler revisits the same cofactors along
   many branches of the same store. *)
let rec cond store f v b =
  if not (ISet.mem v f.vars) then f
  else begin
    let key = (f.id, v, b) in
    match Hashtbl.find_opt store.cond_memo key with
    | Some g -> g
    | None ->
      let g =
        match f.node with
        | True | False -> f
        | Var _ -> if b then tru store else fls store
        | And xs -> and_ store (List.map (fun x -> cond store x v b) xs)
        | Or xs -> or_ store (List.map (fun x -> cond store x v b) xs)
      in
      Hashtbl.add store.cond_memo key g;
      g
  end

(* Branch variable: the lowest-ranked one. Ranks are distinct, so the
   pick is deterministic; a tie (an unranked caller) goes to the smaller
   index, as the fold visits variables ascending. *)
let pick_var ~rank f =
  ISet.fold
    (fun v best ->
      match best with
      | Some b when rank.(b) <= rank.(v) -> best
      | _ -> Some v)
    f.vars None

let eval f env =
  let memo = Hashtbl.create 64 in
  let rec go f =
    match Hashtbl.find_opt memo f.id with
    | Some b -> b
    | None ->
      let b =
        match f.node with
        | True -> true
        | False -> false
        | Var v -> env v
        | And xs -> List.for_all go xs
        | Or xs -> List.exists go xs
      in
      Hashtbl.add memo f.id b;
      b
  in
  go f

let rec to_string f =
  match f.node with
  | True -> "true"
  | False -> "false"
  | Var v -> "x" ^ string_of_int v
  | And xs -> "(" ^ String.concat " & " (List.map to_string xs) ^ ")"
  | Or xs -> "(" ^ String.concat " | " (List.map to_string xs) ^ ")"

let store_size store = store.next_id
