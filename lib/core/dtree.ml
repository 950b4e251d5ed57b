module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Decompose = Aggshap_cq.Decompose
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact

type t =
  | True
  | False
  | Lit of Fact.t
  | And of t list
  | Or of t list

(* Smart constructors keep the tree small. *)
let mk_and children =
  if List.mem False children then False
  else
    match List.filter (fun c -> c <> True) children with
    | [] -> True
    | [ c ] -> c
    | cs -> And cs

let mk_or children =
  if List.mem True children then True
  else
    match List.filter (fun c -> c <> False) children with
    | [] -> False
    | [ c ] -> c
    | cs -> Or cs

let ground q db =
  match q.Cq.body with
  | [ atom ] ->
    let fact =
      { Fact.rel = atom.Cq.rel;
        args =
          Array.map
            (function
              | Cq.Const v -> v
              | Cq.Var x -> invalid_arg ("Dtree.compile: ground atom with variable " ^ x))
            atom.Cq.terms }
    in
    (match Database.provenance db fact with
     | Some Database.Exogenous -> True
     | Some Database.Endogenous -> Lit fact
     | None -> False)
  | _ -> invalid_arg "Dtree.compile: ground component with several atoms"

(* The Figure-2 template instantiated with d-trees: components conjoin,
   root-variable blocks disjoin, ground atoms are leaves. No padding —
   facts outside the tree's scope are simply absent from it. *)
module Alg = struct
  type table = t
  type ctx = unit

  let memo_prefix () = ""
  let leaf () _ _ = None
  let connected_leaf () q db =
    if Decompose.is_ground q then Some (fun () -> ground q db) else None
  let empty () _ = True
  let root_mode = `Any_root
  let root_error = "Dtree.compile: query is not hierarchical: "
  let merge () ~root:_ blocks = mk_or (List.map (fun (_, _, t) -> t) blocks)
  let combine () _ _ comps = mk_and (List.map (fun (_, _, table) -> table ()) comps)
  let pad () _ t = t
end

module E = Engine.Make (Alg)

let compile q db = E.eval_top () q db

module FactSet = Set.Make (Fact)

let rec fact_set = function
  | True | False -> FactSet.empty
  | Lit f -> FactSet.singleton f
  | And cs | Or cs ->
    List.fold_left (fun acc c -> FactSet.union acc (fact_set c)) FactSet.empty cs

let facts t = FactSet.elements (fact_set t)

let is_read_once t =
  let rec count = function
    | True | False -> 0
    | Lit _ -> 1
    | And cs | Or cs -> List.fold_left (fun acc c -> acc + count c) 0 cs
  in
  count t = FactSet.cardinal (fact_set t)

let rec eval t assignment =
  match t with
  | True -> true
  | False -> false
  | Lit f -> assignment f
  | And cs -> List.for_all (fun c -> eval c assignment) cs
  | Or cs -> List.exists (fun c -> eval c assignment) cs

let rec size = function
  | True | False | Lit _ -> 1
  | And cs | Or cs -> List.fold_left (fun acc c -> acc + size c) 1 cs

(* (scope size, satisfying counts) for each node; read-once-ness makes
   scopes disjoint, so conjunction convolves the true-tables and
   disjunction convolves the false-tables. *)
let rec counts_node = function
  | True -> (0, [| B.one |])
  | False -> (0, [| B.zero |])
  | Lit _ -> (1, [| B.zero; B.one |])
  | And cs ->
    let parts = List.map counts_node cs in
    let n = List.fold_left (fun acc (n_c, _) -> acc + n_c) 0 parts in
    (n, Tables.convolve_many (List.map snd parts))
  | Or cs ->
    let parts = List.map counts_node cs in
    let n = List.fold_left (fun acc (n_c, _) -> acc + n_c) 0 parts in
    let false_counts =
      Tables.convolve_many
        (List.map (fun (n_c, t_c) -> Tables.complement n_c t_c) parts)
    in
    (n, Tables.complement n false_counts)

let satisfying_counts t db =
  let n_scope, counts = counts_node t in
  let scope = fact_set t in
  let padding =
    Database.fold
      (fun f p acc ->
        if p = Database.Endogenous && not (FactSet.mem f scope) then acc + 1 else acc)
      db 0
  in
  ignore n_scope;
  Tables.pad padding counts

let shapley t db f =
  (match Database.provenance db f with
   | Some Database.Endogenous -> ()
   | _ -> invalid_arg "Dtree.shapley: fact must be endogenous");
  let n = Database.endo_size db in
  (* Making f exogenous turns its literal constant-true; removing it
     turns the literal constant-false. *)
  let rec replace value = function
    | Lit g when Fact.equal g f -> value
    | And cs -> And (List.map (replace value) cs)
    | Or cs -> Or (List.map (replace value) cs)
    | node -> node
  in
  let with_f = satisfying_counts (replace True t) (Database.set_provenance Database.Exogenous f db) in
  let without_f = satisfying_counts (replace False t) (Database.remove f db) in
  Aggshap_arith.Score.(finish Shapley) ~den:B.one ~n (fun k ->
      B.sub with_f.(k) without_f.(k))

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "⊤"
  | False -> Format.pp_print_string fmt "⊥"
  | Lit f -> Fact.pp fmt f
  | And cs ->
    Format.fprintf fmt "(@[<hov>%a@])"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ⊗@ ") pp)
      cs
  | Or cs ->
    Format.fprintf fmt "(@[<hov>%a@])"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ⊕@ ") pp)
      cs
