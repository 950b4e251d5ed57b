module Value = Aggshap_relational.Value

type term =
  | Var of string
  | Const of Value.t

type atom = { rel : string; terms : term array }

type t = {
  name : string;
  head : string list;
  body : atom list;
}

let atom rel terms = { rel; terms = Array.of_list terms }
let var x = Var x
let cst v = Const v
let cst_int n = Const (Value.Int n)

let atom_vars a =
  Array.fold_left
    (fun acc t -> match t with Var x when not (List.mem x acc) -> x :: acc | _ -> acc)
    [] a.terms
  |> List.rev

let vars q =
  List.fold_left
    (fun acc a ->
      List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) acc (atom_vars a))
    [] q.body
  |> List.rev

let free_vars q = q.head
let exist_vars q = List.filter (fun x -> not (List.mem x q.head)) (vars q)
let is_free q x = List.mem x q.head
let is_boolean q = q.head = []

let relations q = List.map (fun a -> a.rel) q.body

let rec has_dup = function
  | [] -> false
  | x :: rest -> List.mem x rest || has_dup rest

let validate q =
  let rels = relations q in
  if has_dup rels then Error "self-join: a relation name appears in two atoms"
  else if has_dup q.head then Error "duplicate head variable"
  else begin
    let body_vars = vars q in
    match List.find_opt (fun x -> not (List.mem x body_vars)) q.head with
    | Some x -> Error (Printf.sprintf "head variable %s does not occur in the body" x)
    | None -> Ok ()
  end

let make ?(name = "Q") ~head body =
  let q = { name; head; body } in
  match validate q with
  | Ok () -> q
  | Error msg -> invalid_arg ("Cq.make: " ^ msg)

let atoms_of q x =
  q.body
  |> List.filter_map (fun a -> if List.mem x (atom_vars a) then Some a.rel else None)
  |> List.sort String.compare

let find_atom q rel = List.find_opt (fun a -> String.equal a.rel rel) q.body

let make_boolean q = { q with head = [] }

(* Substitution is staged: the engine substitutes the same root
   variable into the same query once per root value (every block of
   every merge step), so the per-query analysis — which head variables
   survive, which term positions hold [x] — runs once, and each value
   costs one array copy per affected atom. *)
let substituter q x =
  let head = List.filter (fun y -> not (String.equal y x)) q.head in
  let prepared =
    List.map
      (fun at ->
        let positions = ref [] in
        Array.iteri
          (fun i t ->
            match t with
            | Var y when String.equal y x -> positions := i :: !positions
            | _ -> ())
          at.terms;
        (at, !positions))
      q.body
  in
  fun a ->
    let body =
      List.map
        (fun (at, positions) ->
          match positions with
          | [] -> at
          | _ ->
            let terms = Array.copy at.terms in
            List.iter (fun i -> terms.(i) <- Const a) positions;
            { at with terms })
        prepared
    in
    { q with head; body }

let substitute q x a = substituter q x a

let restrict_to_relations q rels =
  let body = List.filter (fun a -> List.mem a.rel rels) q.body in
  let remaining_vars =
    List.concat_map atom_vars body
  in
  { q with head = List.filter (fun x -> List.mem x remaining_vars) q.head; body }

let induced_schema q =
  List.fold_left
    (fun s (a : atom) ->
      Aggshap_relational.Schema.declare a.rel (Array.length a.terms) s)
    Aggshap_relational.Schema.empty q.body

(* The canonical [Q(head) <- R(t, ...), S(...)] rendering, built in one
   pass without intermediate lists or format parsing: it backs
   [Cq.equal] and keys the incremental session's per-answer games. *)
let to_string q =
  let buf = Buffer.create 64 in
  Buffer.add_string buf q.name;
  Buffer.add_char buf '(';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf x)
    q.head;
  Buffer.add_string buf ") <- ";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf a.rel;
      Buffer.add_char buf '(';
      Array.iteri
        (fun j t ->
          if j > 0 then Buffer.add_string buf ", ";
          match t with
          | Var x -> Buffer.add_string buf x
          | Const v -> Buffer.add_string buf (Value.to_string v))
        a.terms;
      Buffer.add_char buf ')')
    q.body;
  Buffer.contents buf

let pp fmt q = Format.pp_print_string fmt (to_string q)

let equal a b = to_string a = to_string b
