type t = { rel : string; args : Value.t array }

let make rel args = { rel; args = Array.of_list args }
let of_ints rel ns = make rel (List.map Value.int ns)

let arity f = Array.length f.args

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else Value.compare_tuple a.args b.args

let equal a b = compare a b = 0

let hash f =
  Array.fold_left (fun acc v -> (acc * 31 + Value.hash v) land max_int)
    (Hashtbl.hash f.rel) f.args

let to_string f =
  Printf.sprintf "%s(%s)" f.rel
    (String.concat ", " (Array.to_list (Array.map Value.to_string f.args)))

let pp fmt f = Format.pp_print_string fmt (to_string f)
