type t =
  | Int of int
  | Str of string

let int n = Int n
let str s = Str s

let as_int = function
  | Int n -> Some n
  | Str _ -> None

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Int _, Str _ | Str _, Int _ -> false

let compare a b =
  match a, b with
  | Int x, Int y -> Stdlib.compare x y
  | Str x, Str y -> String.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1

(* A top-level loop, not a local one closing over the arrays: without
   flambda that closure would be allocated on every call, and this
   compare orders every fact map and tuple set. *)
let rec compare_from a b i =
  if i >= Array.length a then 0
  else
    let c = compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare_tuple a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0

let hash = function
  | Int n -> n land max_int
  | Str s -> Hashtbl.hash s

let to_string = function
  | Int n -> string_of_int n
  | Str s -> s

let pp fmt v = Format.pp_print_string fmt (to_string v)

let of_string s =
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> Str s
