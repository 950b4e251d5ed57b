module Q = Aggshap_arith.Rational
module Value = Aggshap_relational.Value
module Parser = Aggshap_cq.Parser

type t = {
  rel : string;
  apply : Value.t array -> Q.t;
  descr : string;
}

let apply t args = t.apply args

let numeric v =
  match Value.as_int v with
  | Some n -> Q.of_int n
  | None -> invalid_arg ("Value_fn: non-numeric constant " ^ Value.to_string v)

let nth args pos =
  if pos < 0 || pos >= Array.length args then
    invalid_arg "Value_fn: position out of range"
  else numeric args.(pos)

let id ~rel ~pos =
  { rel; apply = (fun args -> nth args pos); descr = Printf.sprintf "id[%d]" pos }

let gt ~rel ~pos b =
  { rel;
    apply = (fun args -> if Q.compare (nth args pos) b > 0 then Q.one else Q.zero);
    descr = Printf.sprintf ">%s[%d]" (Q.to_string b) pos }

let relu ~rel ~pos =
  { rel;
    apply =
      (fun args ->
        let v = nth args pos in
        if Q.sign v > 0 then v else Q.zero);
    descr = Printf.sprintf "relu[%d]" pos }

let const ~rel c =
  { rel; apply = (fun _ -> c); descr = Printf.sprintf "const %s" (Q.to_string c) }

let custom ~rel ~descr apply = { rel; apply; descr }

(* The one τ-spec grammar, shared by shapctl --tau, the session
   server's open/set_tau and update scripts' set_tau lines. *)
let parse_pos spec s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok n
  | Some _ | None ->
    Error
      (Printf.sprintf
         "malformed position %s in value function spec %s (expected a non-negative integer)"
         (Parser.quote s) (Parser.quote spec))

let parse_rational what spec s =
  match Q.of_string s with
  | q -> Ok q
  | exception (Invalid_argument _ | Division_by_zero) ->
    Error
      (Printf.sprintf "malformed %s %s in %s (expected an integer or P/Q rational)" what
         (Parser.quote s) (Parser.quote spec))

let of_spec spec =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' spec with
  | [ "id"; rel; pos ] ->
    let* pos = parse_pos spec pos in
    Ok (id ~rel ~pos)
  | [ "relu"; rel; pos ] ->
    let* pos = parse_pos spec pos in
    Ok (relu ~rel ~pos)
  | [ "gt"; rel; pos; bound ] ->
    let* pos = parse_pos spec pos in
    let* bound = parse_rational "bound" spec bound in
    Ok (gt ~rel ~pos bound)
  | [ "const"; rel; value ] ->
    let* value = parse_rational "value" spec value in
    Ok (const ~rel value)
  | _ -> Error (Printf.sprintf "cannot parse value function spec %s" (Parser.quote spec))

let pp fmt t = Format.fprintf fmt "%s@%s" t.descr t.rel
