module Value = Aggshap_relational.Value
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database

type token =
  | Ident of string
  | Int_lit of int
  | Str_lit of string
  | Lparen
  | Rparen
  | Comma
  | Arrow
  | Period
  | At_word of string

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let quote_limit = 64

let quote s =
  let n = String.length s in
  if n <= quote_limit then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 quote_limit) n

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '\''

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  let push t = tokens := t :: !tokens in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then incr i
    else if c = '#' then i := n
    else if c = '(' then (push Lparen; incr i)
    else if c = ')' then (push Rparen; incr i)
    else if c = ',' then (push Comma; incr i)
    else if c = '.' then (push Period; incr i)
    else if c = '@' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident_char s.[!i] do incr i done;
      if !i = start then fail "expected word after '@'";
      push (At_word (String.sub s start (!i - start)))
    end
    else if c = '<' && !i + 1 < n && s.[!i + 1] = '-' then (push Arrow; i := !i + 2)
    else if c = ':' && !i + 1 < n && s.[!i + 1] = '-' then (push Arrow; i := !i + 2)
    else if c = '\'' || c = '"' then begin
      let quote = c in
      incr i;
      let start = !i in
      while !i < n && s.[!i] <> quote do incr i done;
      if !i >= n then fail "unterminated string literal";
      push (Str_lit (String.sub s start (!i - start)));
      incr i
    end
    else if c = '-' || (c >= '0' && c <= '9') then begin
      let start = !i in
      incr i;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
      let text = String.sub s start (!i - start) in
      match int_of_string_opt text with
      | Some v -> push (Int_lit v)
      | None -> fail "malformed number %s" (quote text)
    end
    else if is_ident_char c && c <> '\'' then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do incr i done;
      push (Ident (String.sub s start (!i - start)))
    end
    else fail "unexpected character %C" c
  done;
  List.rev !tokens

(* Parser state: a mutable token list plus a counter for fresh [_] vars. *)
type state = { mutable toks : token list; mutable fresh : int }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let next st =
  match st.toks with
  | [] -> fail "unexpected end of input"
  | t :: rest ->
    st.toks <- rest;
    t

let expect st tok what =
  let t = next st in
  if t <> tok then fail "expected %s" what

let parse_term st =
  match next st with
  | Int_lit v -> Cq.Const (Value.Int v)
  | Str_lit v -> Cq.Const (Value.Str v)
  | Ident "_" ->
    st.fresh <- st.fresh + 1;
    Cq.Var (Printf.sprintf "_anon%d" st.fresh)
  | Ident x -> Cq.Var x
  | _ -> fail "expected a term"

let parse_term_list st =
  expect st Lparen "'('";
  match peek st with
  | Some Rparen ->
    ignore (next st);
    []
  | _ ->
    let rec go acc =
      let t = parse_term st in
      match next st with
      | Comma -> go (t :: acc)
      | Rparen -> List.rev (t :: acc)
      | _ -> fail "expected ',' or ')'"
    in
    go []

let parse_atom st =
  match next st with
  | Ident rel -> { Cq.rel; terms = Array.of_list (parse_term_list st) }
  | _ -> fail "expected a relation name"

let parse_query_tokens st =
  let name, head_terms =
    match next st with
    | Ident name -> (name, parse_term_list st)
    | _ -> fail "expected a head predicate"
  in
  let head =
    List.map
      (function
        | Cq.Var x -> x
        | Cq.Const _ -> fail "constants are not allowed in the head")
      head_terms
  in
  expect st Arrow "'<-'";
  let rec atoms acc =
    let a = parse_atom st in
    match peek st with
    | Some Comma ->
      ignore (next st);
      atoms (a :: acc)
    | Some Period ->
      ignore (next st);
      List.rev (a :: acc)
    | None -> List.rev (a :: acc)
    | Some _ -> fail "expected ',' or end of query"
  in
  let body = atoms [] in
  if st.toks <> [] then fail "trailing tokens after query";
  (name, head, body)

let parse_query s =
  match tokenize s with
  | exception Parse_error msg -> Error msg
  | toks -> begin
    let st = { toks; fresh = 0 } in
    match parse_query_tokens st with
    | name, head, body -> begin
      let q = { Cq.name; head; body } in
      match Cq.validate q with
      | Ok () -> Ok q
      | Error msg -> Error msg
    end
    | exception Parse_error msg -> Error msg
  end

let parse_query_exn s =
  match parse_query s with
  | Ok q -> q
  | Error msg -> invalid_arg ("Parser.parse_query: " ^ msg ^ " in " ^ s)

let parse_fact s =
  match tokenize s with
  | exception Parse_error msg -> Error msg
  | [] -> Error "empty fact"
  | toks -> begin
    let st = { toks; fresh = 0 } in
    match
      let a = parse_atom st in
      let args =
        Array.map
          (function
            | Cq.Const v -> v
            | Cq.Var x -> fail "variable %s not allowed in a fact" x)
          a.terms
      in
      let provenance =
        match st.toks with
        | [] -> Database.Endogenous
        | [ At_word "endo" ] -> Database.Endogenous
        | [ At_word "exo" ] -> Database.Exogenous
        | [ At_word w ] -> fail "unknown annotation @%s" w
        | _ -> fail "trailing tokens after fact"
      in
      ({ Fact.rel = a.rel; args }, provenance)
    with
    | result -> Ok result
    | exception Parse_error msg -> Error msg
  end

let parse_database s =
  let lines = String.split_on_char '\n' s in
  let rec go db lineno = function
    | [] -> Ok db
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go db (lineno + 1) rest
      else begin
        match parse_fact trimmed with
        | Ok (f, p) -> go (Database.add ~provenance:p f db) (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      end
  in
  go Database.empty 1 lines
