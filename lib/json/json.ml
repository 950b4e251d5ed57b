(* Minimal JSON support shared by the bench baseline, the server wire
   protocol, and the session snapshot format.

   The environment has no JSON package, so this is a small hand-rolled
   value type with two emitters (pretty, for files humans read; compact
   single-line, for the newline-delimited wire protocol) and a
   recursive-descent parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_literal f =
  (* NaN and infinities are not valid JSON literals. *)
  if Float.is_nan f || not (Float.is_finite f) then "0.0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let rec emit buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> Buffer.add_string buf (escape_string s)
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        emit buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf ": ";
        emit buf (indent + 2) item)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Compact single-line emission: no newlines anywhere (strings escape
   them), so the output is a valid line of a newline-delimited JSON
   stream. *)
let rec emit_compact buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> Buffer.add_string buf (escape_string s)
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ", ";
        emit_compact buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf ": ";
        emit_compact buf item)
      fields;
    Buffer.add_char buf '}'

let to_line v =
  let buf = Buffer.create 256 in
  emit_compact buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

(* At most 64 bytes of a literal, then its length, as [Parser.quote]
   quotes request text: an error must not grow with the request. Json
   links no other library, so these few lines live here. *)
let quote_limit = 64

let quote s =
  let n = String.length s in
  if n <= quote_limit then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 quote_limit) n

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let parse_literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> Buffer.add_char buf '?' (* non-ASCII: placeholder *)
            | None -> fail "malformed \\u escape");
           pos := !pos + 4
         | _ -> fail "malformed escape");
        go ()
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail ("malformed number " ^ quote lit))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> parse_literal "null" Null
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors (for decoding protocol requests and snapshots)            *)
(* ------------------------------------------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let string_field ~what name v =
  match member name v with
  | Some (String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%s: field %S is not a string" what name)
  | None -> Error (Printf.sprintf "%s: missing field %S" what name)

let opt_string_field ~what name v =
  match member name v with
  | Some (String s) -> Ok (Some s)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "%s: field %S is not a string" what name)

let int_field ~what name v =
  match member name v with
  | Some (Int n) -> Ok n
  | Some _ -> Error (Printf.sprintf "%s: field %S is not an integer" what name)
  | None -> Error (Printf.sprintf "%s: missing field %S" what name)

let opt_int_field ~what name v =
  match member name v with
  | Some (Int n) -> Ok (Some n)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "%s: field %S is not an integer" what name)

let bool_field ~what name v =
  match member name v with
  | Some (Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "%s: field %S is not a boolean" what name)
  | None -> Error (Printf.sprintf "%s: missing field %S" what name)

let list_field ~what name v =
  match member name v with
  | Some (List items) -> Ok items
  | Some _ -> Error (Printf.sprintf "%s: field %S is not an array" what name)
  | None -> Error (Printf.sprintf "%s: missing field %S" what name)
