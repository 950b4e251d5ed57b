module Parser = Aggshap_cq.Parser
module Value_fn = Aggshap_agg.Value_fn

let split_op line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match String.trim line with
  | "" -> Ok None
  | line -> (
    let op, arg = split_op line in
    match op with
    | "insert" when arg <> "" -> (
      match Parser.parse_fact arg with
      | Ok (f, prov) -> Ok (Some (Update.Insert (f, prov)))
      | Error msg -> Error msg)
    | "delete" when arg <> "" -> (
      match Parser.parse_fact arg with
      | Ok (f, Aggshap_relational.Database.Endogenous) -> Ok (Some (Update.Delete f))
      | Ok (_, Aggshap_relational.Database.Exogenous) ->
        Error "delete takes a bare fact (no @exo/@endo marker)"
      | Error msg -> Error msg)
    | "set_tau" when arg <> "" -> (
      (* Localization of the relation on the query is checked when the
         session applies the op, not here. *)
      match Value_fn.of_spec arg with
      | Ok vf -> Ok (Some (Update.Set_tau (vf, arg)))
      | Error msg -> Error msg)
    | "insert" | "delete" | "set_tau" ->
      Error (Printf.sprintf "%s needs an argument" op)
    | _ ->
      Error
        (Printf.sprintf "unknown update %s (expected insert, delete, or set_tau)"
           (Parser.quote op)))

(* Incremental line reader. Scripts and wire streams arrive in chunks
   (a file read, a socket [recv]); the reader buffers partial lines
   across chunks, strips [\r\n] endings, and — crucially — surfaces the
   final line even when the stream ends without a trailing newline.
   Dropping that line silently is exactly the bug class a line-oriented
   protocol must not have: the request (or update) is acknowledged by
   exit code 0 but never applied. Both [parse] below and the server's
   request loop read through this one reader. *)
module Reader = struct
  type t = { buf : Buffer.t; mutable closed : bool }

  let create () = { buf = Buffer.create 256; closed = false }

  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  let feed t ?(off = 0) ?len chunk =
    if t.closed then invalid_arg "Script.Reader.feed: reader is closed";
    let len = match len with Some l -> l | None -> String.length chunk - off in
    if off < 0 || len < 0 || off + len > String.length chunk then
      invalid_arg "Script.Reader.feed: offset/length out of bounds";
    let lines = ref [] in
    for i = off to off + len - 1 do
      match chunk.[i] with
      | '\n' ->
        lines := strip_cr (Buffer.contents t.buf) :: !lines;
        Buffer.clear t.buf
      | c -> Buffer.add_char t.buf c
    done;
    List.rev !lines

  let close t =
    if t.closed then None
    else begin
      t.closed <- true;
      if Buffer.length t.buf = 0 then None
      else begin
        let line = strip_cr (Buffer.contents t.buf) in
        Buffer.clear t.buf;
        Some line
      end
    end

  let pending t = Buffer.length t.buf > 0
end

let lines contents =
  let r = Reader.create () in
  let complete = Reader.feed r contents in
  match Reader.close r with None -> complete | Some last -> complete @ [ last ]

let parse contents =
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some u) -> go (lineno + 1) ((lineno, u) :: acc) rest
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] (lines contents)

let to_string ops =
  String.concat "" (List.map (fun u -> Update.to_string u ^ "\n") ops)
