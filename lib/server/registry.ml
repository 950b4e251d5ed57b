(* The server's session table: many named sessions (one per
   tenant/database), at most [max_live] of them resident in memory.

   A session's resident state is the live [Incr.Session.t] — DP tables,
   membership-game caches, the lot. Its durable state is tiny: the
   [Api.session_spec] strings (query, database text, aggregate, τ spec,
   jobs), refreshed from the live session at eviction time. Restoring
   replays [Api.open_session] on the spec, which recompiles the caches;
   values are bit-identical because the solver is deterministic.

   LRU: every access stamps the entry with a logical clock; when the
   resident count exceeds [max_live], the least-recently-used resident
   entry (other than the one being accessed) is evicted. With a
   [state_dir], eviction and shutdown also write the spec to disk as a
   SHAPSESS_v1 JSON snapshot, so sessions survive server restarts. *)

module Json = Aggshap_json.Json
module Api = Aggshap_api.Api
module Session = Aggshap_incr.Session
module Database = Aggshap_relational.Database
module Parser = Aggshap_cq.Parser

let ( let* ) = Result.bind

type entry = {
  name : string;
  mutable spec : Api.session_spec;  (* db/tau refreshed at eviction *)
  mutable session : Session.t option;  (* None = evicted *)
  mutable last_used : int;
}

type t = {
  state_dir : string option;
  max_live : int;
  tbl : (string, entry) Hashtbl.t;
  log : string -> unit;
  mutable clock : int;
  mutable evictions : int;
  mutable restores : int;
}

let snapshot_schema = "SHAPSESS_v1"

(* ------------------------------------------------------------------ *)
(* Snapshot files                                                      *)
(* ------------------------------------------------------------------ *)

let snapshot_suffix = ".session.json"

(* Session names are tenant-controlled; percent-encode anything that is
   not filename-safe so names map 1:1 onto snapshot files. *)
let encode_name name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c)))
    name;
  Buffer.contents buf

let snapshot_path dir name = Filename.concat dir (encode_name name ^ snapshot_suffix)

let snapshot_json (e : entry) =
  Json.Obj
    [ ("schema", Json.String snapshot_schema);
      ("name", Json.String e.name);
      ("query", Json.String e.spec.Api.query);
      ("agg", Json.String e.spec.Api.agg);
      ( "tau",
        match e.spec.Api.tau with Some s -> Json.String s | None -> Json.Null );
      ("jobs", match e.spec.Api.jobs with Some j -> Json.Int j | None -> Json.Null);
      ("db", Json.String e.spec.Api.db) ]

let parse_snapshot contents =
  let what = "snapshot" in
  let* j = Json.parse contents in
  let* schema = Json.string_field ~what "schema" j in
  let* () =
    if String.equal schema snapshot_schema then Ok ()
    else Error (Printf.sprintf "schema is %S, expected %S" schema snapshot_schema)
  in
  let* name = Json.string_field ~what "name" j in
  let* query = Json.string_field ~what "query" j in
  let* agg = Json.string_field ~what "agg" j in
  let* tau = Json.opt_string_field ~what "tau" j in
  let* jobs = Json.opt_int_field ~what "jobs" j in
  let* db = Json.string_field ~what "db" j in
  Ok (name, { Api.query; db; agg; tau; jobs })

let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Pull the durable state out of a live session: the current database
   rendered back to text. τ and jobs are already tracked in the spec
   (set_tau updates it); query and aggregate never change. *)
let refresh_spec (e : entry) =
  match e.session with
  | None -> ()
  | Some s ->
    e.spec <- { e.spec with Api.db = Api.render_database (Session.database s) }

let write_snapshot t (e : entry) =
  match t.state_dir with
  | None -> ()
  | Some dir -> (
    try write_file (snapshot_path dir e.name) (Json.to_string (snapshot_json e))
    with Sys_error msg ->
      t.log (Printf.sprintf "snapshot of %s failed: %s" (Parser.quote e.name) msg))

let remove_snapshot t name =
  match t.state_dir with
  | None -> ()
  | Some dir ->
    let path = snapshot_path dir name in
    if Sys.file_exists path then try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Creation / restart restore                                          *)
(* ------------------------------------------------------------------ *)

let create ?state_dir ?(log = fun _ -> ()) ~max_live () =
  if max_live < 1 then Error "max-sessions must be at least 1"
  else
    let* () =
      match state_dir with
      | None -> Ok ()
      | Some dir -> (
        match (try Ok (Sys.is_directory dir) with Sys_error _ -> Error false) with
        | Ok true -> Ok ()
        | Ok false -> Error (dir ^ " exists and is not a directory")
        | Error _ -> (
          try
            Unix.mkdir dir 0o755;
            Ok ()
          with Unix.Unix_error (err, _, _) ->
            Error
              (Printf.sprintf "cannot create state dir %s: %s" dir
                 (Unix.error_message err))))
    in
    let t =
      { state_dir; max_live; tbl = Hashtbl.create 16; log; clock = 0;
        evictions = 0; restores = 0 }
    in
    (* Register every snapshot on disk as an evicted session; it is
       restored (and validated) lazily, on first touch. *)
    (match state_dir with
     | None -> ()
     | Some dir ->
       Array.iter
         (fun file ->
           if Filename.check_suffix file snapshot_suffix then
             let path = Filename.concat dir file in
             match parse_snapshot (read_file path) with
             | Ok (name, spec) ->
               Hashtbl.replace t.tbl name
                 { name; spec; session = None; last_used = 0 }
             | Error msg -> t.log (Printf.sprintf "ignoring %s: %s" path msg)
             | exception Sys_error msg -> t.log (Printf.sprintf "ignoring %s: %s" path msg))
         (try Sys.readdir dir with Sys_error _ -> [||]));
    Ok t

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let touch t (e : entry) =
  t.clock <- t.clock + 1;
  e.last_used <- t.clock

let live_entries t =
  Hashtbl.fold (fun _ e acc -> if e.session <> None then e :: acc else acc) t.tbl []

let evict t (e : entry) =
  refresh_spec e;
  write_snapshot t e;
  e.session <- None;
  t.evictions <- t.evictions + 1;
  t.log (Printf.sprintf "evicted session %s" (Parser.quote e.name))

(* Evict least-recently-used residents until at most [max_live] remain;
   [keep] (the entry being accessed) is never evicted. *)
let enforce_limit t ~(keep : entry) =
  let rec go () =
    let live = live_entries t in
    if List.length live > t.max_live then begin
      match
        List.sort (fun a b -> compare a.last_used b.last_used) live
        |> List.find_opt (fun e -> e.name <> keep.name)
      with
      | Some victim ->
        evict t victim;
        go ()
      | None -> ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let open_session t name spec =
  let* session = Api.open_session spec in
  let e =
    match Hashtbl.find_opt t.tbl name with
    | Some e ->
      e.spec <- spec;
      e.session <- Some session;
      e
    | None ->
      let e = { name; spec; session = Some session; last_used = 0 } in
      Hashtbl.replace t.tbl name e;
      e
  in
  touch t e;
  write_snapshot t e;
  enforce_limit t ~keep:e;
  Ok (Database.size (Session.database session))

let with_session t name f =
  match Hashtbl.find_opt t.tbl name with
  | None -> Error (Printf.sprintf "no such session %s (open it first)" (Parser.quote name))
  | Some e ->
    let* session =
      match e.session with
      | Some s -> Ok s
      | None -> (
        match Api.open_session e.spec with
        | Ok s ->
          e.session <- Some s;
          t.restores <- t.restores + 1;
          t.log (Printf.sprintf "restored session %s" (Parser.quote e.name));
          Ok s
        | Error msg ->
          Error (Printf.sprintf "cannot restore session %s: %s" (Parser.quote name) msg))
    in
    touch t e;
    enforce_limit t ~keep:e;
    f e session

let close t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> Error (Printf.sprintf "no such session %s (open it first)" (Parser.quote name))
  | Some _ ->
    Hashtbl.remove t.tbl name;
    remove_snapshot t name;
    Ok ()

let snapshot_all t =
  Hashtbl.iter
    (fun _ e ->
      if e.session <> None then begin
        refresh_spec e;
        write_snapshot t e
      end)
    t.tbl

let sessions t =
  Hashtbl.fold (fun name e acc -> (name, e.session <> None) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let evictions t = t.evictions
let restores t = t.restores
