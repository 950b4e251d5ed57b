(** Minimal JSON values, shared by the BENCH_v1 bench reports, the
    server's newline-delimited wire protocol, and the session snapshot
    files. Hand-rolled: the environment has no JSON package. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty multi-line emission (2-space indent), newline-terminated —
    the format of the bench reports and snapshot files on disk. *)

val to_line : t -> string
(** Compact single-line emission with {e no} newline characters
    anywhere (strings escape them), suitable as one line of a
    newline-delimited JSON stream. Not newline-terminated. *)

val escape_string : string -> string
(** The quoted, escaped JSON string literal for [s]. *)

val parse : string -> (t, string) result
(** Parses one JSON value; the whole input must be consumed. Integral
    numbers parse as [Int], everything else as [Float]. [\u] escapes
    below 128 decode to the ASCII character, others to ['?']. An error
    quotes at most 64 bytes of a malformed literal, then its length. *)

(** {1 Accessors}

    Field lookup on [Obj] values with uniform error messages; [what]
    names the context (e.g. the request op) in diagnostics. Optional
    variants treat an absent field and an explicit [null] alike. *)

val member : string -> t -> t option
val string_field : what:string -> string -> t -> (string, string) result
val opt_string_field : what:string -> string -> t -> (string option, string) result
val int_field : what:string -> string -> t -> (int, string) result
val opt_int_field : what:string -> string -> t -> (int option, string) result
val bool_field : what:string -> string -> t -> (bool, string) result
val list_field : what:string -> string -> t -> (t list, string) result
