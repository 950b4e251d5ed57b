(** Update scripts: the textual format behind [shapctl session].

    One operation per line, [#] comments and blank lines ignored:
    {v
    insert R(4, 10)
    insert S(30) @exo
    delete R(1, 10)
    set_tau id:R:0
    v}
    Facts use the database-file syntax of {!Aggshap_cq.Parser}; [set_tau]
    takes a [shapctl --tau]-style spec ([id:REL:POS], [relu:REL:POS],
    [gt:REL:POS:BOUND], [const:REL:VALUE]). *)

(** Incremental, chunk-fed line splitting shared by {!parse} and the
    server's socket request loop. [\r\n] endings are stripped, and a
    final line without a trailing newline is {e not} dropped: it is
    returned by {!Reader.close} when the stream ends. *)
module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> ?off:int -> ?len:int -> string -> string list
  (** Appends [chunk.[off .. off+len-1]] (default: all of [chunk]) to
      the buffered partial line and returns the newly completed lines,
      in order, without their line terminators.
      @raise Invalid_argument after {!close}, or on a bad substring. *)

  val close : t -> string option
  (** Ends the stream: the final unterminated line if the last chunk
      did not end in a newline, [None] otherwise (idempotent). *)

  val pending : t -> bool
  (** Is a partial line currently buffered? *)
end

val lines : string -> string list
(** All lines of [contents] through a {!Reader}: [\r\n]-aware, final
    unterminated line included. *)

val parse : string -> ((int * Update.t) list, string) result
(** Parses a whole script, pairing each operation with its 1-based line
    number. Errors read ["line %d: %s"]. A final operation on an
    unterminated last line is parsed like any other (see {!Reader}). *)

val parse_line : string -> (Update.t option, string) result
(** [Ok None] for blank/comment lines. *)

val to_string : Update.t list -> string
(** One line per op; [parse] inverts it. *)
