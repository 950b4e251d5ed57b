(** The [shapctl serve] event loop: a single-process, [select]-based
    multiplexer serving the {!Protocol} over a Unix-domain socket.

    Requests on one connection execute in arrival order, one response
    line per request line, and every solve runs in the serving domain
    (the wire carries exact solves only, and no exact route splits
    across domains), so answers stay bit-identical to the CLI's. Each connection reads
    through {!Aggshap_incr.Script.Reader}, so a request on a final
    unterminated line is processed, not dropped, and malformed requests
    get error replies carrying the 1-based connection line number.

    Sessions are snapshotted at open, at LRU eviction, and at clean
    shutdown (the [shutdown] op, SIGINT, or SIGTERM); with a
    [state_dir] they survive restarts (see {!Registry}). *)

type config = {
  socket : string;  (** path of the Unix-domain socket (replaced if stale) *)
  max_sessions : int;  (** LRU capacity: resident sessions, at least 1 *)
  state_dir : string option;  (** snapshot directory; [None] = in-memory only *)
  default_jobs : int option;
      (** accepted for compatibility and ignored: no wire solve splits
          across domains *)
  log : string -> unit;  (** one line per lifecycle event *)
}

val run : config -> (unit, string) result
(** Binds, listens, and serves until shutdown; removes the socket file
    on exit. Errors are pre-loop failures (bad state dir, bind). *)

(**/**)

(* Exposed for the test suite: the loop installs SIGINT/SIGTERM
   handlers, so its blocking syscalls must survive [EINTR]. *)

val retry_intr : (unit -> 'a) -> 'a
(** Re-runs [f] until it completes without raising
    [Unix.Unix_error (EINTR, _, _)]. *)

val read_retry : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read], retried across [EINTR]. *)

(**/**)
