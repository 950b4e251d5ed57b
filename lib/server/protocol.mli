(** SHAPWIRE_v1: the server's newline-delimited JSON wire protocol.

    One request per line, one response line per request, in order.
    Shapley values travel as exact rational strings, never floats —
    server answers are bit-identical to the CLI's. The encoders emit
    compact single-line JSON (safe for the stream: newlines inside
    payloads are escaped); the decoders accept any single-line JSON
    spelling of the same object. *)

module Api = Aggshap_api.Api

type request =
  | Open of { session : string; spec : Api.session_spec }
      (** Create (or replace) a named session — one per tenant/database. *)
  | Solve of { session : string }
  | Update of { session : string; script : string }
      (** Apply a whole update script (insert/delete/set_tau lines). *)
  | Set_tau of { session : string; tau : string }
  | Explain of { session : string }
  | Stats of { session : string option }
      (** With a session: its reuse statistics. Without: server-wide
          session table, request count, eviction/restore counts. *)
  | Solve_query of {
      query : string;
      db : string;  (** database text, {!Aggshap_cq.Parser.parse_database} syntax *)
      agg : string;
      tau : string option;
      fallback : string option;  (** {!Api.parse_fallback} spelling; default naive.
          Monte-Carlo is rejected: the wire carries exact rationals only. *)
      kc_node_budget : int option;
          (** d-DNNF node budget; an aborted compilation falls down the
              planner's degradation ladder. *)
    }
      (** Stateless one-shot solve — no session, nothing retained. The
          way to reach the exact fallback tiers (naive,
          knowledge-compilation) over the wire, since sessions only
          exist within the tractability frontier. *)
  | Close of { session : string }  (** Drop the session and its snapshot. *)
  | Ping
  | Shutdown  (** Snapshot every live session, reply, and exit. *)

type session_stats = {
  steps : int;
  games_computed : int;
  games_reused : int;
  facts : int;
  endogenous : int;
}

type response =
  | Opened of { session : string; facts : int }
  | Solved of { session : string; values : (string * string) list }
      (** Fact and exact Shapley value, both as strings, in
          [Database.endogenous] order. *)
  | Updated of { session : string; applied : int }
  | Tau_set of { session : string }
  | Explained of {
      session : string;
      cls : string;
      frontier : string;
      within_frontier : bool;
      algorithm : string;
      plan : string list;
          (** rendered solve-planner candidates, one line each, the
              chosen route marked with "*" *)
    }
  | Session_stats of { session : string; stats : session_stats }
  | Server_stats of {
      sessions : (string * bool) list;  (** name, live (not evicted to disk) *)
      requests : int;
      evictions : int;
      restores : int;
    }
  | Query_solved of {
      algorithm : string;  (** the report's algorithm string, as [explain] *)
      values : (string * string) list;
    }
      (** Answer to {!Solve_query}: fact and exact Shapley value, both
          as strings, in [Database.endogenous] order — bit-identical to
          [shapctl solve] on the same inputs. *)
  | Closed of { session : string }
  | Pong
  | Shutting_down
  | Error of { line : int option; message : string }
      (** [line] is the 1-based request line number on the connection. *)

val encode_request : request -> string
(** One line, no newline characters, not newline-terminated. *)

val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result
