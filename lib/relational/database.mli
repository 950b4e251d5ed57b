(** Databases with endogenous/exogenous provenance.

    Following the paper (Section 2), a database is a finite set of facts,
    each tagged endogenous (a player in the Shapley game) or exogenous
    (taken for granted). The structure is persistent; all updates return
    new databases.

    Facts are stored in per-relation segments, so {!relation},
    {!relations}, {!restrict_relations}, {!size} and {!endo_size} cost
    O(matches) (or O(1)), not O(|db|). On top of the segments the
    database memoizes {e secondary indexes} on (relation, position):
    built lazily on first probe, maintained incrementally by
    {!add}/{!remove}/{!set_provenance}, and never shared between a
    database and its derivatives' future builds. The join planner
    ({!Aggshap_cq.Plan}) and the decomposition engine probe them through
    {!probe} and {!indexed}. *)

type provenance =
  | Endogenous
  | Exogenous

type t

val empty : t
val is_empty : t -> bool

val add : ?provenance:provenance -> Fact.t -> t -> t
(** Default provenance is [Endogenous]. Re-adding an existing fact
    overwrites its provenance. *)

val of_list : (Fact.t * provenance) list -> t

val of_facts : ?provenance:provenance -> Fact.t list -> t
(** All facts get the same provenance (default [Endogenous]). *)

val remove : Fact.t -> t -> t

val set_provenance : provenance -> Fact.t -> t -> t
(** @raise Not_found if the fact is absent. *)

val mem : Fact.t -> t -> bool

val provenance : t -> Fact.t -> provenance option

val union : t -> t -> t
(** Right-biased on provenance for facts present in both. *)

val filter : (Fact.t -> provenance -> bool) -> t -> t

(** {1 Views} *)

val facts : t -> Fact.t list
(** All facts, in [Fact.compare] order. *)

val endogenous : t -> Fact.t list
val exogenous : t -> Fact.t list

val size : t -> int
(** O(1): maintained by every update. *)

val endo_size : t -> int
(** O(1): maintained by every update. *)

val relation : t -> string -> Fact.t list
(** Facts of one relation, both provenances — one segment lookup plus
    O(matches) materialization. Counted as a relation scan in {!stats}. *)

val relations : t -> string list
(** Names of relations with at least one fact, ascending; O(relations). *)

val restrict_relations : string list -> t -> t * t
(** [restrict_relations names db] splits [db] into (facts of the named
    relations, the rest). Whole segments move; O(relations), not
    O(|db| log |db|). *)

val fold : (Fact.t -> provenance -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Fact.t -> provenance -> unit) -> t -> unit
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Secondary indexes}

    An index on [(rel, pos)] groups the facts of relation [rel] by the
    value they hold at argument position [pos] (facts of arity ≤ [pos]
    are absent — no atom probing that position can match them). Indexes
    are built lazily on first use, memoized on the database value, and
    maintained incrementally across {!add}/{!remove}/{!set_provenance}
    (carried over unadjusted while {!Aggshap_arith.Fault.current} is
    [`Stale_index]); derived databases inherit the already-built
    entries. Memoization is
    domain-safe: racing builds are benign lost updates of pure,
    deterministic work. *)

module FactMap : Map.S with type key = Fact.t
module ValueMap : Map.S with type key = Value.t

val indexed : t -> rel:string -> pos:int -> provenance FactMap.t ValueMap.t
(** The full index for [(rel, pos)]: every group, with provenance —
    the one-pass grouping used by the engine's partition step. *)

val probe : t -> rel:string -> pos:int -> Value.t -> Fact.t list
(** The facts of [rel] holding the value at position [pos], in
    [Fact.compare] order; O(log) lookup + O(matches) materialization
    once the index is built. *)

val cached_digest : t -> (t -> string) -> string
(** [cached_digest db compute] memoizes [compute db] on the database
    value: databases are immutable, so the digest is computed at most
    once per value no matter how many memo keys mention it. The caller
    must always pass the same (pure) [compute] — the engine's
    fingerprint serialization does. *)

(** {1 Instrumentation} *)

type stats = {
  index_builds : int;  (** secondary indexes constructed from a segment *)
  index_probes : int;  (** {!probe}/{!indexed} lookups answered *)
  rel_scans : int;  (** {!relation} materializations (the unindexed path) *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

