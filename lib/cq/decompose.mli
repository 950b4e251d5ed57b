(** Structural decomposition of CQs, as used by the generic dynamic
    programming template (Figure 2 of the paper).

    A connected CQ that is hierarchical w.r.t. its variables always has a
    {e root variable} (one occurring in every atom); the template
    partitions the database by the root's values and recurses on
    [Q_{x↦a}]. A disconnected CQ is a cross product of its connected
    components. *)

val is_ground : Cq.t -> bool
(** No variables at all. *)

val connected_components : Cq.t -> Cq.t list
(** Components of the atom graph (atoms adjacent when they share a
    variable). Variable-free atoms are singleton components. The head of
    each component keeps the original head variables it contains. *)

val root_variables : Cq.t -> string list
(** Variables occurring in every atom, in first-occurrence order. *)

val choose_root : Cq.t -> string option
(** A root variable, preferring a free one — the choice required by the
    q-hierarchical algorithms (Section 5.1). *)

val matches : Cq.atom -> (string * Aggshap_relational.Value.t) list -> Aggshap_relational.Fact.t -> bool
(** [matches a fixing f]: [f] can be obtained from [a] by applying
    [fixing] and replacing the remaining variables with arbitrary
    constants (one constant per variable). *)

val relevant_part : Cq.t -> Aggshap_relational.Database.t -> Aggshap_relational.Database.t * int
(** The facts matching some atom of the query, plus the number of
    {e endogenous} facts left out (all null players — exactly the pad
    the engines need). When every fact is relevant the input database
    is returned as is, keeping its built indexes alive; this is the
    solve-path entry point. *)

val partition :
  Cq.t ->
  string ->
  Aggshap_relational.Database.t ->
  (Aggshap_relational.Value.t * Aggshap_relational.Database.t) list * Aggshap_relational.Database.t
(** [partition q x db] splits [db] by the root values of [x] (the
    values realized in every atom) into disjoint blocks, in increasing
    value order, returning also the facts that fall in no block (null
    players dropped at this step). One pass over the (relation,
    root-position) secondary indexes: groups each atom's matching facts
    by root value, intersects the realized value sets, and assembles
    blocks from the groups — O(Σ segments + Σ blocks·log |db|). *)
