(** The hit and miss counts of a DP-table cache.

    The library keeps no DP-table cache: a one-shot solve and an
    incremental session both build every table they read. The variant
    pass ({!Engine.Pass}) rebuilds every fact's removal table on every
    read, so a cached node table would save less than its serialised
    key costs (DESIGN.md §6). The record stays only because the
    benchmark in [perf/] reads it: {!Batch.shapley_all} reports [None]
    and {!Aggshap_incr.Session.stats} zeros (ROADMAP item 9). *)

type stats = {
  hits : int;
  misses : int;
}
