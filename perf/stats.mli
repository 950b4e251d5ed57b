(** Order statistics for the benchmark harness and [agree.exe]. *)

val sort : float list -> float array
(** Ascending, by [Float.compare]. *)

val percentile : float array -> float -> float option
(** [percentile sorted p] is the nearest-rank percentile of an ascending
    sample array: the sample at one-based rank [ceil (p · n)], clamped
    to [1 .. n]. [None] on an empty array; a single sample answers every
    percentile. *)

val samples_beyond : int -> float -> int
(** [samples_beyond n p]: how many of [n] samples lie above the
    nearest-rank [p]-percentile. *)

val tail_percentile : int -> float option
(** The highest of p99.99, p99.9, p99, p95, p90 and p50 that has at
    least ten samples beyond it among [n] samples — the tail a run of
    that size can honestly report. [None] below 20 samples. *)

val median : float array -> float option
(** Python's [statistics.median] of an ascending array: the middle
    sample, or the mean of the middle two. *)

val quartiles : float array -> (float * float * float) option
(** Python's [statistics.quantiles(data, n=4)] (exclusive method) of an
    ascending array: interpolated first quartile, median and third
    quartile. A single sample is its own three quartiles. *)

val mean : float list -> float option
