(** Sample stores and the benchmark's percentile rules.

    Samples live outside the OCaml heap (a growable [float32] bigarray),
    so a run that records millions of vend latencies does not inflate
    the heap-peak metric it also reports. *)

type samples

val create : unit -> samples
val add : samples -> float -> unit
val length : samples -> int
val sum : samples -> float

val percentile : samples -> float -> float
(** [percentile s p] is the nearest-rank [p]-th percentile (the sample
    of rank [ceil (p / 100 * n)], 1-based), for [0 < p <= 100]. Reorders
    the store in place (quickselect). @raise Invalid_argument on an
    empty store. *)

val tail_rank : int -> float option
(** The highest percentile reported for [n] samples: at most 99, and
    only one with at least 10 samples beyond it
    ([n * (1 - p / 100) >= 10]), rounded down to a whole percentile.
    [None] when even p50 would have fewer than 10 samples beyond it
    ([n < 20]). *)

type summary = {
  count : int;
  p50 : float;  (** [nan] when [count = 0] *)
  tail : (float * float) option;  (** [(percentile, value)] *)
}

val summarize : samples -> summary

val tail_value : summary -> float
(** The tail value if {!tail_rank} allows one, else the median, else
    0 — the number written under a [*_p99_*] metric name. *)

val label : summary -> string
(** ["p50 X, p99 Y (n=N)"] with the tail percentile actually used. *)
