(** Open-loop load on a virtual clock.

    The server loop is single-threaded. Its clock advances by the
    measured wall time of each call into the library and jumps over
    idle gaps, so a run costs only its busy time while every request is
    still timed from when it was {e due}. *)

(** A seeded Poisson arrival process: exponential inter-arrival gaps. *)
module Arrivals : sig
  type t

  val create : rate:float -> Prng.t -> t
  (** [rate] in requests per (virtual) second; the generator is owned. *)

  val peek : t -> float
  (** Due time of the next arrival. *)

  val pop : t -> float
  (** Consume the next arrival and return its due time. *)
end

val tick_time : period:float -> int -> float
(** Epoch [k] is scheduled at [k * period]; ticks are numbered from 1. *)

type action =
  | Admit  (** hand the next arrival to [request] *)
  | Close of { first : int; last : int }
      (** close one epoch serving ticks [first..last]: every tick that
          passed while the loop was busy folds into this one close, and
          its lag counts from tick [first] *)
  | Idle_until of float  (** nothing is due before this time *)

val step : period:float -> now:float -> due:float -> tick:int -> action
(** The next thing the loop does at virtual time [now], given the next
    arrival's due time ([infinity] when there is none) and the next
    unserved tick. Overdue events are served earliest-due first; an
    arrival due exactly at a tick is admitted before that tick's
    close. *)

val crashes :
  snapshot_every:int -> offsets:int * int -> Prng.t -> unit -> int
(** [crashes ~snapshot_every ~offsets:(lo, hi) g] is a seeded crash
    schedule: each call returns the epoch seq after whose durable close
    the next crash fires. Targets are [s m + o] with [s =
    snapshot_every], so a crash replays [o + 1] journaled epochs. The
    offsets [o] are dealt from seeded shuffles of all of [lo..hi], so
    every run sees nearly the same spread of replay debts; [m] is the
    first period that keeps the gap from the previous crash within
    [s .. 2 s]. Requires [0 <= lo <= hi <= s - 2]: a crash never
    pre-empts the snapshot close [s m + s - 1]. *)
