(** Deterministic pseudo-random number generator (SplitMix64).

    Every data generator in this repository takes an explicit [Rng.t], and
    the Monte-Carlo estimator derives its streams from a seed with
    {!keyed}, so that datasets and experiments are reproducible from a
    seed. SplitMix64 passes BigCrush, is trivially seedable and
    splittable, and needs no external dependency. *)

type t

val create : seed:int -> t

val split : t -> t
(** An independent stream derived from the current state; the parent
    advances. Used to give each column of a synthetic dataset its own
    stream, so adding a column does not perturb the others. *)

val keyed : seed:int -> int64 array -> t
(** [keyed ~seed key] — a stream determined by [seed] and the words of
    [key] alone: each word is folded into the state through SplitMix64's
    mixer. Sampling that draws from [keyed ~seed (arguments of the
    draw)] gives every draw its own stream, so its outcome does not
    depend on which draws ran before it. *)

val copy : t -> t

val next_int64 : t -> int64
(** Uniform over all 2^64 bit patterns. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal via Box–Muller. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val weighted_index : t -> float array -> int
(** Index [i] with probability [w.(i) / sum w]. Weights must be non-negative
    with a positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
