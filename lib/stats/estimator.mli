(** Estimators for the individual (per-cell) re-identification risk.

    A "cell" is a combination of quasi-identifier values; [freq] is its
    sample frequency f (how many microdata tuples carry the combination) and
    [weight_sum] the sum ŵ of their sampling weights — the estimator of the
    population frequency F of the combination.

    The paper (Algorithm 5) poses λ = ŵ and estimates the risk as f/ŵ; the
    richer estimators below follow the Benedetti–Franconi line the paper
    cites, modelling the posterior of F given f as negative binomial. *)

val naive : freq:int -> weight_sum:float -> float
(** The paper's Algorithm 5: risk = f / ŵ, clamped into [\[0, 1\]].
    Degenerates to 1 when ŵ ≤ f (the sample exhausts the population). *)

val benedetti_franconi : freq:int -> weight_sum:float -> float
(** Posterior mean of 1/F under the negative-binomial model with estimated
    within-cell sampling rate p̂ = f/ŵ. Exact closed forms for f = 1 and
    f = 2; for f ≥ 3 the standard approximation
    [p̂ / (f - (1 - p̂))] (Franconi & Polettini 2004). *)

val monte_carlo : seed:int -> samples:int -> freq:int -> weight_sum:float -> float
(** Simulation estimator of E[1/F | f]: draws F = f + NegBin(f, p̂) and
    averages 1/F. This is the reproduction of the paper's "off-the-shelf
    statistical library" plug-in used in Figure 7e, whose per-cell sampling
    cost dominates the individual-risk running time.

    The draws come from [Rng.keyed ~seed [|f; bits of ŵ|]], so the
    estimate is a function of [(seed, samples, freq, weight_sum)]: every
    combination with the same statistics gets the same risk, whatever was
    estimated before it. *)

val global_risk : float array -> float
(** Expected number of re-identifications: the sum of per-tuple risks.
    A whole-file summary used in reports. *)

val cluster_risk : float array -> float
(** Risk that at least one member of a linked cluster is re-identified:
    1 - ∏(1 - ρ_c) (paper, Section 4.4). *)
