(** SUDA — Special Unique Detection (paper, Algorithm 6).

    A {e sample unique} of a tuple is a set of quasi-identifier name–value
    pairs matched by no other tuple; a {e minimal sample unique} (MSU) is a
    sample unique none of whose proper subsets is one. A tuple identified
    by very few attributes is especially exposed: Algorithm 6 flags a tuple
    risky when it has an MSU smaller than a threshold.

    Search strategy: one frequency table per attribute subset of size ≤
    [max_size] — each tuple's dense group id over the subset plus each
    group's size, computed from the microdata's kept quasi-identifier
    encoding ({!Microdata.qi_codes}) in one pass each — then
    per-tuple minimality by subset-of-found-MSU pruning, the greedy
    preemption that keeps Figure 7f free of the combinatorial blowup.
    Values are compared under {!Vadasa_base.Value.equal}.

    Labelled nulls (from earlier suppression rounds) are handled in the
    maybe-match spirit: a tuple's frequency for a subset is looked up on the
    subset restricted to its non-null positions, so a suppressed attribute
    can no longer make the tuple unique. *)

type tuple_msus = {
  msus : int array list;  (** each MSU as quasi-identifier positions (into
                              {!Microdata.qi_positions} order) *)
  min_size : int option;
}

val find_msus : ?max_size:int -> Microdata.t -> tuple_msus array
(** Per-tuple MSUs of size ≤ [max_size] (default 3). *)

val estimate :
  max_msu_size:int -> threshold_size:int -> Microdata.t -> float array
(** Algorithm 6's risk: 1.0 when the tuple has an MSU of size <
    [threshold_size] (searching sizes ≤ [max_msu_size]), else 0.0. *)

val dis_scores : ?max_size:int -> Microdata.t -> float array
(** Graded SUDA scores: each MSU of size s over m quasi-identifiers
    contributes 2^(m−s); normalized by the maximum attainable score. Used
    for ranking rather than thresholding. *)
