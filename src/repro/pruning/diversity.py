"""Diversity score computation and pruning (Section VII, Lemma 9).

The DTopL-ICDE objective is the diversity score

    D(S) = sum_{v in V(G)} max_{g in S} cpp(g, v),

which is monotone and submodular in ``S``.  The greedy refinement therefore
admits CELF-style *lazy evaluation*: a community's previously computed
marginal gain ``Delta_g(S')`` for an older ``S' ⊆ S`` upper-bounds its current
gain ``Delta_g(S)``, so candidates whose stale bound already loses to the best
fresh gain need not be re-evaluated (Lemma 9).

The functions here operate on :class:`~repro.influence.propagation.InfluencedCommunity`
objects, whose ``cpp`` maps are exactly the per-community contributions the
diversity score aggregates.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.influence.propagation import InfluencedCommunity


def diversity_score(communities: Iterable[InfluencedCommunity]) -> float:
    """Return ``D(S)`` for a collection of influenced communities (Eq. 6).

    The per-vertex maxima are summed in sorted value order: the ``cpp`` maps
    iterate in backend-dependent discovery order, and float addition is not
    associative, so a naive sum could differ between backends in the last
    ulp.  The sorted multiset of contributions is backend-independent, which
    keeps the reported score bit-identical — the equivalence invariant.
    """
    return sum(sorted(coverage_map(communities).values()))


def coverage_map(communities: Iterable[InfluencedCommunity]) -> dict:
    """Return ``vertex -> max cpp`` over the given communities.

    The incremental greedy keeps this map up to date so marginal gains are
    computed in time proportional to the candidate's influenced community,
    not to the whole selection.
    """
    best: dict = {}
    for community in communities:
        for vertex, probability in community.cpp.items():
            if probability > best.get(vertex, 0.0):
                best[vertex] = probability
    return best


def marginal_gain(candidate: InfluencedCommunity, coverage: dict) -> float:
    """Return ``Delta_D_g(S) = D(S ∪ {g}) - D(S)`` given the coverage map of ``S``.

    Gains feed the greedy's selection heap, so like :func:`diversity_score`
    they are summed in sorted order to stay independent of the ``cpp``
    iteration order of the backend that produced the candidate.
    """
    improvements = []
    for vertex, probability in candidate.cpp.items():
        covered = coverage.get(vertex, 0.0)
        if probability > covered:
            improvements.append(probability - covered)
    return sum(sorted(improvements))


def apply_to_coverage(candidate: InfluencedCommunity, coverage: dict) -> dict:
    """Merge ``candidate`` into ``coverage`` in place and return it."""
    for vertex, probability in candidate.cpp.items():
        if probability > coverage.get(vertex, 0.0):
            coverage[vertex] = probability
    return coverage
