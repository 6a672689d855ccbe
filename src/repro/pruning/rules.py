"""Community-level pruning rules (Lemmas 1–4).

These rules decide whether a candidate r-hop subgraph ``hop(v_i, r)`` (or any
candidate seed community) can be discarded without extracting and scoring a
seed community from it.  Every rule is *safe*: it only prunes candidates that
provably cannot contribute a top-L answer.

* **Keyword pruning** (Lemma 1): prune when a vertex of the candidate carries
  no query keyword.  At the candidate level we apply the practically useful
  form — the *centre* must carry a query keyword, and at least one vertex must
  do so — because vertices without query keywords are simply excluded from the
  seed community rather than invalidating the whole candidate.
* **Support pruning** (Lemma 2): prune when the candidate cannot contain an
  edge of support >= k - 2 (using pre-computed support upper bounds).
* **Radius pruning** (Lemma 3): prune vertices farther than ``r`` hops from
  the centre (structural; applied by working on ``hop(v_i, r)``).
* **Influential score pruning** (Lemma 4): prune when an upper bound of the
  candidate's influential score does not exceed the current L-th best score.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.subgraph import SubgraphView
from repro.keywords.bitvector import BitVector


# --------------------------------------------------------------------------- #
# Lemma 1 — keyword pruning
# --------------------------------------------------------------------------- #
def center_has_query_keyword(
    graph: SocialNetwork, center: VertexId, keywords: frozenset
) -> bool:
    """Return ``True`` when the candidate centre carries a query keyword.

    A seed community contains its centre (Definition 2), so a centre without
    any query keyword can never seed a valid community — the candidate is
    pruned (Lemma 1 applied to the centre vertex).
    """
    return bool(graph.keywords(center) & keywords)


def keyword_prune_by_bitvector(candidate_bv: BitVector, query_bv: BitVector) -> bool:
    """Return ``True`` when the candidate can be pruned by its keyword signature.

    The candidate signature aggregates the keyword sets of every vertex in the
    candidate subgraph; a zero intersection with ``Q.BV`` proves that *no*
    vertex carries a query keyword, so no seed community can exist inside it.
    """
    return not candidate_bv.intersects(query_bv)


def has_any_query_keyword(view: SubgraphView, keywords: frozenset) -> bool:
    """Exact (non-hashed) version of the candidate-level keyword test."""
    return any(view.keywords(v) & keywords for v in view)


# --------------------------------------------------------------------------- #
# Lemma 2 — support pruning
# --------------------------------------------------------------------------- #
def support_prune(support_upper_bound: int, k: int) -> bool:
    """Return ``True`` when a candidate can be pruned by its support bound.

    ``support_upper_bound`` is the maximum edge-support upper bound inside the
    candidate subgraph.  If even that maximum is below ``k - 2``, no edge of a
    k-truss can exist inside the candidate (Lemma 2 / the ``v_i.ub_sup_r``
    aggregate of Algorithm 2).
    """
    return support_upper_bound < k - 2


def trussness_prune(center_trussness_bound: int, k: int) -> bool:
    """Tightened support pruning using the centre's trussness in the full graph.

    A k-truss seed community centred at ``v`` contains at least one edge
    incident to ``v`` whose support inside the community is at least ``k - 2``;
    that edge's trussness in ``G`` (and hence ``v``'s vertex trussness) is then
    at least ``k``.  A centre whose trussness bound is below ``k`` can be
    pruned.  At the index level the bound is the maximum trussness over the
    entry's subtree.
    """
    return center_trussness_bound < k


# --------------------------------------------------------------------------- #
# Lemma 4 — influential score pruning
# --------------------------------------------------------------------------- #
def score_prune(score_upper_bound: float, current_lth_score: float) -> bool:
    """Return ``True`` when the candidate can be pruned by its score bound.

    ``current_lth_score`` is the smallest score among the L communities found
    so far (``-inf`` until L candidates exist).  A candidate whose upper bound
    does not exceed it cannot enter the top-L (Lemma 4).
    """
    return score_upper_bound <= current_lth_score


def select_score_bound(
    threshold_bounds: Iterable[tuple[float, float]], theta: float
) -> float:
    """Select the applicable pre-computed score bound for an online threshold.

    ``threshold_bounds`` is the pre-computed list of ``(theta_z, sigma_z)``
    pairs (ascending in ``theta_z``).  For an online ``theta`` in
    ``[theta_z, theta_{z+1})`` the paper uses ``sigma_z`` — the score at the
    largest pre-selected threshold not exceeding ``theta`` — as the upper
    bound.  When ``theta`` is smaller than every pre-selected threshold no
    finite bound applies and ``+inf`` is returned (never prune).
    """
    best = float("inf")
    best_theta = None
    for theta_z, sigma_z in threshold_bounds:
        if theta_z <= theta and (best_theta is None or theta_z > best_theta):
            best_theta = theta_z
            best = sigma_z
    return best
