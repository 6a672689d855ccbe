"""Influence propagation: the MIA model, influenced communities, IC cascades."""

from repro.influence.mia import (
    maximum_influence_paths,
    user_to_user_propagation,
)
from repro.influence.propagation import (
    InfluencedCommunity,
    community_propagation,
    influential_score,
)
from repro.influence.cascade import (
    CascadeResult,
    estimate_spread,
    simulate_independent_cascade,
)

__all__ = [
    "maximum_influence_paths",
    "user_to_user_propagation",
    "InfluencedCommunity",
    "community_propagation",
    "influential_score",
    "CascadeResult",
    "estimate_spread",
    "simulate_independent_cascade",
]
