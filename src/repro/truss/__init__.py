"""Structural cohesiveness substrate: edge support, k-truss, trussness, k-core."""

from repro.truss.support import (
    edge_key,
    edge_support,
    max_support,
)
from repro.truss.ktruss import (
    TrussResult,
    is_ktruss,
    ktruss_component_of,
    maximal_ktruss,
)
from repro.truss.decomposition import TrussDecomposition, truss_decomposition
from repro.truss.kcore import (
    CoreDecomposition,
    core_decomposition,
    degeneracy,
    kcore_component_of,
    maximal_kcore,
)

__all__ = [
    "edge_key",
    "edge_support",
    "max_support",
    "TrussResult",
    "is_ktruss",
    "ktruss_component_of",
    "maximal_ktruss",
    "TrussDecomposition",
    "truss_decomposition",
    "CoreDecomposition",
    "core_decomposition",
    "degeneracy",
    "kcore_component_of",
    "maximal_kcore",
]
