"""Array-backed fast graph core (the ``fast`` backend).

The reference :class:`~repro.graph.social_network.SocialNetwork` stores its
adjacency as a dict-of-dicts keyed by arbitrary hashable vertex ids.  That is
the right representation for construction and mutation, but every hot path of
the offline phase — triangle counting, truss peeling, hop-ball BFS, MIA
max-product propagation — pays for it with per-step hashing of vertex ids,
tuple/frozenset key allocation, and pointer-chasing dict iteration.

This package provides a compact, immutable mirror of a social network:

* :class:`~repro.fastgraph.vertex_table.VertexTable` interns arbitrary
  hashable vertex ids into dense integers ``0..n-1``;
* :class:`~repro.fastgraph.csr.CSRGraph` stores the adjacency in CSR form
  (``indptr``/``indices``) with parallel per-direction probability arrays and
  per-arc undirected edge ids, using :mod:`array` from the stdlib (an
  optional numpy bridge is auto-detected at import — see
  :data:`~repro.fastgraph.csr.NUMPY_AVAILABLE`);
* :mod:`~repro.fastgraph.kernels` implements the scan-heavy computations
  over dense ints: stamp-based triangle/support counting, bucket-peel truss
  decomposition, BFS hop balls, binary-heap max-product Dijkstra, and the
  online seed-community fixpoint;
* :mod:`~repro.fastgraph.offline` re-implements the offline pre-computation
  (Algorithm 2) on top of those kernels, producing a
  :class:`~repro.index.precompute.PrecomputedData` that is **bit-for-bit
  identical** to the reference backend's (the cross-backend equivalence
  suite in ``tests/fastgraph`` enforces this).  Without numpy the build is
  the incremental record refresh run over every centre, so build and
  refresh share one kernel;
* :mod:`~repro.fastgraph.vectorised` runs the offline pass's support count
  and per-centre aggregation as batched numpy array programs over the
  zero-copy CSR views — bit-identical outputs, used whenever numpy is
  importable (the platform decides; there is no setting).  Every online
  kernel has the one stdlib implementation;
* :class:`~repro.fastgraph.delta.DeltaCSR` makes the snapshot *mutable*: a
  tombstone/spill overlay implementing the same
  :class:`~repro.graph.core.GraphCore` protocol, patched in place by the
  dynamic layer and compacted back to a pure :class:`CSRGraph` once its
  dirt ratio crosses ``EngineConfig.compact_dirt_ratio``.

Entry points: ``SocialNetwork.freeze()`` returns the :class:`CSRGraph`
mirror, and ``EngineConfig(backend="fast")`` routes the engine's offline
build, online extraction and scoring, and dynamic maintenance through it.  See
``docs/backends.md`` for when each backend applies.
"""

from repro.fastgraph.csr import NUMPY_AVAILABLE, NUMPY_VERSION, CSRGraph, freeze
from repro.fastgraph.delta import DeltaCSR
from repro.fastgraph.kernels import (
    community_propagation_csr,
    edge_supports_csr,
    truss_decomposition_csr,
)
from repro.fastgraph.offline import RefreshCache, fast_precompute, fast_refresh_records
from repro.fastgraph.vertex_table import VertexTable

__all__ = [
    "CSRGraph",
    "DeltaCSR",
    "NUMPY_AVAILABLE",
    "NUMPY_VERSION",
    "RefreshCache",
    "VertexTable",
    "community_propagation_csr",
    "edge_supports_csr",
    "fast_precompute",
    "fast_refresh_records",
    "freeze",
    "truss_decomposition_csr",
]
