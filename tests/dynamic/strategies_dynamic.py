"""Hypothesis strategies + backend plumbing for dynamic-graph scenarios.

The whole ``tests/dynamic`` suite honours ``REPRO_TEST_BACKEND``: the CI
backend-matrix job exports ``fast``, which runs every engine through the
array core and every directly-constructed truss state over a
:class:`~repro.fastgraph.delta.DeltaCSR` overlay — the same assertions then
prove the incremental fast path bit-identical to the reference rebuilds.
Fast builds and rebuilds run the offline pass the installed packages give
(the batched numpy pass when numpy imports, the numpy-free record kernel
otherwise), and the incremental refreshes continue their records.
"""

from __future__ import annotations

import os

from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.dynamic.truss_maintenance import IncrementalTrussState
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.fastgraph.delta import DeltaCSR
from repro.graph.core import AdjacencyCore
from repro.truss.support import edge_key
from tests.property.strategies import KEYWORD_POOL, social_networks

__all__ = [
    "DYNAMIC_BACKEND",
    "KEYWORD_POOL",
    "apply_reference",
    "dynamic_config",
    "dynamic_scenarios",
    "make_truss_state",
]

#: Backend the dynamic suite runs on; the CI matrix exports fast.
DYNAMIC_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "reference")


def dynamic_config(**overrides) -> EngineConfig:
    """An :class:`EngineConfig` on the backend under test."""
    overrides.setdefault("backend", DYNAMIC_BACKEND)
    return EngineConfig(**overrides)


def make_truss_state(graph, **kwargs) -> IncrementalTrussState:
    """A truss state over the backend under test's core of ``graph``.

    On the fast backend the worklist runs over a ``DeltaCSR`` overlay of a
    fresh snapshot (exactly what the engine maintains); on the reference
    backend over an ``AdjacencyCore`` of a copy.  ``graph`` itself is left
    alone: tests mutate it with :func:`apply_reference` and compare the
    state against it.
    """
    if DYNAMIC_BACKEND == "fast":
        core = DeltaCSR(graph.freeze())
    else:
        core = AdjacencyCore(graph.copy())
    return IncrementalTrussState(core, **kwargs)


def apply_reference(graph, batch: UpdateBatch) -> None:
    """Apply ``batch`` to the reference ``graph`` through its own ``AdjacencyCore``."""
    batch.apply_to(AdjacencyCore(graph))


@st.composite
def dynamic_scenarios(draw, max_edits: int = 8):
    """Generate ``(graph, truss_state, batch)`` with a sequentially-valid script.

    Edits are drawn one at a time against the evolving edge set, mixing
    insertions (including to brand-new vertices), deletions, and
    delete-then-reinsert churn.
    """
    graph = draw(social_networks(min_vertices=3, max_vertices=12))
    state = make_truss_state(graph)

    vertices = list(graph.vertices())
    edges = {edge_key(u, v) for u, v in graph.edges()}
    next_vertex = max(vertices) + 1
    num_edits = draw(st.integers(min_value=1, max_value=max_edits))

    updates: list[EdgeUpdate] = []
    for _ in range(num_edits):
        deletable = sorted(edges, key=sorted)
        can_delete = bool(deletable)
        do_insert = draw(st.booleans()) or not can_delete
        if do_insert:
            grow = draw(st.booleans())
            if grow:
                u = draw(st.sampled_from(vertices))
                v = next_vertex
                next_vertex += 1
                vertices.append(v)
            else:
                u = draw(st.sampled_from(vertices))
                candidates = [
                    w for w in vertices if w != u and edge_key(u, w) not in edges
                ]
                if not candidates:
                    continue
                v = draw(st.sampled_from(candidates))
            probability = draw(st.floats(min_value=0.05, max_value=0.95))
            updates.append(EdgeUpdate.insert(u, v, probability))
            edges.add(edge_key(u, v))
        else:
            key = draw(st.sampled_from(deletable))
            u, v = sorted(key)
            updates.append(EdgeUpdate.delete(u, v))
            edges.discard(key)
    return graph, state, UpdateBatch(updates)
