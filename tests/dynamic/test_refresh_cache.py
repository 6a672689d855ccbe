"""Multi-batch staleness oracle for the fast refresh's cached rows.

The fast backend keeps one :class:`~repro.fastgraph.offline.RefreshCache`
per engine across update batches — single-source ``upp`` rows, keyword bits
and sorted support arcs — and drops only what each batch can have changed.
A row that survives a batch it should not is invisible to a one-batch
check, so these tests apply seeded sequences of batches to one engine and,
after *every* batch, compare:

* every pre-computed record with a fresh reference ``precompute`` of the
  mutated graph, bit for bit;
* every cached ``upp`` row with a fresh ``propagate((v,), theta_min)[1:]``
  on a new workspace over the engine's live core;
* every cached keyword-bit and support-arc row with a fresh derivation from
  the reference graph.

The sequences mix localised and scattered churn, brand-new vertices that
carry keywords, compactions of the snapshot overlay (a small
``compact_dirt_ratio``) and a ``theta_min = 0`` configuration, where every
batch empties the row cache.  The engines always run the fast backend (the
reference backend keeps no cache), built on the offline pass the installed
packages give (vector with numpy, the numpy-free row kernel without).
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import random_update_batch
from repro.fastgraph.kernels import CSRWorkspace
from repro.graph.generators import planted_community_graph
from repro.index.precompute import precompute
from repro.keywords.bitvector import BitVector
from repro.truss.support import edge_key, edge_support

from tests.dynamic.strategies_dynamic import KEYWORD_POOL, dynamic_config

BATCHES = 12

CONFIGS = {
    "compacting": dict(thresholds=(0.1, 0.2, 0.3), compact_dirt_ratio=0.02),
    "theta-zero": dict(thresholds=(0.0, 0.25)),
}


def _engine(seed: int, backend: str = "fast", **overrides) -> InfluentialCommunityEngine:
    rng = random.Random(seed)
    graph = planted_community_graph(
        [rng.randint(6, 10) for _ in range(4)],
        intra_probability=0.55,
        inter_probability=0.04,
        weight_range=(0.1, 0.9),
        rng=seed,
        name=f"refresh-cache-{seed}",
    )
    for vertex in list(graph.vertices()):
        graph.set_keywords(vertex, rng.sample(KEYWORD_POOL, rng.randint(1, 3)))
    config = dynamic_config(
        backend=backend, max_radius=2, fanout=3, leaf_capacity=4,
        damage_threshold=1.0, **overrides,
    )
    return InfluentialCommunityEngine.build(graph, config=config, validate=False)


def _batch(engine, rng: random.Random, step: int):
    """Alternate localised churn around one vertex with scattered churn."""
    graph = engine.graph
    focus = None
    if step % 2 == 0:
        focus = rng.choice(sorted(graph.vertices(), key=repr))
    return random_update_batch(
        graph,
        rng.randint(2, 8),
        rng=rng,
        insert_ratio=0.6,
        focus=focus,
        focus_radius=1,
        grow_probability=0.3,
        keyword_pool=KEYWORD_POOL,
    )


def _assert_cache_fresh(engine) -> None:
    """Every cached row equals a fresh derivation on the mutated graph."""
    cache = engine._refresh_cache
    core = engine.frozen_graph()
    id_of = core.table.id_of
    theta_min = min(engine.config.thresholds)
    workspace = CSRWorkspace(core)
    for vertex, row in cache.rows.items():
        fresh = workspace.propagate((vertex,), theta_min)[1:]
        assert set(row) == set(fresh), id_of(vertex)
        assert len(row) == len(fresh), id_of(vertex)
    num_bits = engine.config.num_bits
    for vertex, bits in cache.keyword_bits.items():
        keywords = engine.graph.keywords(id_of(vertex))
        assert bits == BitVector.from_keywords(keywords, num_bits).bits, id_of(vertex)
    supports = edge_support(engine.graph)
    for vertex, arcs in cache.support_arcs.items():
        owner = id_of(vertex)
        fresh = sorted(
            (
                (supports[edge_key(owner, neighbour)], core.table.index_of(neighbour))
                for neighbour in engine.graph.neighbors(owner)
            ),
            reverse=True,
        )
        assert list(arcs) == fresh, owner


def _assert_records_fresh(engine) -> None:
    fresh = precompute(
        engine.graph,
        max_radius=engine.config.max_radius,
        thresholds=engine.config.thresholds,
        num_bits=engine.config.num_bits,
    )
    assert engine.index.precomputed.vertex_aggregates == fresh.vertex_aggregates


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", range(3))
def test_records_and_rows_stay_fresh_across_batches(name, seed):
    engine = _engine(seed, **CONFIGS[name])
    rng = random.Random(1000 + seed)
    kept = grown = compactions = 0
    for step in range(BATCHES):
        before = dict(engine._refresh_cache.rows) if engine._refresh_cache else {}
        report = engine.apply_updates(_batch(engine, rng, step))
        assert report.mode == "incremental", (step, report.mode)
        grown += report.new_vertices
        compactions += report.compacted
        rows = engine._refresh_cache.rows
        # Identity tells a kept row from a rebuilt one (``()`` is shared).
        kept += sum(1 for vertex, row in before.items() if row and rows.get(vertex) is row)
        _assert_records_fresh(engine)
        _assert_cache_fresh(engine)
    assert grown > 0
    if name == "theta-zero":
        # theta_min = 0 reaches every vertex: no row outlives a batch.
        assert kept == 0
    else:
        assert compactions > 0
        assert kept > 0  # the cache is actually reused


def test_describe_reports_cache_size():
    engine = _engine(0, **CONFIGS["compacting"])
    assert engine.describe()["dynamic"] == {"upp_rows": 0, "upp_entries": 0}
    rng = random.Random(7)
    engine.apply_updates(_batch(engine, rng, 0))
    rows = engine._refresh_cache.rows
    assert rows
    assert engine.describe()["dynamic"] == {
        "upp_rows": len(rows),
        "upp_entries": sum(len(row) for row in rows.values()),
    }
    # A rebuild drops the cache together with the truss state.
    engine.apply_updates(_batch(engine, rng, 1), rebuild=True)
    assert engine._refresh_cache is None
    assert engine.describe()["dynamic"] == {"upp_rows": 0, "upp_entries": 0}


def test_describe_is_none_on_reference_backend():
    engine = _engine(0, backend="reference")
    engine.apply_updates(_batch(engine, random.Random(3), 0))
    assert engine.describe()["dynamic"] == {"upp_rows": None, "upp_entries": None}
