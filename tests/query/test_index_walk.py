"""The index walk's inline entry checks decide exactly as Lemmas 5-7 do.

:func:`~repro.query.topl.walk_index` applies the index-level rules on
per-query constants: an int AND with the query's keyword bits, int compares
against ``k - 2`` and ``k``, and the bound at the query's
:func:`~repro.query.topl.threshold_column`, used both to prune and as the heap
key.  This module replays the same traversal through the lemma functions
themselves (``index_keyword_prune``, ``index_support_prune`` /
``trussness_prune``, ``index_score_prune`` and ``entry_priority``) on random
trees from both backends, and asserts the two walks prune the same entries,
push the same keys in the same order, yield the same leaves and count the
same.  ``sigma_L`` is driven upward between leaves as a live result set would
drive it, so score pruning and early termination both fire.
"""

from __future__ import annotations

import heapq
import random
from types import SimpleNamespace

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.exceptions import GraphError, IndexStateError
from repro.graph.generators import erdos_renyi_graph, planted_community_graph
from repro.graph.keyword_assignment import assign_keywords
from repro.keywords.bitvector import BitVector
from repro.pruning.index_rules import (
    entry_priority,
    index_keyword_prune,
    index_score_prune,
    index_support_prune,
)
from repro.pruning.rules import select_score_bound, trussness_prune
from repro.pruning.stats import PruningConfig, PruningCounters
from repro.query import topl
from repro.query.params import make_topl_query
from repro.query.results import QueryStatistics
from repro.query.topl import threshold_column, walk_index

BACKENDS = ("reference", "fast")
THRESHOLDS = (0.1, 0.2, 0.3)
#: Below thresholds[0], equal to each threshold, between two, above the last.
THETAS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.6)
PRUNINGS = (
    PruningConfig.all_enabled(),
    PruningConfig(keyword=False, support=True, score=True),
    PruningConfig(keyword=True, support=False, score=True),
    PruningConfig(keyword=True, support=True, score=False),
)


def _graph(seed: int):
    rng = random.Random(seed)
    if seed % 2:
        graph = planted_community_graph(
            [rng.randint(4, 8) for _ in range(rng.randint(3, 5))],
            intra_probability=0.6,
            inter_probability=0.03,
            rng=seed,
        )
    else:
        graph = erdos_renyi_graph(
            rng.randint(20, 36), edge_probability=rng.uniform(0.06, 0.2), rng=seed
        )
    # A large vocabulary and wide signatures leave some subtrees without a
    # query keyword, so Lemma 5 has entries to prune.
    assign_keywords(graph, keywords_per_vertex=1, domain_size=30, rng=seed)
    return rng, graph


def _engine(graph, backend: str, seed: int) -> InfluentialCommunityEngine:
    return InfluentialCommunityEngine.build(
        graph,
        config=EngineConfig(
            backend=backend,
            max_radius=3,
            thresholds=THRESHOLDS,
            num_bits=128,
            leaf_capacity=2 + seed % 3,
            fanout=2 + seed % 2,
        ),
        validate=False,
    )


def _driver(seed: int, index, column):
    """Raise ``sigma_L`` between leaves along a seeded sequence of node bounds."""
    bounds = {float("-inf")}
    if column is not None:
        stack = [index.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            for aggregates in node.aggregates.per_radius.values():
                bounds.add(aggregates.score_bounds[column][1])
    choices = sorted(bounds)
    rng = random.Random(seed)

    def drive(results) -> None:
        results.sigma_l = max(results.sigma_l, rng.choice(choices))

    return drive


def _lemma_walk(index, query, pruning, drive):
    """Algorithm 3's traversal, every entry decided by the lemma functions."""
    radius, k, theta = query.radius, query.k, query.theta
    query_bv = BitVector.from_keywords(query.keywords, index.precomputed.num_bits)
    results = SimpleNamespace(sigma_l=float("-inf"))
    counters, statistics = PruningCounters(), QueryStatistics()
    pushes, leaves = [], []
    heap = [(-float("inf"), 0, index.root)]
    counter = 1
    while heap:
        negative_key, _, node = heapq.heappop(heap)
        statistics.visited_index_nodes += 1
        if pruning.score and -negative_key <= results.sigma_l:
            statistics.heap_terminated_early = True
            break
        if node.is_leaf:
            statistics.visited_leaf_vertices += len(node.vertices)
            leaves.append(id(node))
            drive(results)
            continue
        for child in node.children:
            entry = child.aggregates.per_radius[radius]
            if pruning.keyword and index_keyword_prune(entry.bitvector, query_bv):
                counters.index_keyword += 1
                continue
            if pruning.support and (
                index_support_prune(entry.support_upper_bound, k)
                or trussness_prune(child.aggregates.trussness_bound, k)
            ):
                counters.index_support += 1
                continue
            if pruning.score and index_score_prune(entry.score_bounds, theta, results.sigma_l):
                counters.index_score += 1
                continue
            key = entry_priority(entry.score_bounds, theta)
            pushes.append((id(child), key))
            heapq.heappush(heap, (-key, counter, child))
            counter += 1
    return leaves, pushes, counters, statistics


class _RecordingHeapq:
    """Stands in for ``heapq`` inside ``repro.query.topl``; records each push."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self) -> None:
        self.pushes: list = []

    def heappush(self, heap, item) -> None:
        self.pushes.append((id(item[2]), -item[0]))
        heapq.heappush(heap, item)


def _inline_walk(index, query, pruning, drive, monkeypatch):
    recorder = _RecordingHeapq()
    monkeypatch.setattr(topl, "heapq", recorder)
    results = SimpleNamespace(sigma_l=float("-inf"))
    counters, statistics = PruningCounters(), QueryStatistics()
    leaves = []
    for leaf in walk_index(index, query, pruning, results, counters, statistics):
        leaves.append(id(leaf))
        drive(results)
    monkeypatch.setattr(topl, "heapq", heapq)
    return leaves, recorder.pushes, counters, statistics


def _walk_summary(statistics: QueryStatistics) -> tuple:
    return (
        statistics.visited_index_nodes,
        statistics.visited_leaf_vertices,
        statistics.heap_terminated_early,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_inline_checks_decide_as_the_lemmas(backend, monkeypatch):
    fired = PruningCounters()
    terminated = 0
    cases = 0
    for seed in range(6):
        rng, graph = _graph(seed)
        index = _engine(graph, backend, seed).index
        vocabulary = sorted({word for v in graph.vertices() for word in graph.keywords(v)})
        for theta in THETAS:
            column = threshold_column(index.thresholds, theta)
            for pruning in PRUNINGS:
                query = make_topl_query(
                    rng.sample(vocabulary, rng.randint(1, 2)),
                    k=rng.randint(2, 5),
                    radius=rng.randint(1, 3),
                    theta=theta,
                )
                case_seed = rng.randrange(1 << 30)
                expected = _lemma_walk(index, query, pruning, _driver(case_seed, index, column))
                actual = _inline_walk(
                    index, query, pruning, _driver(case_seed, index, column), monkeypatch
                )
                label = (backend, seed, query, pruning)
                assert actual[0] == expected[0], label
                assert actual[1] == expected[1], label
                assert actual[2].as_dict() == expected[2].as_dict(), label
                assert _walk_summary(actual[3]) == _walk_summary(expected[3]), label
                fired.merge(expected[2])
                terminated += expected[3].heap_terminated_early
                cases += 1
    # Every rule and the early stop fired somewhere in the sweep.
    assert cases == 6 * len(THETAS) * len(PRUNINGS)
    assert fired.index_keyword and fired.index_support and fired.index_score
    assert terminated


@pytest.mark.parametrize("theta", THETAS + (0.0, 0.35, 0.999))
def test_threshold_column_selects_the_lemma_bound(theta):
    bounds = tuple((theta_z, 10.0 * position) for position, theta_z in enumerate(THRESHOLDS))
    column = threshold_column(THRESHOLDS, theta)
    expected = select_score_bound(bounds, theta)
    if column is None:
        assert expected == float("inf")
    else:
        assert bounds[column][1] == expected


def test_mismatched_signature_width_is_loud(two_cliques_bridge):
    index = _engine(two_cliques_bridge, "reference", seed=0).index
    index.precomputed.num_bits = 64
    query = make_topl_query({"movies"}, k=3, radius=1, theta=0.2)
    walk = walk_index(
        index, query, PruningConfig.keyword_only(), None, PruningCounters(), QueryStatistics()
    )
    with pytest.raises(GraphError, match="mismatched widths: 128 vs 64"):
        list(walk)


def test_fast_scan_reports_a_missing_record(two_cliques_bridge):
    engine = _engine(two_cliques_bridge, "fast", seed=0)
    del engine.index.precomputed.vertex_aggregates[3]
    query = make_topl_query({"movies", "books"}, k=3, radius=1, theta=0.2)
    processor = topl.TopLProcessor(
        engine.graph,
        index=engine.index,
        pruning=PruningConfig(keyword=False, support=True, score=True),
        backend="fast",
    )
    with pytest.raises(IndexStateError, match="vertex 3 is not covered"):
        processor.query(query)
