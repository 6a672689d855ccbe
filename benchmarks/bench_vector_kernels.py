"""Vector kernel tier: the batched numpy offline pass vs the numpy-free pass.

When numpy imports, the offline pass (Algorithm 2) runs as numpy array
programs over the zero-copy ``CSRGraph.as_numpy()`` views — whole-graph
support counting plus batched per-centre balls, keyword/support aggregates
and max-product propagation; every online kernel is the stdlib one.
Without numpy it is the record refresh run over every centre (max-merged
single-source influence rows).  This bench records what numpy buys on top
of the numpy-free pass, in ``BENCH_vector.json``:

* **end-to-end index build** (pre-computation + tree) on the ``stdlib``
  pass vs the ``vector`` pass, on the repo's 5k-edge planted bench network
  (the ``BENCH_fastcore.json`` graph — the headline ratio, 2.24x in the
  latest recording against a 1.5x floor) and on a ~60k-edge
  Barabási–Albert power-law graph where the batched kernels have real
  arrays to chew on;
* **the whole-graph support kernel** (``supports``) timed on its own on
  the power-law graph;
* **each tier's traced build peak** (``traced_peak_mb``): the
  ``tracemalloc`` peak of one more, untimed build per tier and network —
  the transient scratch of the offline pass, which sets the process's
  peak RSS on the in-process benchmark workloads.

The ``stdlib`` builds run with ``repro.fastgraph.offline.NUMPY_AVAILABLE``
patched to ``False`` (:func:`offline_pass`), which is exactly what a
numpy-free install runs.  Correctness is part of the bench: the support
comparison asserts exact equality, both end-to-end builds assert
bit-identical pre-computed records, and the TopL/DTopL answers of engines
on both tiers are compared community for community *before* any number is
written.

Run as a pytest module (``pytest benchmarks/bench_vector_kernels.py``) or
standalone to record the JSON baseline::

    python benchmarks/bench_vector_kernels.py --out BENCH_vector.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.fastgraph import NUMPY_AVAILABLE, NUMPY_VERSION, freeze, offline
from repro.fastgraph.kernels import edge_supports_csr
from repro.graph.generators import barabasi_albert_graph
from repro.graph.keyword_assignment import assign_keywords
from repro.index.precompute import precompute
from repro.index.tree import build_tree_index
from repro.query.params import make_dtopl_query, make_topl_query
from repro.workloads.reporting import bench_envelope

from benchmarks.bench_index_build import (
    GRAPH_SEED,
    assert_precomputed_equal,
    build_bench_network,
)

#: Vertices of the power-law graph (scaled down for the CI smoke).
POWERLAW_VERTICES = int(os.environ.get("REPRO_BENCH_VECTOR_POWERLAW_VERTICES", "12000"))
#: Preferential-attachment edges per vertex (~5 edges/vertex => ~60k edges).
POWERLAW_EDGES_PER_VERTEX = 5
#: Seed for the power-law graph (structure, weights and keywords).
POWERLAW_SEED = 29

_BENCH_CONFIG = EngineConfig(max_radius=3, thresholds=(0.1, 0.2, 0.3), backend="fast")
_POWERLAW_CONFIG = EngineConfig(max_radius=2, thresholds=(0.1, 0.3), backend="fast")
#: Smallest end-to-end build ratio (vector over stdlib) the bench accepts.
SPEEDUP_FLOOR = 1.5
TIERS = ("stdlib", "vector")


@contextmanager
def offline_pass(tier: str):
    """Run fast builds inside on the ``tier`` offline pass.

    ``"stdlib"`` patches :data:`repro.fastgraph.offline.NUMPY_AVAILABLE` to
    ``False`` — the pass a numpy-free install runs; ``"vector"`` leaves it
    as the platform set it.
    """
    with pytest.MonkeyPatch.context() as patch:
        if tier == "stdlib":
            patch.setattr(offline, "NUMPY_AVAILABLE", False)
        yield


def build_powerlaw_network(num_vertices: int = POWERLAW_VERTICES):
    """A heavy-tailed ~60k-edge graph with weighted-cascade-scale weights."""
    graph = barabasi_albert_graph(
        num_vertices,
        POWERLAW_EDGES_PER_VERTEX,
        weight_range=(0.05, 0.3),
        rng=POWERLAW_SEED,
        name=f"powerlaw-{num_vertices}",
    )
    assign_keywords(graph, keywords_per_vertex=3, domain_size=50, rng=POWERLAW_SEED)
    return graph


def measure_index_build(graph, config: EngineConfig, tier: str) -> dict:
    """Time the offline phase (precompute + tree) on one tier."""
    with offline_pass(tier):
        started = time.perf_counter()
        precomputed = precompute(
            graph,
            max_radius=config.max_radius,
            thresholds=config.thresholds,
            num_bits=config.num_bits,
            backend=config.backend,
        )
        precompute_seconds = time.perf_counter() - started

    started = time.perf_counter()
    build_tree_index(
        graph,
        precomputed=precomputed,
        fanout=config.fanout,
        leaf_capacity=config.leaf_capacity,
    )
    tree_seconds = time.perf_counter() - started
    return {
        "tier": tier,
        "precompute_seconds": round(precompute_seconds, 4),
        "tree_seconds": round(tree_seconds, 4),
        "total_seconds": round(precompute_seconds + tree_seconds, 4),
        "_precomputed": precomputed,
    }


def traced_peak_mb(graph, config: EngineConfig, tier: str) -> float:
    """``tracemalloc`` peak (MB) of one offline build (precompute + tree).

    A separate, untimed build: tracing slows allocation-heavy code, so the
    timed builds run without it.
    """
    tracemalloc.start()
    try:
        measure_index_build(graph, config, tier)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / 2**20, 2)


def measure_kernels(graph) -> dict:
    """Stdlib-vs-vector timing of the support count, equality asserted.

    Only the whole-graph support count has two implementations to time in
    isolation; the batched per-centre pass shows up in the end-to-end
    builds.
    """
    from repro.fastgraph.vectorised import edge_supports_vector

    csr = freeze(graph)
    # Pre-materialised lists, as the offline pass hands them to the kernel.
    lists = (csr.indptr.tolist(), csr.indices.tolist(), csr.arc_edge.tolist())

    def timed(fn):
        """Best wall time of three runs + the (deterministic) result."""
        best = float("inf")
        result = None
        for _ in range(3):
            started = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - started)
        return best, result

    stdlib_seconds, supports_std = timed(lambda: edge_supports_csr(csr, lists))
    vector_seconds, supports_vec = timed(lambda: edge_supports_vector(csr))
    assert list(supports_std) == supports_vec.tolist()
    return {
        "supports": {
            "stdlib_seconds": round(stdlib_seconds, 4),
            "vector_seconds": round(vector_seconds, 4),
            "speedup": round(stdlib_seconds / max(vector_seconds, 1e-9), 3),
        }
    }


def _fingerprint(result):
    return tuple((c.center, c.vertices, c.score) for c in result)


def assert_answers_identical(graph) -> None:
    """TopL/DTopL answers must agree across tiers before numbers are written."""
    config = EngineConfig(max_radius=2, thresholds=(0.1, 0.3), backend="fast")
    engines = {}
    for tier in TIERS:
        with offline_pass(tier):
            engines[tier] = InfluentialCommunityEngine.build(
                graph.copy(), config=config, validate=False
            )
    query = make_topl_query({"music", "fashion", "skincare"}, k=3, radius=2, theta=0.1, top_l=5)
    dquery = make_dtopl_query(
        {"music", "fashion", "skincare"}, k=3, radius=2, theta=0.1, top_l=3, candidate_factor=2
    )
    topl = {tier: _fingerprint(e.topl(query)) for tier, e in engines.items()}
    assert topl["stdlib"] == topl["vector"], "TopL answers diverged across tiers"
    dtopl = {tier: e.dtopl(dquery) for tier, e in engines.items()}
    assert _fingerprint(dtopl["stdlib"]) == _fingerprint(dtopl["vector"])
    assert dtopl["stdlib"].diversity_score == dtopl["vector"].diversity_score


def _network_section(graph, config: EngineConfig, best: dict, peaks: dict) -> dict:
    speedup = best["stdlib"]["total_seconds"] / max(best["vector"]["total_seconds"], 1e-9)
    return {
        "name": graph.name,
        "num_vertices": graph.num_vertices(),
        "num_edges": graph.num_edges(),
        # The config every build ran with; each build states its own tier.
        "config": {**config.describe(), "tiers": list(best)},
        "end_to_end": {
            tier: {
                **{k: v for k, v in measurement.items() if not k.startswith("_")},
                "traced_peak_mb": peaks[tier],
            }
            for tier, measurement in best.items()
        },
        "speedup_vector_vs_stdlib": round(speedup, 3),
    }


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
pytestmark = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="vector tier needs numpy")


@pytest.fixture(scope="module")
def bench_network():
    return build_bench_network()


@pytest.fixture(scope="module")
def tier_builds(bench_network):
    return tuple(measure_index_build(bench_network, _BENCH_CONFIG, tier) for tier in TIERS)


def test_tiers_build_identical_indexes(tier_builds):
    """Correctness gate: bit-identical records, whatever the timings say."""
    stdlib, vector = tier_builds
    assert_precomputed_equal(vector["_precomputed"], stdlib["_precomputed"])


def test_recorded_config_is_what_ran(bench_network, tier_builds):
    stdlib, vector = tier_builds
    section = _network_section(
        bench_network, _BENCH_CONFIG, {"stdlib": stdlib, "vector": vector},
        {"stdlib": 1.0, "vector": 1.0},
    )
    assert section["config"]["backend"] == "fast"
    assert section["config"]["tiers"] == ["stdlib", "vector"]
    assert [run["tier"] for run in section["end_to_end"].values()] == ["stdlib", "vector"]
    assert [run["traced_peak_mb"] for run in section["end_to_end"].values()] == [1.0, 1.0]


def test_traced_peak_is_recorded(bench_network):
    """The recorder's memory column: a positive traced peak per tier."""
    for tier in TIERS:
        assert traced_peak_mb(bench_network, _BENCH_CONFIG, tier) > 0


def test_tier_answers_identical(bench_network):
    assert_answers_identical(bench_network)


def test_kernel_sections_agree(bench_network):
    """The recorder's per-kernel section runs its equality asserts here too."""
    assert list(measure_kernels(bench_network)) == ["supports"]


def test_vector_tier_is_faster(tier_builds):
    """Speedup floor, asserted only at full benchmark scale.

    Same policy as ``bench_index_build``: a single timing pair on a shrunken
    CI smoke network is noise, so the recorded ratio lives in
    ``BENCH_vector.json`` via the best-of-N standalone recorder.
    """
    from benchmarks.bench_index_build import NUM_COMMUNITIES

    if NUM_COMMUNITIES < 14:
        pytest.skip(
            "speedup is only meaningful at full scale "
            f"(REPRO_BENCH_FASTCORE_COMMUNITIES={NUM_COMMUNITIES} < 14)"
        )
    stdlib, vector = tier_builds
    speedup = stdlib["total_seconds"] / max(vector["total_seconds"], 1e-9)
    assert speedup > SPEEDUP_FLOOR, f"vector tier only {speedup:.2f}x over stdlib"


# --------------------------------------------------------------------------- #
# standalone baseline recorder
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="keep the best of N runs")
    parser.add_argument(
        "--powerlaw-repeats", type=int, default=1,
        help="repeats for the (slow) power-law end-to-end build",
    )
    parser.add_argument("--out", default=None, help="write the JSON baseline here")
    args = parser.parse_args(argv)

    if not NUMPY_AVAILABLE:
        print("numpy unavailable: the vector tier cannot be benchmarked", file=sys.stderr)
        return 1

    bench_graph = build_bench_network()
    print(
        f"bench network: |V| = {bench_graph.num_vertices()}, "
        f"|E| = {bench_graph.num_edges()}"
    )
    best_bench: dict[str, dict] = {}
    for attempt in range(args.repeats):
        for tier in TIERS:
            measurement = measure_index_build(bench_graph, _BENCH_CONFIG, tier)
            if (
                tier not in best_bench
                or measurement["total_seconds"] < best_bench[tier]["total_seconds"]
            ):
                best_bench[tier] = measurement
            print(
                f"run {attempt + 1} {tier:7s}: precompute "
                f"{measurement['precompute_seconds']:.3f}s + tree "
                f"{measurement['tree_seconds']:.3f}s = {measurement['total_seconds']:.3f}s"
            )
    assert_precomputed_equal(
        best_bench["vector"]["_precomputed"], best_bench["stdlib"]["_precomputed"]
    )
    assert_answers_identical(bench_graph)
    print("equivalence gate: records and TopL/DTopL answers identical across tiers")
    bench_peaks = {
        tier: traced_peak_mb(bench_graph, _BENCH_CONFIG, tier) for tier in best_bench
    }
    print(f"traced build peaks (MB): {bench_peaks}")
    bench_speedup = (
        best_bench["stdlib"]["total_seconds"] / best_bench["vector"]["total_seconds"]
    )
    print(f"index-build speedup (vector vs stdlib): {bench_speedup:.2f}x")
    if bench_speedup <= SPEEDUP_FLOOR:
        print(f"WARNING: at or below the {SPEEDUP_FLOOR}x floor", file=sys.stderr)

    powerlaw_graph = build_powerlaw_network()
    print(
        f"power-law network: |V| = {powerlaw_graph.num_vertices()}, "
        f"|E| = {powerlaw_graph.num_edges()}"
    )
    kernels = measure_kernels(powerlaw_graph)
    for section, numbers in kernels.items():
        print(
            f"kernel {section:11s}: stdlib {numbers['stdlib_seconds']:.3f}s, "
            f"vector {numbers['vector_seconds']:.3f}s = {numbers['speedup']:.2f}x"
        )
    best_powerlaw: dict[str, dict] = {}
    for attempt in range(args.powerlaw_repeats):
        for tier in TIERS:
            measurement = measure_index_build(powerlaw_graph, _POWERLAW_CONFIG, tier)
            if (
                tier not in best_powerlaw
                or measurement["total_seconds"] < best_powerlaw[tier]["total_seconds"]
            ):
                best_powerlaw[tier] = measurement
            print(
                f"run {attempt + 1} {tier:7s}: power-law build "
                f"{measurement['total_seconds']:.3f}s"
            )
    assert_precomputed_equal(
        best_powerlaw["vector"]["_precomputed"], best_powerlaw["stdlib"]["_precomputed"]
    )
    print("equivalence gate: power-law records identical across tiers")
    powerlaw_peaks = {
        tier: traced_peak_mb(powerlaw_graph, _POWERLAW_CONFIG, tier) for tier in best_powerlaw
    }
    print(f"power-law traced build peaks (MB): {powerlaw_peaks}")

    report = {
        # equivalence=True: bit-identical records + identical answers asserted above.
        **bench_envelope(
            "vector_kernels",
            seed=GRAPH_SEED,
            speedup_factor=bench_speedup,
            equivalence=True,
        ),
        "numpy_version": NUMPY_VERSION,
        "networks": {
            "fastcore": _network_section(bench_graph, _BENCH_CONFIG, best_bench, bench_peaks),
            "powerlaw": {
                **_network_section(
                    powerlaw_graph, _POWERLAW_CONFIG, best_powerlaw, powerlaw_peaks
                ),
                "kernels": kernels,
            },
        },
        "repeats": args.repeats,
        "speedup_vector_vs_stdlib": round(bench_speedup, 3),
        "equivalence_gate": (
            "bit-identical records and TopL/DTopL answers asserted in-process"
        ),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
