"""Serving-layer throughput: queries/sec of the batch path, cache on/off, per backend.

It measures the :class:`repro.serve.batch.BatchQueryEngine` over a mixed
TopL/DTopL batch on the synthetic small-world dataset:

* **sequential** (cache off) — every query is executed; the honest
  throughput number.
* **cache** — a cold round followed by a warm round over the same batch;
  the warm round is served from the result cache.
* **backend comparison** — sequential cache-off serving on the reference
  and fast graph cores, answers asserted identical; the fast backend runs
  seed extraction and propagation on the CSR kernels and must serve at
  least :data:`FAST_SERVING_FLOOR` times the reference rate at full scale.

Run as a pytest-benchmark module (``pytest benchmarks/bench_serving_throughput.py``)
or standalone to record a JSON baseline::

    python benchmarks/bench_serving_throughput.py --out BENCH_serving.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.graph.datasets import synthetic_small_world
from repro.workloads.queries import QueryWorkload
from repro.workloads.reporting import bench_envelope

#: Batch size of the throughput measurement (32 mixed queries by default).
BATCH_SIZE = int(os.environ.get("REPRO_BENCH_SERVING_BATCH", "32"))
#: Seed for the bench graph (the query workload is seeded separately, 97).
GRAPH_SEED = 41
#: Full-scale bench size (the recorder's defaults), independent of the
#: smoke-sizing environment variables.
FULL_SCALE_VERTICES = 400
FULL_SCALE_BATCH = 32
#: Minimum fast/reference queries-per-second ratio at full scale.
FAST_SERVING_FLOOR = 1.5

_SERVING_CONFIG = EngineConfig(max_radius=2, thresholds=(0.1, 0.2, 0.3))


def build_serving_batch(num_vertices: int, batch_size: int):
    """The bench graph and its mixed TopL/DTopL query batch."""
    graph = synthetic_small_world("uniform", num_vertices=num_vertices, rng=GRAPH_SEED)
    workload = QueryWorkload(graph, rng=97)
    num_dtopl = max(batch_size // 4, 1)
    queries = workload.topl_batch(batch_size - num_dtopl, num_keywords=5, k=4, top_l=5)
    queries += workload.dtopl_batch(num_dtopl, num_keywords=5, k=4, top_l=5)
    return graph, queries


def build_serving_fixture(num_vertices: int, batch_size: int):
    """Graph + engine + mixed query batch shared by every measurement."""
    graph, queries = build_serving_batch(num_vertices, batch_size)
    engine = InfluentialCommunityEngine.build(
        graph, config=_SERVING_CONFIG, validate=False
    )
    return graph, engine, queries


def build_backend_engine(graph, backend: str):
    """Build the serving engine on a specific graph-core backend."""
    config = EngineConfig(
        max_radius=_SERVING_CONFIG.max_radius,
        thresholds=_SERVING_CONFIG.thresholds,
        backend=backend,
    )
    return InfluentialCommunityEngine.build(graph, config=config, validate=False)


def measure_backends(graph, queries) -> dict:
    """Sequential cache-off serving on each graph-core backend.

    Records offline build seconds and batch queries/sec per backend, and
    asserts the answers are identical — the backend switch is a pure
    performance knob, never a semantics knob.
    """
    measurements = {}
    fingerprints = {}
    for backend in ("reference", "fast"):
        started = time.perf_counter()
        engine = build_backend_engine(graph, backend)
        build_seconds = time.perf_counter() - started
        serving = engine.serve(result_cache_capacity=0, propagation_cache_capacity=0)
        batch = serving.run(queries)
        measurements[backend] = {
            "offline_build_seconds": round(build_seconds, 4),
            "queries_per_second": round(batch.statistics.queries_per_second, 4),
            "elapsed_seconds": round(batch.statistics.elapsed_seconds, 4),
        }
        fingerprints[backend] = [
            [(c.vertices, c.score) for c in result] for result in batch
        ]
    assert fingerprints["fast"] == fingerprints["reference"], (
        "fast backend served different answers than reference"
    )
    reference_build = measurements["reference"]["offline_build_seconds"]
    fast_build = measurements["fast"]["offline_build_seconds"]
    if fast_build > 0:
        measurements["offline_build_speedup"] = round(reference_build / fast_build, 3)
    measurements["serving_speedup"] = round(
        measurements["fast"]["queries_per_second"]
        / measurements["reference"]["queries_per_second"],
        3,
    )
    return measurements


def _measure(engine, queries, cache: bool) -> dict:
    capacity = None if cache else 0
    serving = engine.serve(
        result_cache_capacity=capacity,
        propagation_cache_capacity=capacity,
    )
    rounds = []
    for _ in range(2 if cache else 1):
        batch = serving.run(queries)
        rounds.append(batch.statistics.as_dict())
    return {
        "cache": cache,
        "rounds": rounds,
        "caches": serving.cache_statistics(),
    }


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serving_fixture():
    from benchmarks.conftest import BENCH_VERTICES

    return build_serving_fixture(BENCH_VERTICES, BATCH_SIZE)


def test_throughput_sequential(benchmark, serving_fixture):
    """Queries/sec of the uncached batch path."""
    from benchmarks.conftest import BENCH_ROUNDS

    graph, engine, queries = serving_fixture
    serving = engine.serve(result_cache_capacity=0, propagation_cache_capacity=0)
    batch = benchmark.pedantic(
        serving.run, args=(queries,), rounds=BENCH_ROUNDS, iterations=1
    )
    benchmark.extra_info.update(
        {
            "|V(G)|": graph.num_vertices(),
            "batch_size": len(queries),
            "queries_per_second": round(batch.statistics.queries_per_second, 2),
        }
    )
    assert len(batch) == len(queries)
    assert batch.statistics.executed == len(queries)


def test_throughput_cache_warm_vs_cold(benchmark, serving_fixture):
    """Warm rounds answered from the result cache vs cold execution."""
    from benchmarks.conftest import BENCH_ROUNDS

    graph, engine, queries = serving_fixture
    serving = engine.serve()
    cold = serving.run(queries)

    warm = benchmark.pedantic(
        serving.run, args=(queries,), rounds=BENCH_ROUNDS, iterations=1
    )
    benchmark.extra_info.update(
        {
            "|V(G)|": graph.num_vertices(),
            "batch_size": len(queries),
            "cold_qps": round(cold.statistics.queries_per_second, 2),
            "warm_qps": round(warm.statistics.queries_per_second, 2),
        }
    )
    assert warm.statistics.result_cache_hits == len(queries)
    assert warm.statistics.executed == 0
    # The warm round skips the online algorithm entirely, so it must beat the
    # cold round by a wide margin even on loaded machines.
    assert warm.statistics.elapsed_seconds < cold.statistics.elapsed_seconds


def test_backend_serving_identical_answers(serving_fixture):
    """Both graph-core backends must serve identical batches (CI smoke)."""
    graph, _, queries = serving_fixture
    measurements = measure_backends(graph, queries[: min(len(queries), 8)])
    assert set(measurements) >= {"reference", "fast"}


def test_fast_backend_serving_speedup_full_scale():
    """The fast backend must serve >= FAST_SERVING_FLOOR x the reference rate.

    Always at full scale (400 vertices, batch 32), whatever the smoke-sizing
    environment says, and never skipped: both backends run sequentially on
    one core, so the ratio holds on any box.
    """
    graph, queries = build_serving_batch(FULL_SCALE_VERTICES, FULL_SCALE_BATCH)
    measurements = measure_backends(graph, queries)
    assert measurements["serving_speedup"] >= FAST_SERVING_FLOOR, (
        f"fast backend served {measurements['fast']['queries_per_second']:.1f} q/s vs "
        f"reference {measurements['reference']['queries_per_second']:.1f} q/s "
        f"({measurements['serving_speedup']}x < {FAST_SERVING_FLOOR}x)"
    )


# --------------------------------------------------------------------------- #
# standalone baseline recorder
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=FULL_SCALE_VERTICES)
    parser.add_argument("--batch", type=int, default=BATCH_SIZE)
    parser.add_argument("--out", default=None, help="write the JSON baseline here")
    args = parser.parse_args(argv)

    graph, engine, queries = build_serving_fixture(args.vertices, args.batch)
    uncached = _measure(engine, queries, cache=False)
    print(
        f"cache=off: {uncached['rounds'][0]['queries_per_second']:.2f} queries/sec"
    )
    cached = _measure(engine, queries, cache=True)
    print(
        f"cache=on: cold {cached['rounds'][0]['queries_per_second']:.2f} "
        f"-> warm {cached['rounds'][1]['queries_per_second']:.2f} queries/sec"
    )

    backends = measure_backends(graph, queries)
    print(
        "backend comparison (sequential, cache off): "
        f"reference {backends['reference']['queries_per_second']:.2f} q/s "
        f"(build {backends['reference']['offline_build_seconds']:.2f}s) vs "
        f"fast {backends['fast']['queries_per_second']:.2f} q/s "
        f"(build {backends['fast']['offline_build_seconds']:.2f}s, "
        f"{backends.get('offline_build_speedup', '?')}x build speedup, "
        f"{backends['serving_speedup']}x serving speedup)"
    )

    report = {
        # equivalence=True: measure_backends asserted identical answers above.
        **bench_envelope(
            "serving_throughput",
            seed=GRAPH_SEED,
            speedup_factor=backends["serving_speedup"],
            equivalence=True,
        ),
        "dataset": graph.name,
        "num_vertices": graph.num_vertices(),
        "num_edges": graph.num_edges(),
        "batch_size": len(queries),
        "measurements": [uncached, cached],
        "backends": backends,
    }

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
