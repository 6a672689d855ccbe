"""Serving-layer throughput: queries/sec at worker counts {1, 2, 4}, cache on/off.

This bench establishes the first serving-throughput numbers in the repo's
trajectory.  It measures the :class:`repro.serve.batch.BatchQueryEngine` over
a mixed TopL/DTopL batch on the synthetic small-world dataset:

* **workers sweep** (cache off) — the honest parallel-scaling measurement;
  every query is executed.  Speedup tracks the machine's core count: on the
  multi-core CI runners workers=4 clears 2x over workers=1, on a single-core
  box the pool only adds overhead (the recorded JSON carries ``cpu_count`` so
  baselines stay comparable).
* **cache sweep** (workers=1) — a cold round followed by a warm round over
  the same batch; the warm round is served from the result cache.
* **backend comparison** — sequential cache-off serving on the reference
  and fast graph cores, answers asserted identical; the fast backend runs
  seed extraction and propagation on the CSR kernels and must serve at
  least :data:`FAST_SERVING_FLOOR` times the reference rate at full scale.
* **sharded sweep** — the same batch through
  :class:`repro.service.sharded.ShardedCommunityService` (2 worker
  processes), with answers asserted bit-identical to the unsharded facade;
  like the workers sweep, the speedup gate only runs on multi-core boxes
  while the equivalence gate always runs (inline mode).

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
#: Worker counts of the scaling sweep.
WORKER_COUNTS = (1, 2, 4)
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


def _measure(engine, queries, workers: int, cache: bool) -> dict:
    capacity = None if cache else 0
    serving = engine.serve(
        workers=workers,
        result_cache_capacity=capacity,
        propagation_cache_capacity=capacity,
    )
    rounds = []
    for _ in range(2 if cache else 1):
        batch = serving.run(queries)
        rounds.append(batch.statistics.as_dict())
    return {
        "workers": workers,
        "cache": cache,
        # Recorded per measurement, not just per file: parallel numbers are
        # meaningless without knowing how many cores the run actually had
        # (the first recorded baseline showed 0.83x at workers=4 — on a
        # 1-core box, which is expected, not a regression).
        "cpu_count": os.cpu_count(),
        "rounds": rounds,
        "caches": serving.cache_statistics(),
    }


def _batch_wire_answers(service, session: str, queries) -> list:
    """Answer-bearing wire form of one batch (work counters stripped)."""
    from repro.service.schema import BatchRequest

    response = service.batch(BatchRequest(session=session, queries=tuple(queries)))
    documents = json.loads(json.dumps(list(response.results)))
    for document in documents:
        document.pop("statistics", None)
        for key in ("elapsed_seconds", "elapsed_ms"):
            document.pop(key, None)
    return documents


def measure_sharded(graph, queries, num_shards: int = 2, mode: str = "process") -> dict:
    """The batch through the sharded facade, equivalence-gated.

    Both facades serve cache-off so every query fans out; the sharded
    answers must match the unsharded facade's bit-for-bit once the
    distributed work counters are stripped.
    """
    from repro.serve.batch import ServingConfig
    from repro.service.facade import CommunityService
    from repro.service.sharded import ShardedCommunityService

    cache_off = ServingConfig(result_cache_capacity=0, propagation_cache_capacity=0)
    plain = CommunityService(serving_config=cache_off)
    plain.adopt(build_backend_engine(graph, "reference"), session="bench")
    started = time.perf_counter()
    expected = _batch_wire_answers(plain, "bench", queries)
    unsharded_seconds = time.perf_counter() - started

    with ShardedCommunityService(
        num_shards=num_shards, mode=mode, serving_config=cache_off
    ) as sharded:
        sharded.adopt(build_backend_engine(graph, "reference"), session="bench")
        started = time.perf_counter()
        answers = _batch_wire_answers(sharded, "bench", queries)
        sharded_seconds = time.perf_counter() - started

    assert answers == expected, "sharded facade served different answers"
    return {
        "num_shards": num_shards,
        "mode": mode,
        "cpu_count": os.cpu_count(),
        "batch_size": len(queries),
        "equivalence": True,
        "unsharded_seconds": round(unsharded_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "speedup": round(unsharded_seconds / sharded_seconds, 3)
        if sharded_seconds > 0
        else 0.0,
    }


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serving_fixture():
    from benchmarks.conftest import BENCH_VERTICES

    return build_serving_fixture(BENCH_VERTICES, BATCH_SIZE)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_throughput_workers(benchmark, serving_fixture, workers):
    """Queries/sec of the uncached batch path at each worker count."""
    from benchmarks.conftest import BENCH_ROUNDS

    graph, engine, queries = serving_fixture
    serving = engine.serve(
        workers=workers, result_cache_capacity=0, propagation_cache_capacity=0
    )
    batch = benchmark.pedantic(
        serving.run, args=(queries,), rounds=BENCH_ROUNDS, iterations=1
    )
    benchmark.extra_info.update(
        {
            "|V(G)|": graph.num_vertices(),
            "batch_size": len(queries),
            "workers": workers,
            "mode": batch.statistics.mode,
            "queries_per_second": round(batch.statistics.queries_per_second, 2),
            "cpu_count": os.cpu_count(),
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


def test_parallel_speedup_on_multicore(serving_fixture):
    """workers=4 must beat workers=1 — but only where that can be true.

    On a 1-core box the pool adds pure overhead (the recorded 0.83x in
    ``BENCH_serving.json`` is exactly that), and a tiny batch cannot amortise
    pool start-up; both cases are *skipped*, not reported as regressions.
    The PR bench smoke uses batch 8, so this assertion executes in the
    nightly full-scale bench job (multi-core runner, batch 32) and in local
    full-scale runs.
    """
    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        pytest.skip(f"parallel speedup needs >= 2 cores (cpu_count={cpu_count})")
    _, engine, queries = serving_fixture
    if len(queries) < 16:
        pytest.skip(f"batch of {len(queries)} too small to amortise pool start-up")
    sequential = engine.serve(result_cache_capacity=0, propagation_cache_capacity=0)
    parallel = engine.serve(result_cache_capacity=0, propagation_cache_capacity=0)
    baseline = sequential.run(queries, workers=1)
    scaled = parallel.run(queries, workers=4)
    speedup = baseline.statistics.elapsed_seconds / scaled.statistics.elapsed_seconds
    assert speedup > 1.05, (
        f"workers=4 gave {speedup:.2f}x over workers=1 on {cpu_count} cores"
    )


def test_sharded_equivalence_smoke(serving_fixture):
    """Sharded answers must be bit-identical to unsharded (always runs).

    Inline mode keeps this on the merge code path without worker processes,
    so the gate holds on 1-core boxes and in the PR bench smoke alike.
    """
    graph, _, queries = serving_fixture
    measurement = measure_sharded(
        graph, queries[: min(len(queries), 8)], num_shards=3, mode="inline"
    )
    assert measurement["equivalence"]


def test_sharded_speedup_on_multicore(serving_fixture):
    """2 shard processes must beat the unsharded facade — where they can.

    The same skip discipline as ``test_parallel_speedup_on_multicore``: on a
    1-core box shard processes only add serialization overhead (recorded
    honestly in ``BENCH_serving.json``), and a tiny batch cannot amortise
    worker start-up; neither is a regression.
    """
    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        pytest.skip(f"sharded speedup needs >= 2 cores (cpu_count={cpu_count})")
    graph, _, queries = serving_fixture
    if len(queries) < 16:
        pytest.skip(f"batch of {len(queries)} too small to amortise worker start-up")
    measurement = measure_sharded(graph, queries, num_shards=2, mode="process")
    assert measurement["equivalence"]
    assert measurement["speedup"] > 1.0, (
        f"2 shards gave {measurement['speedup']:.2f}x over unsharded "
        f"on {cpu_count} cores"
    )


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


def test_parallel_results_identical_to_sequential(serving_fixture):
    """The correctness gate behind the throughput numbers (CI smoke)."""
    _, engine, queries = serving_fixture
    sequential = engine.serve(result_cache_capacity=0).run(queries)
    parallel = engine.serve(result_cache_capacity=0).run(queries, workers=4)
    fingerprints = [
        [(c.vertices, round(c.score, 9)) for c in result] for result in sequential
    ]
    assert [
        [(c.vertices, round(c.score, 9)) for c in result] for result in parallel
    ] == fingerprints


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
    measurements = []
    for workers in WORKER_COUNTS:
        measurement = _measure(engine, queries, workers=workers, cache=False)
        measurements.append(measurement)
        qps = measurement["rounds"][0]["queries_per_second"]
        print(f"workers={workers} cache=off: {qps:.2f} queries/sec")
    cached = _measure(engine, queries, workers=1, cache=True)
    measurements.append(cached)
    print(
        f"workers=1 cache=on: cold {cached['rounds'][0]['queries_per_second']:.2f} "
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

    baseline = measurements[0]["rounds"][0]["queries_per_second"]
    parallel = measurements[-2]["rounds"][0]["queries_per_second"]
    workers_speedup = round(parallel / baseline, 3) if baseline > 0 else 0.0
    print(f"workers=4 speedup over workers=1: {workers_speedup}x")

    sharded = measure_sharded(graph, queries, num_shards=2, mode="process")
    print(
        f"sharded (2 shard processes): {sharded['speedup']}x over unsharded "
        f"on {sharded['cpu_count']} core(s), answers identical"
    )

    report = {
        # equivalence=True: measure_backends asserted identical answers above.
        **bench_envelope(
            "serving_throughput",
            seed=GRAPH_SEED,
            speedup_factor=workers_speedup,
            equivalence=True,
        ),
        "dataset": graph.name,
        "num_vertices": graph.num_vertices(),
        "num_edges": graph.num_edges(),
        "batch_size": len(queries),
        "measurements": measurements,
        "backends": backends,
        "speedup_workers_4_vs_1": workers_speedup,
        "sharded": sharded,
        "speedup_sharded_2_vs_unsharded": sharded["speedup"],
    }

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
