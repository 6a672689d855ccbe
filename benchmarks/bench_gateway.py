"""Gateway overhead: HTTP end-to-end vs in-process batch throughput.

The versioned HTTP gateway adds JSON (de)serialisation and a network round
trip on top of the in-process serving path.  This bench quantifies that tax
on a mixed TopL/DTopL batch:

* **in-process sequential** — ``CommunityService.batch`` with caches off,
  timed after one untimed warm-up batch; the baseline every other number
  is relative to.
* **HTTP buffered** — ``POST /v1/batch`` against a live gateway on
  localhost, answers parsed back from JSON and asserted bit-identical to
  the in-process results.
* **HTTP streaming** — ``POST /v1/batch?stream=1`` (NDJSON), result lines
  asserted identical to the buffered ones.

Each path runs the batch ``TIMED_BATCHES`` (5) times and reports the median.

Run as pytest (``pytest benchmarks/bench_gateway.py``) or standalone to
record a JSON baseline::

    python benchmarks/bench_gateway.py --out BENCH_gateway.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import urllib.request

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.graph.datasets import synthetic_small_world
from repro.serve.batch import ServingConfig
from repro.service.facade import CommunityService
from repro.service.agateway import AsyncServiceGateway
from repro.service.schema import BatchRequest, result_to_wire
from repro.workloads.queries import QueryWorkload
from repro.workloads.reporting import bench_envelope

#: Batch size of the gateway measurement.
BATCH_SIZE = int(os.environ.get("REPRO_BENCH_GATEWAY_BATCH", "24"))
#: Timed batches per path; each path reports the median of its batches.
TIMED_BATCHES = 5
#: Seed for the bench graph (the query workload is seeded separately, 97).
GRAPH_SEED = 41

_GATEWAY_CONFIG = EngineConfig(max_radius=2, thresholds=(0.1, 0.2, 0.3))
_SESSION = "bench"


def build_gateway_fixture(num_vertices: int, batch_size: int):
    """Service (caches off — every measurement executes) + gateway + batch."""
    graph = synthetic_small_world("uniform", num_vertices=num_vertices, rng=GRAPH_SEED)
    engine = InfluentialCommunityEngine.build(
        graph, config=_GATEWAY_CONFIG, validate=False
    )
    service = CommunityService(
        serving_config=ServingConfig(
            result_cache_capacity=0, propagation_cache_capacity=0
        )
    )
    service.adopt(engine, session=_SESSION)
    workload = QueryWorkload(graph, rng=97)
    num_dtopl = max(batch_size // 4, 1)
    queries = workload.topl_batch(batch_size - num_dtopl, num_keywords=5, k=4, top_l=5)
    queries += workload.dtopl_batch(num_dtopl, num_keywords=5, k=4, top_l=5)
    return graph, service, tuple(queries)


def post_json(url: str, document: dict) -> bytes:
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return response.read()


def strip_statistics(result_document: dict) -> dict:
    """Answers must match across paths; execution counters legitimately differ."""
    return {k: v for k, v in result_document.items() if k != "statistics"}


def _timed(run):
    """Call ``run()`` ``TIMED_BATCHES`` times: (median seconds, every result)."""
    timings, results = [], []
    for _ in range(TIMED_BATCHES):
        started = time.perf_counter()
        results.append(run())
        timings.append(time.perf_counter() - started)
    return statistics.median(timings), results


def _path_measurement(elapsed: float, num_queries: int) -> dict:
    return {
        "elapsed_seconds": round(elapsed, 4),
        "queries_per_second": round(num_queries / elapsed, 4) if elapsed else 0.0,
    }


def measure_paths(service: CommunityService, queries, batch_size=None) -> dict:
    """All three paths over the same batch, with cross-path equivalence gates.

    Each path runs the batch ``TIMED_BATCHES`` times and reports its median,
    so one slow batch (a collection, a neighbour's burst) does not move the
    HTTP overhead factor.
    """
    queries = queries if batch_size is None else queries[:batch_size]
    request = BatchRequest(session=_SESSION, queries=queries)
    document = request.to_json()
    measurements: dict = {
        "batch_size": len(queries),
        "batches_per_path": TIMED_BATCHES,
        "cpu_count": os.cpu_count(),
    }

    # One untimed batch first: a fresh session's first batch pays one-off
    # warm-up (the fast snapshot's workspace, first-touch allocations), which
    # would otherwise land in the baseline and make the HTTP factor read < 1.
    service.batch(request)
    elapsed, runs = _timed(lambda: service.batch(request))
    measurements["in_process_sequential"] = _path_measurement(elapsed, len(queries))
    sequential_wire = json.loads(
        json.dumps([strip_statistics(r) for r in runs[-1].results])
    )

    with AsyncServiceGateway(service, port=0) as gateway:
        url = gateway.url + "/v1/batch"
        elapsed, runs = _timed(lambda: json.loads(post_json(url, document)))
        measurements["http_buffered"] = _path_measurement(elapsed, len(queries))
        # Correctness gate #1: the HTTP answer is the in-process answer.
        for buffered in runs:
            assert [
                strip_statistics(r) for r in buffered["results"]
            ] == sequential_wire, "HTTP buffered answers differ from in-process"

        elapsed, runs = _timed(lambda: post_json(url + "?stream=1", document))
        measurements["http_streaming"] = _path_measurement(elapsed, len(queries))
        # Correctness gate #2: streamed lines carry the same answers.
        for raw in runs:
            lines = [json.loads(line) for line in raw.splitlines()]
            streamed = [
                strip_statistics(line["result"]) for line in lines if line["kind"] == "result"
            ]
            assert streamed == sequential_wire, "NDJSON streamed answers differ from in-process"
            assert lines[-1]["kind"] == "summary"

    http_qps = measurements["http_buffered"]["queries_per_second"]
    seq_qps = measurements["in_process_sequential"]["queries_per_second"]
    if http_qps:
        measurements["http_overhead_factor"] = round(seq_qps / http_qps, 4)
    return measurements


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def gateway_fixture():
    from benchmarks.conftest import BENCH_VERTICES

    return build_gateway_fixture(BENCH_VERTICES, BATCH_SIZE)


def test_http_roundtrip_identical_answers(gateway_fixture):
    """The two correctness gates, at a small batch (CI smoke)."""
    _, service, queries = gateway_fixture
    measurements = measure_paths(service, queries, batch_size=min(len(queries), 8))
    assert set(measurements) >= {
        "in_process_sequential",
        "http_buffered",
        "http_streaming",
    }


def test_gateway_throughput(benchmark, gateway_fixture):
    """Queries/sec of the buffered HTTP path (pytest-benchmark measurement)."""
    from benchmarks.conftest import BENCH_ROUNDS

    graph, service, queries = gateway_fixture
    request = BatchRequest(session=_SESSION, queries=queries).to_json()
    with AsyncServiceGateway(service, port=0) as gateway:
        url = gateway.url + "/v1/batch"
        body = benchmark.pedantic(
            post_json, args=(url, request), rounds=BENCH_ROUNDS, iterations=1
        )
    document = json.loads(body)
    benchmark.extra_info.update(
        {
            "|V(G)|": graph.num_vertices(),
            "batch_size": len(queries),
            "executed": document["statistics"]["executed"],
        }
    )
    assert len(document["results"]) == len(queries)


def test_wire_forms_are_json_stable(gateway_fixture):
    """result_to_wire documents survive a JSON text round trip unchanged."""
    _, service, queries = gateway_fixture
    result = service.answer_one(_SESSION, queries[0])
    document = result_to_wire(result)
    assert json.loads(json.dumps(document)) == document


# --------------------------------------------------------------------------- #
# standalone baseline recorder
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=400)
    parser.add_argument("--batch", type=int, default=BATCH_SIZE)
    parser.add_argument("--out", default=None, help="write the JSON baseline here")
    args = parser.parse_args(argv)

    graph, service, queries = build_gateway_fixture(args.vertices, args.batch)
    measurements = measure_paths(service, queries)
    report = {
        # The headline ratio here is the HTTP *overhead* factor (in-process
        # q/s over HTTP q/s); equivalence=True because measure_paths asserts
        # every path returns bit-identical answers.
        **bench_envelope(
            "gateway",
            seed=GRAPH_SEED,
            speedup_factor=measurements.get("http_overhead_factor", 0.0),
            equivalence=True,
        ),
        "dataset": graph.name,
        "num_vertices": graph.num_vertices(),
        "num_edges": graph.num_edges(),
        "measurements": measurements,
    }
    for path in ("in_process_sequential", "http_buffered", "http_streaming"):
        print(f"{path}: {measurements[path]['queries_per_second']:.2f} queries/sec")
    if "http_overhead_factor" in measurements:
        print(
            "HTTP overhead vs in-process sequential: "
            f"{measurements['http_overhead_factor']:.2f}x"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
