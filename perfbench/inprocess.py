"""Closed-loop, in-process workloads: ``planted-query`` and ``sparse-churn``.

One client calls ``CommunityService.handle_json`` with wire documents and
sends the next request only after the previous answer is back.
"""

from __future__ import annotations

import gc
import random
import time

from perfbench import inputs
from perfbench.measure import median, probe_ms, required_samples
from perfbench.oracle import digest

#: Samples each request kind needs (p95 for reads, p90 for updates; see
#: ``measure.required_samples``).
MINIMUMS = {
    "topl": required_samples(95),
    "dtopl": required_samples(95),
    "update": required_samples(90),
}

#: Measured steps of either workload's script that give every kind its samples.
MINIMUM_STEPS = 100

#: A build takes a fraction of a second; the set-up time is the median of these.
SETUP_REPEATS = 5


class Exchange:
    """One request as sent, the digest of its answer, and its latency."""

    __slots__ = (
        "step", "kind", "endpoint", "payload", "answer", "ok", "offset", "latency", "measured"
    )

    def __init__(self, step, kind, endpoint, payload, answer, ok, offset, latency, measured):
        self.step = step
        self.kind = kind
        self.endpoint = endpoint
        self.payload = payload
        self.answer = answer
        self.ok = ok
        self.offset = offset
        self.latency = latency
        self.measured = measured


def build_payload(graph: dict, config: dict, session: str = "default") -> dict:
    return {
        "schema_version": inputs.SCHEMA_VERSION,
        "session": session,
        "graph": graph,
        "config": config,
        "replace": True,
    }


def timed_setups(service, payload: dict, repeats: int, tracer=None) -> tuple:
    """Build ``repeats`` times, probing the host after each build.

    Returns (median seconds, probe times, last build response).
    """
    durations = []
    probes = []
    document = None
    for _ in range(repeats):
        if tracer is not None:
            tracer.begin_request("setup")
        started = time.perf_counter()
        document, error = service.handle_json("build", payload)
        durations.append(time.perf_counter() - started)
        if error is not None:
            raise RuntimeError(f"build failed: {document}")
        probes.append(probe_ms())
    return median(durations), probes, document


def script_steps(seconds: float, steps_per_s: float) -> int:
    """Measured steps of a script that lasts ``seconds`` at the reference host speed.

    A run sends the whole script however fast the host is, so every run of
    a seed does the same work; a slow host makes the run longer instead.
    """
    return max(MINIMUM_STEPS, round(seconds * steps_per_s))


def closed_loop(service, steps, tracer=None) -> tuple:
    """Run ``steps`` (lists of ``(kind, endpoint, payload)``) one at a time.

    The first step fills caches and lazy state (the first update seeds the
    incremental truss state) and is not measured; every other step is.
    Returns the exchanges, the measured seconds (probes excluded) and the
    host-speed probe times, one after each measured step.
    """
    exchanges = []
    probes = []
    counts = dict.fromkeys(MINIMUMS, 0)
    started = None
    for index, step in enumerate(steps):
        measured = index > 0
        if measured and started is None:
            started = time.perf_counter()
        for kind, endpoint, payload in step:
            if tracer is not None:
                tracer.begin_request(kind if measured else "warmup")
            sent = time.perf_counter()
            response, error = service.handle_json(endpoint, payload)
            latency = time.perf_counter() - sent
            offset = sent - started if measured else 0.0
            exchanges.append(Exchange(
                index, kind, endpoint, payload, digest(response), error is None, offset, latency,
                measured,
            ))
            if measured:
                counts[kind] += 1
        if measured:
            probes.append(probe_ms())
    elapsed = time.perf_counter() - started - sum(probes) / 1000.0
    if any(counts[kind] < needed for kind, needed in MINIMUMS.items()):
        raise RuntimeError(f"the script is too short for its percentiles: {counts}")
    return exchanges, elapsed, probes


# --------------------------------------------------------------------------- #
# workload definitions
# --------------------------------------------------------------------------- #
def planted_query(seed: int, seconds: float) -> dict:
    """Distinct TopL/DTopL reads on a dense planted network, plus growth writes.

    Reads alternate TopL and DTopL (5 keywords, k=4, r=2, L=5).  Each step
    of four reads ends with two growth writes to a second session built
    from the same graph, so the read session's caches and epoch never
    change, and the writes' p90 rests on twice its minimum sample count.
    A step takes about 0.2 s at the reference host speed.
    """
    count = 1 + script_steps(seconds, 5.0)
    graph = inputs.planted_graph(
        seed, communities=14, size=50, p_in=0.3, p_out=0.0005, weights=(0.05, 0.3),
        name="planted-query",
    ).to_wire()
    rng = random.Random(f"planted-query:requests:{seed}")
    reads = inputs.distinct_queries(
        rng, ("topl", "dtopl"), 4 * count, num_keywords=5, k=4, radius=2, top_l=5
    )
    writes = inputs.growth_writes(rng, 2 * count, session="writes")
    steps = []
    for index in range(count):
        step = [
            (q["type"], q["type"], inputs.read_request(q)) for q in reads[4 * index:4 * index + 4]
        ]
        step += [("update", "update", write) for write in writes[2 * index:2 * index + 2]]
        steps.append(step)
    return {
        "graph": graph,
        "config": {"backend": "fast", "max_radius": 3},
        "sessions": ("default", "writes"),
        "steps": steps,
        "slo_ms": 75.0,
    }


def sparse_churn(seed: int, seconds: float) -> dict:
    """Localised edit batches on a sparse planted network, each followed by reads.

    A step is one 10-edit update within 2 hops of a seeded focus vertex,
    then TopL, DTopL, TopL, DTopL reads (2 keywords, k=3, r=2, L=5) on
    keywords of the changed region; it takes about 0.1 s at the reference
    host speed.  The overlay compacts every few dozen batches.
    """
    network = inputs.planted_graph(
        seed, communities=40, size=50, p_in=0.1, p_out=0.00005, weights=(0.05, 0.3),
        name="sparse-churn",
    )
    graph = network.to_wire()
    rng = random.Random(f"sparse-churn:script:{seed}")
    script = inputs.churn_script(
        rng, network, steps=1 + script_steps(seconds, 10.0),
        reads=("topl", "dtopl", "topl", "dtopl"), keywords_per_read=2,
        read_params={"k": 3, "radius": 2, "top_l": 5},
    )
    steps = [
        [("update", "update", step["update"])]
        + [(q["type"], q["type"], inputs.read_request(q)) for q in step["reads"]]
        for step in script
    ]
    return {
        "graph": graph,
        "config": {"backend": "fast", "max_radius": 2, "compact_dirt_ratio": 0.05},
        "sessions": ("default",),
        "steps": steps,
        "slo_ms": 50.0,
    }


WORKLOADS = {"planted-query": planted_query, "sparse-churn": sparse_churn}


def run(name: str, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, measure and return everything the report and the oracle need."""
    from repro.service import CommunityService

    spec = WORKLOADS[name](seed, seconds)
    fingerprint = inputs.fingerprint(spec["graph"], spec["steps"])
    # The inputs live as long as the run; keep them out of the collector's
    # scans so they do not add to the program's garbage-collection work.
    gc.collect()
    gc.freeze()
    service = CommunityService()
    setup_s, setup_probes, built = timed_setups(
        service, build_payload(spec["graph"], spec["config"]), SETUP_REPEATS, tracer
    )
    for session in spec["sessions"][1:]:
        if tracer is not None:
            tracer.begin_request("scaffold")
        document, error = service.handle_json(
            "build", build_payload(spec["graph"], spec["config"], session=session)
        )
        if error is not None:
            raise RuntimeError(f"build failed: {document}")
    exchanges, elapsed, probes = closed_loop(service, spec["steps"], tracer)
    return {
        "spec": spec,
        "service": service,
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "probes": probes,
        "engine": built["engine"],
        "exchanges": exchanges,
        "elapsed": elapsed,
        "fingerprint": fingerprint,
    }
