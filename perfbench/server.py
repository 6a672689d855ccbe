"""Server child of the ``smallworld-http`` workload.

Opens a store-backed session, starts an ``AsyncServiceGateway`` over it and
prints one JSON line (port, set-up times, host-speed probe times taken after
each set-up, engine description).  It serves
until a line arrives on standard input, then writes its statistics (and,
when traced, its per-layer span totals) to ``--stats`` and exits.

Run as ``python3 -m perfbench.server --store FILE --stats FILE`` with the
repository root and ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Opening the store and starting the gateway takes milliseconds, so the
#: reported set-up time is the median of many repeats.
SETUP_REPEATS = 21


def _build(service, store: str, session: str) -> dict:
    document, error = service.handle_json(
        "build",
        {"schema_version": 1, "session": session, "store_path": store, "replace": True},
    )
    if error is not None:
        raise RuntimeError(f"store build failed: {document}")
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from perfbench import layers, tracing
    from perfbench.measure import probe_ms
    from repro.service import AsyncServiceGateway, CommunityService

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        layers.install(tracer, requests_from_endpoint=True)

    service = CommunityService()
    setups = []
    probes = []
    gateway = None
    built = None
    for _ in range(SETUP_REPEATS):
        if gateway is not None:
            gateway.shutdown()
        if tracer is not None:
            tracer.begin_request("setup")
        started = time.perf_counter()
        built = _build(service, args.store, "default")
        gateway = AsyncServiceGateway(service, port=0).start()
        setups.append(time.perf_counter() - started)
        probes.append(probe_ms())
    if tracer is not None:
        tracer.begin_request("scaffold")
    _build(service, args.store, "writes")

    try:
        print(
            json.dumps({
                "port": gateway.port, "setup_s": setups, "setup_probes": probes,
                "engine": built["engine"],
            }),
            flush=True,
        )
        sys.stdin.readline()
    finally:
        gateway.shutdown()

    statistics = {
        "gateway": gateway.statistics(),
        "cache": service.serving("default").cache_statistics(),
    }
    if tracer is not None:
        span_cost = tracing.span_cost_seconds(tracer)
        tracer.uninstall()
        spans = tracer.spans()
        totals = tracing.totals_by_kind(spans, tracer.request_kinds)
        statistics["trace"] = {
            "totals": [[name, kind, *values] for (name, kind), values in totals.items()],
            "counters": dict(tracer.counters),
            "request_kinds": tracer.request_kinds,
            "spans": len(spans),
            "span_cost_s": span_cost,
        }
        if args.spans:
            tracer.dump(args.spans)
    with open(args.stats, "w", encoding="utf-8") as handle:
        json.dump(statistics, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
