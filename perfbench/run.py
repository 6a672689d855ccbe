"""Run one benchmark workload and print its metrics as the last line of output.

Usage, from the repository root::

    python3 perfbench/run.py --workload planted-query --seed 1 --seconds 20 --trace 0

Workloads:

* ``planted-query`` — distinct TopL/DTopL reads on a dense planted network
  (online compute path), closed loop, in-process ``handle_json``.
* ``smallworld-http`` — Zipf-skewed repeated reads over HTTP against a
  store-backed ``AsyncServiceGateway`` child, open loop, Poisson arrivals.
* ``sparse-churn`` — localised edit batches, each followed by reads, on a
  sparse planted network, closed loop, in-process.

A closed loop sends a fixed script sized to last ``--seconds`` at the
reference host speed (so every run of a seed does the same work); the open
loop sends ``--seconds`` of arrivals.

Timings are scaled to a reference host speed: the run times a fixed probe
(``measure.probe_ms``) between requests and multiplies every latency and
the set-up time by the probe's reference time over its median, and divides
a closed loop's throughput by the same factor.  The probe runs no program
code, so the factor follows the shared host's drift, never the program;
the result file keeps the raw metrics and the factors beside the scaled ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public functions in spans and prints the per-layer metrics
instead (plus a per-layer table on standard error).  Every update and the
reads of every fourth step are replayed on the reference backend (every
answer, for the HTTP workload); a mismatch exits with status 1 and prints
no metrics.  A load generator that fell behind its schedule exits with
status 3.  The run starts no process other than the HTTP workload's server
child, which it stops and waits for on every way out, ``SIGTERM`` included.
Provenance, the full result and every latency sample go to
``.perfbench/result-<workload>-<seed>-trace<n>.json``; the traced run also
writes its spans beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("planted-query", "smallworld-http", "sparse-churn")

#: Request kinds; every workload sends all three.
KINDS = ("topl", "dtopl", "update")

E2E_UNITS = {
    "setup_s": "s",
    "topl_p50_ms": "ms",
    "topl_p95_ms": "ms",
    "dtopl_p50_ms": "ms",
    "dtopl_p95_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "ops_per_s": "1/s",
    "slo_met_frac": "frac",
    "peak_rss_mb": "MB",
}

EXIT_MISMATCH = 1
EXIT_NO_PROGRAM = 2
EXIT_INVALID = 3


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def provenance(workload: str, seed: int, engine: dict, fingerprint: str, **extra) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "backend": engine.get("backend"),
        "kernels": engine.get("kernels", {}).get("active"),
        "fingerprint": fingerprint,
        **extra,
    }


def _latency_metrics(
    samples: list, waited: list, failures: int, slo_ms: float, setup_s: float,
    ops_per_s: float, rss: float, scale: float = 1.0, setup_scale: float = 1.0,
    ops_scale: float = 1.0,
) -> dict:
    """End-to-end metrics of a run.

    ``samples`` are ``(offset_s, kind, latency_ms)`` of answered requests and
    ``waited`` the latencies the SLO share counts (each failure is a miss).
    Latencies are multiplied by ``scale``, the set-up time by ``setup_scale``,
    and the throughput divided by ``ops_scale``; with all three 1 the metrics
    are the raw measurements.
    """
    from perfbench.measure import percentile, slo_met_fraction

    latencies = {
        kind: [latency * scale for _, k, latency in samples if k == kind] for kind in KINDS
    }
    return {
        "setup_s": setup_s * setup_scale,
        "topl_p50_ms": percentile(latencies["topl"], 50),
        "topl_p95_ms": percentile(latencies["topl"], 95),
        "dtopl_p50_ms": percentile(latencies["dtopl"], 50),
        "dtopl_p95_ms": percentile(latencies["dtopl"], 95),
        "update_p50_ms": percentile(latencies["update"], 50),
        "update_p90_ms": percentile(latencies["update"], 90),
        "ops_per_s": ops_per_s / ops_scale,
        "slo_met_frac": slo_met_fraction(
            [latency * scale for latency in waited], failures, slo_ms
        ),
        "peak_rss_mb": rss,
    }


def _scaled_metrics(probes: list, setup_probes: list, *args, closed_loop: bool) -> tuple:
    """(metrics scaled to the reference host speed, raw metrics, scale factors).

    A closed loop's throughput follows the host's speed; an open loop's is
    its arrival rate, so it is left as measured.
    """
    from perfbench.measure import host_scale

    scale, setup_scale = host_scale(probes), host_scale(setup_probes)
    scaled = _latency_metrics(
        *args, scale=scale, setup_scale=setup_scale, ops_scale=scale if closed_loop else 1.0
    )
    factors = {"scale": scale, "setup_scale": setup_scale, "probes": len(probes)}
    return scaled, _latency_metrics(*args), factors


def _trace_overhead(
    totals: dict, spans: int, span_cost_s: float, seconds: float, topl_p50_ms: float
) -> dict:
    """Tracing overhead: spans recorded, the measured cost of one, and their share of the run.

    ``trace.topl_p50_ms`` minus the untraced run's ``topl_p50_ms`` is the
    overhead as a user would see it.
    """
    measured = sum(calls for (_, kind), (_, _, calls) in totals.items() if kind in KINDS)
    return {
        "trace.spans": float(spans),
        "trace.span_cost_us": span_cost_s * 1e6,
        "trace.overhead_frac": measured * span_cost_s / seconds,
        "trace.topl_p50_ms": topl_p50_ms,
    }


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def run_inprocess(args, scratch: Path, tracer) -> tuple:
    from perfbench import inprocess, layers, oracle, tracing

    if tracer is not None:
        layers.install(tracer)
    result = inprocess.run(args.workload, args.seed, args.seconds, tracer)
    spec, exchanges = result["spec"], result["exchanges"]
    measured = [e for e in exchanges if e.measured]
    samples = [(e.offset, e.kind, e.latency * 1000.0) for e in measured if e.ok]
    failed = sum(not e.ok for e in exchanges)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, raw, factors = _scaled_metrics(
        result["probes"],
        result["setup_probes"],
        samples,
        [latency for _, _, latency in samples],
        sum(not e.ok for e in measured),
        spec["slo_ms"],
        result["setup_s"],
        len(measured) / result["elapsed"],
        rss,
        closed_loop=True,
    )
    cache = result["service"].serving("default").cache_statistics()

    per_layer = None
    if tracer is not None:
        span_cost = tracing.span_cost_seconds(tracer)
        tracer.uninstall()
        spans = tracer.spans()
        totals = tracing.totals_by_kind(spans, tracer.request_kinds)
        per_layer = layers.per_layer_metrics(
            totals,
            tracer.counters,
            tracer.request_kinds,
            {
                "result_hit_rate": cache["result_cache"]["hit_rate"],
                "propagation_hit_rate": cache["propagation_cache"]["hit_rate"],
            },
        )
        per_layer.update(_trace_overhead(
            totals, len(spans), span_cost, result["elapsed"], metrics["topl_p50_ms"]
        ))
        tracer.dump(scratch / f"spans-{args.workload}-{args.seed}.json.gz")

    # Sessions are independent on the program's side; the reference hosts
    # one engine under every session name, so it replays session by session.
    # It applies every update and answers the reads of every fourth step, at
    # the epochs they were sent at.
    ordered = [
        e for session in spec["sessions"] for e in exchanges if e.payload["session"] == session
    ]
    checked = oracle.replay(
        spec["graph"], spec["config"], spec["sessions"],
        [(e.endpoint, e.payload, e.answer)
         for e in ordered if e.kind == "update" or e.step % 4 == 0],
    )
    details = {
        "provenance": provenance(args.workload, args.seed, result["engine"], result["fingerprint"]),
        "samples": {kind: sum(k == kind for _, k, _ in samples) for kind in KINDS},
        "checked": checked,
        "cache": cache,
        "latencies": samples,
        "raw_metrics": raw,
        "host": factors,
    }
    return len(exchanges), failed, metrics, per_layer, details


def run_http(args, scratch: Path, tracer) -> tuple:
    from perfbench import httpload, layers, oracle
    from perfbench.measure import check_lateness, median

    result = httpload.run(args.seed, args.seconds, ROOT, scratch, tracer is not None)
    spec, records = result["spec"], result["records"]
    first_due = min(record[0] for record in records)
    last_done = max(record[3] for record in records)
    # Percentiles time a request from when it went out on its connection, so
    # a stall of the shared host delays the requests in flight, not every
    # request queued behind it; the SLO share times from the intended send
    # time, so queueing still counts against it.
    samples = []
    waited = []
    lateness = []
    failed = 0
    exchanges = []
    for (kind, _, payload), record in zip(spec["arrivals"], records):
        due, dispatched, sent, done, status, body = record
        lateness.append((dispatched - due) * 1000.0)
        if status != 200:
            failed += 1
            continue
        samples.append((due - first_due, kind, (done - sent) * 1000.0))
        waited.append((done - due) * 1000.0)
        exchanges.append((kind, payload, json.loads(body)))
    late_p95 = check_lateness(lateness, httpload.LATENESS_BOUND_MS)
    metrics, raw, factors = _scaled_metrics(
        result["probes"],
        result["setup_probes"],
        samples,
        waited,
        failed,
        httpload.SLO_MS,
        median(result["setup"]),
        len(samples) / (last_done - first_due),
        result["peak_rss_mb"],
        closed_loop=False,
    )
    server = result["server"]
    gateway = server["gateway"]
    cache = server["cache"]

    per_layer = None
    if tracer is not None:
        trace = server["trace"]
        totals = {(name, kind): values for name, kind, *values in trace["totals"]}
        handled = [totals.get(("service.handle", kind), [0.0, 0.0, 0]) for kind in KINDS]
        handle_s = sum(entry[1] for entry in handled) / max(sum(entry[2] for entry in handled), 1)
        requests = max(gateway["requests"], 1)
        per_layer = layers.per_layer_metrics(
            totals,
            trace["counters"],
            trace["request_kinds"],
            {
                "gateway_overhead_ms": (
                    sum(latency for _, _, latency in samples) / len(samples) - handle_s * 1000.0
                ),
                "coalesced_frac": gateway["coalesced"] / requests,
                "rejected_frac": gateway["rejected"] / requests,
                "result_hit_rate": cache["result_cache"]["hit_rate"],
                "propagation_hit_rate": cache["propagation_cache"]["hit_rate"],
                "late_p95_ms": late_p95,
            },
        )
        per_layer.update(_trace_overhead(
            totals, trace["spans"], trace["span_cost_s"], last_done - first_due,
            metrics["topl_p50_ms"],
        ))

    reads = [(kind, payload, answer) for kind, payload, answer in exchanges if kind != "update"]
    writes = sorted(
        (exchange for exchange in exchanges if exchange[0] == "update"),
        key=lambda exchange: exchange[2]["epoch"],
    )
    checked = oracle.replay(
        spec["graph"],
        httpload.CONFIG,
        ("default", "writes"),
        [(kind, payload, oracle.digest(answer)) for kind, payload, answer in reads + writes],
    )
    details = {
        "provenance": provenance(
            args.workload, args.seed, result["engine"], result["fingerprint"],
            connections=result["connections"], rate_per_s=httpload.RATE_PER_S,
        ),
        "samples": {kind: sum(k == kind for _, k, _ in samples) for kind in KINDS},
        "checked": checked,
        "cache": cache,
        "latencies": samples,
        "raw_metrics": raw,
        "host": factors,
        "gateway": gateway,
        "late_p95_ms": late_p95,
        "repeat_share": _repeat_share(spec),
    }
    return len(records), failed, metrics, per_layer, details


def _repeat_share(spec) -> float:
    from perfbench import inputs

    reads = [(kind, slot) for kind, slot, _ in spec["arrivals"] if kind != "update"]
    return inputs.repeat_share(reads)


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM, so the ``finally`` blocks stop the server child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return EXIT_NO_PROGRAM
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import layers, oracle, tracing
    from perfbench.measure import RunInvalid

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    runner = run_http if args.workload == "smallworld-http" else run_inprocess
    try:
        attempted, failed, metrics, per_layer, details = runner(args, scratch, tracer)
    except oracle.Mismatch as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_MISMATCH
    except RunInvalid as error:
        print(f"error: run invalid: {error}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if tracer is not None:
            tracer.uninstall()

    if per_layer is None:
        shown = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}
    else:
        shown = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit, *_ in layers.LAYER_METRICS
        }
        print(layers.format_table(per_layer), file=sys.stderr)
    details.update(
        {"trace": args.trace, "seconds": args.seconds, "metrics": metrics, "per_layer": per_layer}
    )
    result_path = scratch / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as handle:
        json.dump(details, handle, indent=2)
    print(json.dumps({"provenance": details["provenance"], "samples": details["samples"]}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
