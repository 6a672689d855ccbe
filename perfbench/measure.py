"""Latency summaries: percentiles under a sample-count rule, SLO share, lateness,
and the host-speed probe that scales timings to a reference host speed."""

from __future__ import annotations

import math
import random
import time

try:
    import numpy
except ImportError:  # the program then runs its stdlib kernels only
    numpy = None

#: The probe walks a fixed random graph (3000 vertices, 8 out-arcs each) and,
#: with numpy, runs array operations over fixed arrays of 12000 entries.
_PROBE_RNG = random.Random("perfbench:probe")
_PROBE_ARCS = [[_PROBE_RNG.randrange(3000) for _ in range(8)] for _ in range(3000)]
_PROBE_WEIGHTS = [_PROBE_RNG.random() for _ in range(12000)]
_PROBE_KEYS = [_PROBE_RNG.randrange(4000) for _ in range(12000)]
if numpy is not None:
    _PROBE_ARRAYS = (numpy.array(_PROBE_KEYS), numpy.array(_PROBE_WEIGHTS))
    _PROBE_SORTED = numpy.sort(_PROBE_ARRAYS[0][:4000])

#: The probe's time on the reference host speed; timings are scaled to it.
PROBE_REFERENCE_MS = 3.0 if numpy is None else 6.0


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


class RunInvalid(RuntimeError):
    """The run cannot be trusted (e.g. the load generator fell behind)."""


def required_samples(q: float) -> int:
    """Samples a run needs before its ``q``-th percentile may be reported.

    The rule keeps at least ten samples beyond the percentile: a p95 needs
    200 samples, a p90 needs 100 and a median 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(10.0 / (1.0 - q / 100.0) - 1e-9)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; raises when the sample rule fails."""
    ordered = sorted(values)
    needed = required_samples(q)
    if len(ordered) < needed:
        raise InsufficientSamples(
            f"p{q:g} needs {needed} samples, got {len(ordered)}"
        )
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values) -> float:
    """Plain median (no sample rule): for set-up repeats and similar."""
    ordered = sorted(values)
    if not ordered:
        raise InsufficientSamples("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def slo_met_fraction(latencies, failures: int, limit: float) -> float:
    """Share of attempted requests answered within ``limit``.

    ``latencies`` holds the answered requests only; every failure counts as
    a miss, so a run cannot meet its objective by dropping requests.
    """
    attempted = len(latencies) + failures
    if attempted == 0:
        raise InsufficientSamples("no requests attempted")
    return sum(1 for latency in latencies if latency <= limit) / attempted


def probe_ms() -> float:
    """Time one fixed piece of work of the program's kinds, in milliseconds.

    A breadth-first walk with max-product path weights over dicts and
    lists, then a sort: the interpreter work of the stdlib kernels.  With
    numpy, also the array operations of the vectorised kernels (dedup,
    sorted lookup, scatter-add, argsort, gather), which slow down about
    half as much as interpreted code when the host does.  Its code never
    changes, so its time follows only the host's speed.
    """
    started = time.perf_counter()
    reached = {0: 1.0}
    frontier = [0]
    while frontier:
        following = []
        for u in frontier:
            weight = reached[u]
            for v in _PROBE_ARCS[u]:
                if v not in reached:
                    reached[v] = weight * _PROBE_WEIGHTS[v]
                    following.append(v)
        frontier = following
    sorted(reached.items(), key=lambda item: -item[1])
    if numpy is not None:
        keys, weights = _PROBE_ARRAYS
        numpy.unique(keys)
        numpy.searchsorted(_PROBE_SORTED, keys)
        totals = numpy.bincount(keys, weights=weights, minlength=4000)
        order = numpy.argsort(totals, kind="stable")
        numpy.cumsum(weights[order[keys]])
    return (time.perf_counter() - started) * 1000.0



def host_scale(probes) -> float:
    """Factor that turns times measured beside ``probes`` into reference-host times.

    The shared host's speed drifts by tens of percent over a minute; the
    probe slows with it, so a time times this factor is steadier across
    runs than the raw time (which the result file keeps as well).
    """
    return PROBE_REFERENCE_MS / median(probes)


def check_lateness(lateness_ms, bound_ms: float) -> float:
    """The generator's p95 lateness; raise :class:`RunInvalid` past ``bound_ms``.

    An open-loop generator that sends late hides queueing, so a late run is
    invalid rather than fast.
    """
    late_p95 = percentile(lateness_ms, 95)
    if late_p95 > bound_ms:
        raise RunInvalid(
            f"load generator p95 lateness {late_p95:.2f} ms exceeds {bound_ms} ms"
        )
    return late_p95
