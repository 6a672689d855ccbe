"""Dynamic updates: incremental ``apply_updates`` vs full offline rebuild.

The dynamic-workload scenario: a community-structured social network (~5k
edges) receives a 1% edit batch of localized churn — insertions and deletions
concentrated around one active community, the shape real update streams have
— and the engine patches trussness, pre-computed records and the tree index
incrementally.  The measurement compares that against re-running the offline
phase (Algorithm 2 + index build) on the mutated graph, which is what the
build-once engine had to do before ``repro.dynamic`` existed.

A second, *scattered* batch (edits spread uniformly over the whole graph)
taints most centre vertices, so the engine's damage threshold correctly
falls back to the rebuild path — that measurement is recorded too, because
the fallback is part of the contract, not a failure.

Run as a pytest module (``pytest benchmarks/bench_dynamic_updates.py``) or
standalone to record a JSON baseline::

    python benchmarks/bench_dynamic_updates.py --out BENCH_dynamic.json
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
from repro.dynamic.updates import random_update_batch
from repro.graph.generators import planted_community_graph
from repro.graph.keyword_assignment import assign_keywords
from repro.workloads.queries import QueryWorkload
from repro.workloads.reporting import bench_envelope

#: Communities in the planted graph (scaled down under REPRO_BENCH_DYNAMIC_COMMUNITIES).
NUM_COMMUNITIES = int(os.environ.get("REPRO_BENCH_DYNAMIC_COMMUNITIES", "40"))
#: Vertices per community.
COMMUNITY_SIZE = int(os.environ.get("REPRO_BENCH_DYNAMIC_COMMUNITY_SIZE", "50"))
#: Edit-batch size as a fraction of the edge count (the paper-scale scenario
#: uses 1%).
EDIT_FRACTION = 0.01
#: Seed for the planted graph, its keywords and the edit batches.
GRAPH_SEED = 13
#: Timings per side of the at-scale speedup gate; each side keeps its best.
SPEEDUP_REPEATS = 5

_DYNAMIC_CONFIG = EngineConfig(max_radius=2, thresholds=(0.1, 0.2, 0.3))


def build_dynamic_fixture(
    num_communities: int = NUM_COMMUNITIES,
    community_size: int = COMMUNITY_SIZE,
    rng: int = GRAPH_SEED,
):
    """Planted-community graph (~5k edges at default scale) + built engine.

    Intra/inter probabilities are tuned so 40 communities of 50 vertices give
    ~4900 intra + ~100 bridge edges; the sparse bridges are what keeps an
    edit's influence footprint local.
    """
    graph = planted_community_graph(
        [community_size] * num_communities,
        intra_probability=0.1,
        inter_probability=0.00005,
        rng=rng,
        name=f"planted-{num_communities}x{community_size}",
    )
    assign_keywords(graph, keywords_per_vertex=3, domain_size=50, rng=rng)
    engine = InfluentialCommunityEngine.build(
        graph, config=_DYNAMIC_CONFIG, validate=False
    )
    return graph, engine


def localized_batch(graph, size: int, rng: int = 41):
    """A 1%-scale batch of churn concentrated around one community."""
    focus = next(iter(graph.vertices()))
    return random_update_batch(
        graph,
        size,
        rng=rng,
        insert_ratio=0.5,
        focus=focus,
        focus_radius=2,
        grow_probability=0.05,
        keyword_pool=tuple(sorted(graph.keyword_domain()))[:12],
    )


def scattered_batch(graph, size: int, rng: int = 43):
    """The same edit volume spread uniformly over the whole graph."""
    return random_update_batch(graph, size, rng=rng, insert_ratio=0.5)


def _fingerprint(result):
    return tuple((c.vertices, round(c.score, 9)) for c in result)


def _measure_incremental_vs_rebuild(graph, engine, batch) -> dict:
    """Apply ``batch`` incrementally, then time a rebuild on the result."""
    started = time.perf_counter()
    report = engine.apply_updates(batch, damage_threshold=1.0)
    incremental_seconds = time.perf_counter() - started

    started = time.perf_counter()
    rebuilt = InfluentialCommunityEngine.build(
        graph, config=_DYNAMIC_CONFIG, validate=False
    )
    rebuild_seconds = time.perf_counter() - started
    return {
        "report": report.as_dict(),
        "incremental_seconds": round(incremental_seconds, 4),
        "rebuild_seconds": round(rebuild_seconds, 4),
        "speedup": round(rebuild_seconds / incremental_seconds, 3)
        if incremental_seconds > 0
        else None,
        "rebuilt_engine": rebuilt,
    }


def _best_incremental_vs_rebuild(graph, batch, repeats: int = SPEEDUP_REPEATS) -> dict:
    """Best of ``repeats`` timings per side, each on a fresh engine and graph copy.

    Every repetition builds an engine (untimed) over its own copy of
    ``graph``, times ``batch`` applied to it and then a rebuild over the
    mutated copy.  One run of either side on a shared host can be slowed
    several-fold by its neighbours, so the ratio is taken between the two
    fastest timings.
    """
    incremental, rebuild, modes = [], [], set()
    for _ in range(repeats):
        working = graph.copy()
        engine = InfluentialCommunityEngine.build(
            working, config=_DYNAMIC_CONFIG, validate=False
        )
        measurement = _measure_incremental_vs_rebuild(working, engine, batch)
        modes.add(measurement["report"]["mode"])
        incremental.append(measurement["incremental_seconds"])
        rebuild.append(measurement["rebuild_seconds"])
    return {
        "modes": sorted(modes),
        "incremental_seconds": incremental,
        "rebuild_seconds": rebuild,
        "speedup": round(min(rebuild) / min(incremental), 3),
    }


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dynamic_fixture():
    scale = max(NUM_COMMUNITIES, 4)
    return build_dynamic_fixture(num_communities=scale)


def test_incremental_matches_rebuild_answers(dynamic_fixture):
    """The correctness gate: patched answers == rebuilt answers (CI smoke)."""
    graph, engine = dynamic_fixture
    batch = localized_batch(graph, max(graph.num_edges() // 100, 8))
    measurement = _measure_incremental_vs_rebuild(graph, engine, batch)
    rebuilt = measurement.pop("rebuilt_engine")
    assert measurement["report"]["mode"] == "incremental"

    workload = QueryWorkload(graph, rng=97)
    queries = workload.topl_batch(6, num_keywords=4, k=4, top_l=5)
    queries += workload.dtopl_batch(2, num_keywords=4, k=4, top_l=3)
    for query in queries[:6]:
        assert _fingerprint(engine.topl(query)) == _fingerprint(rebuilt.topl(query))
    for query in queries[6:]:
        assert _fingerprint(engine.dtopl(query)) == _fingerprint(rebuilt.dtopl(query))


def test_incremental_beats_rebuild_at_scale(dynamic_fixture):
    """The >= 5x criterion, asserted only at full benchmark scale.

    Both sides are the best of :data:`SPEEDUP_REPEATS` timings on fresh
    engines (:func:`_best_incremental_vs_rebuild`).

    At smoke scale (a handful of communities) the constant costs of the
    affected-region analysis dominate and the ratio is meaningless, so the
    assertion is skipped rather than reported as a regression — the recorded
    BENCH_dynamic.json carries the full-scale number.
    """
    if NUM_COMMUNITIES < 20:
        pytest.skip(
            "speedup is only meaningful at full scale "
            f"(REPRO_BENCH_DYNAMIC_COMMUNITIES={NUM_COMMUNITIES} < 20)"
        )
    graph, _ = dynamic_fixture
    batch = localized_batch(graph, max(int(graph.num_edges() * EDIT_FRACTION), 8), rng=59)
    measurement = _best_incremental_vs_rebuild(graph, batch)
    assert measurement["modes"] == ["incremental"]
    assert measurement["speedup"] >= 5.0, measurement


def test_scattered_batch_falls_back_to_rebuild(dynamic_fixture):
    """Uniform churn taints most centres; the damage threshold must trip."""
    graph, engine = dynamic_fixture
    batch = scattered_batch(graph, max(graph.num_edges() // 100, 8))
    report = engine.apply_updates(batch, damage_threshold=0.2)
    assert report.mode == "rebuild"
    assert report.damage_ratio > 0.2


def measure_update_backends(
    num_communities: int = NUM_COMMUNITIES,
    community_size: int = COMMUNITY_SIZE,
    rng: int = 13,
) -> dict:
    """The same 1% localized batch through every update mode, equivalence-gated.

    Three measurements over identical copies of the bench network:

    * **reference-incremental** — ``apply_updates`` on the dict backend;
    * **fast-incremental** — ``apply_updates`` on the array backend: truss
      worklist over the ``DeltaCSR`` overlay, record refresh by the fast
      kernels, snapshot patched in place (no ``freeze()``);
    * **fast-rebuild** — a full fast-backend offline build of the mutated
      graph, i.e. what the fast backend paid per edit batch before
      incremental CSR maintenance landed.

    The exact-equivalence gate asserts all three leave bit-identical
    pre-computed records (the same gate ``bench_index_build.py`` uses).
    """
    try:  # pytest imports benches as a package; standalone runs do not.
        from benchmarks.bench_index_build import assert_precomputed_equal
    except ImportError:  # pragma: no cover - standalone `python benchmarks/...`
        from bench_index_build import assert_precomputed_equal

    graph = planted_community_graph(
        [community_size] * num_communities,
        intra_probability=0.1,
        inter_probability=0.00005,
        rng=rng,
        name=f"planted-{num_communities}x{community_size}",
    )
    assign_keywords(graph, keywords_per_vertex=3, domain_size=50, rng=rng)
    fast_config = EngineConfig(
        max_radius=_DYNAMIC_CONFIG.max_radius,
        thresholds=_DYNAMIC_CONFIG.thresholds,
        backend="fast",
    )
    reference_graph = graph.copy()
    fast_graph = graph.copy()
    reference_engine = InfluentialCommunityEngine.build(
        reference_graph, config=_DYNAMIC_CONFIG, validate=False
    )
    fast_engine = InfluentialCommunityEngine.build(
        fast_graph, config=fast_config, validate=False
    )
    edits = max(int(graph.num_edges() * EDIT_FRACTION), 8)
    batch = localized_batch(reference_graph, edits, rng=67)

    measurements: dict = {"edit_batch_size": edits}
    started = time.perf_counter()
    reference_report = reference_engine.apply_updates(batch, damage_threshold=1.0)
    measurements["reference_incremental_seconds"] = round(
        time.perf_counter() - started, 4
    )
    started = time.perf_counter()
    fast_report = fast_engine.apply_updates(batch, damage_threshold=1.0)
    measurements["fast_incremental_seconds"] = round(time.perf_counter() - started, 4)
    # The copy happens outside the timed window: the real fallback
    # (`_rebuild_offline`) rebuilds in place and never pays it.  Fast updates
    # leave `fast_graph` as built; the engine's `graph` view is the mutated one.
    mutated_copy = fast_engine.graph.copy()
    started = time.perf_counter()
    rebuilt_fast = InfluentialCommunityEngine.build(
        mutated_copy, config=fast_config, validate=False
    )
    measurements["fast_rebuild_seconds"] = round(time.perf_counter() - started, 4)

    assert reference_report.mode == "incremental", reference_report.mode
    assert fast_report.mode == "incremental", fast_report.mode
    measurements["fast_applied_mode"] = fast_report.applied_mode
    measurements["fast_overlay_dirt_ratio"] = round(fast_report.overlay_dirt_ratio, 4)
    # The exact-equivalence gate: all three paths computed the same records.
    assert_precomputed_equal(
        fast_engine.index.precomputed, reference_engine.index.precomputed
    )
    assert_precomputed_equal(
        fast_engine.index.precomputed, rebuilt_fast.index.precomputed
    )
    fast_seconds = measurements["fast_incremental_seconds"]
    if fast_seconds > 0:
        measurements["fast_speedup_vs_fast_rebuild"] = round(
            measurements["fast_rebuild_seconds"] / fast_seconds, 3
        )
        measurements["fast_speedup_vs_reference_incremental"] = round(
            measurements["reference_incremental_seconds"] / fast_seconds, 3
        )
    return measurements


def measure_rebuild_backends(graph) -> dict:
    """Full offline rebuild on each graph-core backend, equivalence-checked.

    The rebuild path is where the damage-threshold fallback lands, so a
    faster backend directly shrinks the worst case of ``apply_updates``.
    """
    from repro.index.precompute import precompute

    try:  # pytest imports benches as a package; standalone runs do not.
        from benchmarks.bench_index_build import assert_precomputed_equal
    except ImportError:  # pragma: no cover - standalone `python benchmarks/...`
        from bench_index_build import assert_precomputed_equal

    measurements = {}
    records = {}
    for backend in ("reference", "fast"):
        started = time.perf_counter()
        records[backend] = precompute(
            graph,
            max_radius=_DYNAMIC_CONFIG.max_radius,
            thresholds=_DYNAMIC_CONFIG.thresholds,
            num_bits=_DYNAMIC_CONFIG.num_bits,
            backend=backend,
        )
        measurements[backend + "_rebuild_seconds"] = round(
            time.perf_counter() - started, 4
        )
    assert_precomputed_equal(records["fast"], records["reference"])
    reference_seconds = measurements["reference_rebuild_seconds"]
    fast_seconds = measurements["fast_rebuild_seconds"]
    if fast_seconds > 0:
        measurements["speedup"] = round(reference_seconds / fast_seconds, 3)
    return measurements


def test_rebuild_backends_equivalent(dynamic_fixture):
    """Fast-backend rebuilds must be bit-identical to reference rebuilds."""
    graph, _ = dynamic_fixture
    measurements = measure_rebuild_backends(graph)
    assert "reference_rebuild_seconds" in measurements
    assert "fast_rebuild_seconds" in measurements


def test_update_backends_equivalent():
    """Fast-incremental ≡ reference-incremental ≡ fast-rebuild, bit for bit.

    The exact-equivalence gate inside :func:`measure_update_backends` is the
    assertion; this runs it at smoke scale on CI.
    """
    scale = min(NUM_COMMUNITIES, 6)
    measurements = measure_update_backends(num_communities=scale)
    assert measurements["fast_applied_mode"] in ("patch", "compact")
    assert "fast_incremental_seconds" in measurements


def test_fast_incremental_beats_fast_rebuild_at_scale():
    """The acceptance criterion: patching the overlay in place must beat
    re-running the fast offline phase, asserted at full benchmark scale
    (constant costs dominate at smoke scale, as with the reference ratio)."""
    if NUM_COMMUNITIES < 20:
        pytest.skip(
            "speedup is only meaningful at full scale "
            f"(REPRO_BENCH_DYNAMIC_COMMUNITIES={NUM_COMMUNITIES} < 20)"
        )
    measurements = measure_update_backends()
    assert measurements["fast_speedup_vs_fast_rebuild"] > 1.0, measurements


# --------------------------------------------------------------------------- #
# standalone baseline recorder
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--communities", type=int, default=NUM_COMMUNITIES)
    parser.add_argument("--community-size", type=int, default=COMMUNITY_SIZE)
    parser.add_argument("--out", default=None, help="write the JSON baseline here")
    args = parser.parse_args(argv)

    graph, engine = build_dynamic_fixture(args.communities, args.community_size)
    edits = max(int(graph.num_edges() * EDIT_FRACTION), 8)
    print(
        f"graph: |V| = {graph.num_vertices()}, |E| = {graph.num_edges()}, "
        f"edit batch = {edits} ({EDIT_FRACTION:.0%})"
    )

    measurements: dict = {}

    localized = _measure_incremental_vs_rebuild(graph, engine, localized_batch(graph, edits))
    rebuilt = localized.pop("rebuilt_engine")
    measurements["localized"] = localized
    print(
        f"localized batch: mode={localized['report']['mode']}, "
        f"affected {localized['report']['affected_vertices']}/{localized['report']['total_vertices']}, "
        f"incremental {localized['incremental_seconds']}s vs rebuild "
        f"{localized['rebuild_seconds']}s -> {localized['speedup']}x"
    )

    # Correctness spot-check behind the headline number.
    workload = QueryWorkload(graph, rng=97)
    for query in workload.topl_batch(4, num_keywords=4, k=4, top_l=5):
        assert _fingerprint(engine.topl(query)) == _fingerprint(rebuilt.topl(query))
    print("correctness gate: patched answers == rebuilt answers")

    scattered = engine.apply_updates(
        scattered_batch(graph, edits), damage_threshold=None
    )
    measurements["scattered"] = {"report": scattered.as_dict()}
    print(
        f"scattered batch: mode={scattered.mode} "
        f"(damage {scattered.damage_ratio:.2f} vs threshold {scattered.damage_threshold})"
    )

    backends = measure_rebuild_backends(graph)
    measurements["rebuild_backends"] = backends
    print(
        "rebuild backends (bit-identical records): reference "
        f"{backends['reference_rebuild_seconds']}s vs fast "
        f"{backends['fast_rebuild_seconds']}s -> {backends.get('speedup', '?')}x"
    )

    modes = measure_update_backends(args.communities, args.community_size)
    measurements["update_backends"] = modes
    print(
        "update backends (bit-identical records): "
        f"reference-incremental {modes['reference_incremental_seconds']}s vs "
        f"fast-incremental {modes['fast_incremental_seconds']}s "
        f"({modes['fast_applied_mode']}, dirt {modes['fast_overlay_dirt_ratio']}) vs "
        f"fast-rebuild {modes['fast_rebuild_seconds']}s -> "
        f"{modes.get('fast_speedup_vs_fast_rebuild', '?')}x over fast rebuild"
    )

    report = {
        # equivalence=True: the correctness gate above compared patched vs
        # rebuilt answers, and the backend measurements assert bit-identical
        # records between reference and fast.
        **bench_envelope(
            "dynamic_updates",
            seed=GRAPH_SEED,
            speedup_factor=modes.get("fast_speedup_vs_fast_rebuild", 0.0),
            equivalence=True,
        ),
        "dataset": graph.name,
        "num_vertices": graph.num_vertices(),
        "num_edges": graph.num_edges(),
        "edit_batch_size": edits,
        "edit_fraction": EDIT_FRACTION,
        "measurements": measurements,
    }

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
