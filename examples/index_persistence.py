#!/usr/bin/env python3
"""Offline/online split in practice: persist the index, reopen it, and compare baselines.

A production deployment runs the paper's two phases at different times: the
offline pre-computation happens once (or whenever the social network is
refreshed), while online queries arrive continuously.  This example shows

1. building the engine and checkpointing it to a store file (the graph, the
   pre-computed records and the tree, in one checksummed container),
2. reopening the store in a "fresh process" (here: a second engine instance)
   without re-running Algorithm 2,
3. answering the same query with the reopened index, the ATindex baseline and
   a brute-force scan, and comparing their answers and work counters.

Run with::

    python examples/index_persistence.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import InfluentialCommunityEngine, make_topl_query
from repro.graph import datasets
from repro.query.baselines.atindex import ATIndex, atindex_topl
from repro.query.baselines.bruteforce import bruteforce_topl
from repro.workloads.reporting import format_table


def main() -> None:
    graph = datasets.zipf(num_vertices=700, rng=9)
    print(f"graph: {graph.name}  |V| = {graph.num_vertices()}  |E| = {graph.num_edges()}")

    # ------------------------------------------------------------------ #
    # offline phase + persistence
    # ------------------------------------------------------------------ #
    started = time.perf_counter()
    engine = InfluentialCommunityEngine.build(graph)
    build_seconds = time.perf_counter() - started

    with tempfile.TemporaryDirectory() as scratch:
        store_path = Path(scratch) / "zipf.repro-store"
        engine.checkpoint_store(store_path)
        size_kb = store_path.stat().st_size / 1024

        started = time.perf_counter()
        reopened = InfluentialCommunityEngine.from_store(store_path)
        reopen_seconds = time.perf_counter() - started
        print(
            f"offline build: {build_seconds:.2f}s — store: {size_kb:.0f} KiB — "
            f"reopen: {reopen_seconds:.3f}s"
        )
        compare_methods(graph, reopened)


def compare_methods(graph, reopened) -> None:
    """Answer one query with the reopened index, ATindex and brute force."""
    query = make_topl_query({"movies", "books", "food"}, k=3, radius=2, theta=0.2, top_l=5)

    timings = []

    started = time.perf_counter()
    ours = reopened.topl(query)
    timings.append(
        {
            "method": "TopL-ICDE (reopened store)",
            "seconds": round(time.perf_counter() - started, 4),
            "communities": len(ours),
            "best score": round(ours.scores[0], 2) if ours.scores else 0.0,
            "candidates scored": ours.statistics.communities_scored,
        }
    )

    at_index = ATIndex.build(graph)
    started = time.perf_counter()
    baseline = atindex_topl(graph, query, index=at_index)
    timings.append(
        {
            "method": "ATindex baseline",
            "seconds": round(time.perf_counter() - started, 4),
            "communities": len(baseline),
            "best score": round(baseline.scores[0], 2) if baseline.scores else 0.0,
            "candidates scored": baseline.statistics.communities_scored,
        }
    )

    started = time.perf_counter()
    brute = bruteforce_topl(graph, query)
    timings.append(
        {
            "method": "brute force (no index)",
            "seconds": round(time.perf_counter() - started, 4),
            "communities": len(brute),
            "best score": round(brute.scores[0], 2) if brute.scores else 0.0,
            "candidates scored": brute.statistics.communities_scored,
        }
    )

    print()
    print(format_table(timings, title="same query, three methods"))

    agree = (
        [round(s, 6) for s in ours.scores]
        == [round(s, 6) for s in baseline.scores]
        == [round(s, 6) for s in brute.scores]
    )
    print(f"\nall three methods return the same top-L scores: {agree}")


if __name__ == "__main__":
    main()
