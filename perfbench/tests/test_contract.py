"""``BENCHMARK.json`` names exactly what the benchmark prints."""

import json
from pathlib import Path

from perfbench import layers, oracle, run

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_match_the_printed_ones():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.E2E_UNITS
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_match_the_layer_table():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, *_ in layers.LAYER_METRICS]


def test_strip_keeps_answers_and_drops_timing():
    response = {
        "epoch": 3,
        "elapsed_seconds": 0.2,
        "api_version": "1",
        "statistics": {"visited_index_nodes": 4},
        "communities": [{"center": 1}],
        "increment_evaluations": 7,
        "report": {"mode": "incremental", "elapsed_seconds": 0.1, "compacted": True},
    }
    assert oracle.strip(response) == {
        "epoch": 3,
        "communities": [{"center": 1}],
        "report": {"mode": "incremental"},
    }
