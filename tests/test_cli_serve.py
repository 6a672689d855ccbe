"""CLI tests for the `repro serve` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph.datasets import uni
from repro.graph.io import save_graph_json


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-cli") / "graph.json"
    save_graph_json(uni(num_vertices=120, rng=5), path)
    return str(path)


def test_serve_prints_throughput(graph_path, capsys):
    exit_code = main(
        ["serve", graph_path, "--queries", "6", "--k", "3", "--top-l", "3", "--seed", "7"]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "batch serving throughput" in captured
    assert "result_cache" in captured


def test_serve_repeat_hits_cache(graph_path, capsys, tmp_path):
    out_path = tmp_path / "report.json"
    exit_code = main(
        [
            "serve",
            graph_path,
            "--queries",
            "6",
            "--k",
            "3",
            "--top-l",
            "3",
            "--seed",
            "7",
            "--repeat",
            "2",
            "--out",
            str(out_path),
        ]
    )
    assert exit_code == 0
    report = json.loads(out_path.read_text())
    assert report["batch_size"] == 6
    assert len(report["rounds"]) == 2
    # The second round answers the identical batch from the result cache.
    assert report["rounds"][1]["cache_hits"] == 6
    assert report["rounds"][1]["executed"] == 0
    assert report["caches"]["result_cache"]["hits"] >= 6


def test_serve_no_cache_executes_every_round(graph_path, capsys):
    exit_code = main(
        [
            "serve",
            graph_path,
            "--queries",
            "4",
            "--k",
            "3",
            "--top-l",
            "3",
            "--seed",
            "7",
            "--repeat",
            "2",
            "--no-cache",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "0 hits / 0 lookups" in captured
