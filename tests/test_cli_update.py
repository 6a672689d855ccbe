"""CLI tests for the `repro update` subcommand (edit-script replay)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.graph.generators import planted_community_graph
from repro.graph.io import load_graph_json, save_graph_json
from repro.graph.keyword_assignment import assign_keywords


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    graph = planted_community_graph(
        [10, 10, 10], intra_probability=0.6, inter_probability=0.02, rng=5
    )
    assign_keywords(graph, keywords_per_vertex=2, domain_size=12, rng=5)
    path = tmp_path_factory.mktemp("update-cli") / "graph.json"
    save_graph_json(graph, path)
    return str(path)


def test_update_replays_saved_script(graph_path, tmp_path, capsys):
    script_path = tmp_path / "edits.json"
    UpdateBatch(
        [EdgeUpdate.insert(0, 29, 0.4), EdgeUpdate.delete(0, 29)]
    ).save(script_path)
    exit_code = main(["update", graph_path, "--script", str(script_path)])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "dynamic update replay" in captured
    assert "epoch 1" in captured


def test_update_random_script_with_outputs(graph_path, tmp_path, capsys):
    out_script = tmp_path / "script.json"
    out_graph = tmp_path / "mutated.json"
    out_store = tmp_path / "updated.repro-store"
    exit_code = main(
        [
            "update", graph_path,
            "--random", "6", "--seed", "3",
            "--batch-size", "3",
            "--damage-threshold", "1.0",
            "--out-script", str(out_script),
            "--out-graph", str(out_graph),
            "--out-store", str(out_store),
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "epoch 2" in captured  # 6 edits in chunks of 3

    # The written script replays cleanly against the original graph.
    script = UpdateBatch.load(out_script)
    assert len(script) == 6
    script.validate_against(load_graph_json(graph_path))

    # The updated store holds the mutated graph and its refreshed index.
    from repro.core.engine import InfluentialCommunityEngine

    mutated = load_graph_json(str(out_graph))
    engine = InfluentialCommunityEngine.from_store(out_store)
    assert engine.index.num_vertices() == mutated.num_vertices()
    assert list(engine.graph.vertices()) == list(mutated.vertices())
    assert engine.graph.num_edges() == mutated.num_edges()


@pytest.mark.parametrize("source", ["graph-json", "store"])
def test_update_out_store_answers_like_the_live_session(
    graph_path, tmp_path, monkeypatch, capsys, source
):
    """The checkpoint `--out-store` writes reopens to the live session's answers."""
    import itertools

    from repro import cli
    from repro.core.engine import InfluentialCommunityEngine
    from repro.query.params import DTopLQuery, make_dtopl_query, make_topl_query
    from repro.service.facade import CommunityService

    services = []

    class RecordingService(CommunityService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            services.append(self)

    path = graph_path
    if source == "store":
        path = str(tmp_path / "input.repro-store")
        assert main(["store", "pack", graph_path, "--out", path, "--max-radius", "2"]) == 0
    monkeypatch.setattr(cli, "CommunityService", RecordingService)
    out_store = tmp_path / "updated.repro-store"
    exit_code = main(
        [
            "update", path,
            "--backend", "fast",
            "--random", "8", "--seed", "4",
            "--damage-threshold", "1.0",
            "--out-store", str(out_store),
        ]
    )
    assert exit_code == 0
    assert f"updated store written to {out_store}" in capsys.readouterr().out

    (service,) = services
    live = service.engine(cli.CLI_SESSION)
    assert live.epoch == 1
    assert live.describe()["store"]["path"] == str(out_store)
    reopened = InfluentialCommunityEngine.from_store(out_store)
    assert reopened.graph_summary() == live.graph_summary()
    keywords = sorted(set().union(*map(live.graph.keywords, live.graph.vertices())))
    answered = 0
    for pair, k, radius in itertools.product(
        itertools.combinations(keywords[:6], 2), (2, 3), (1, 2)
    ):
        for query in (
            make_topl_query(set(pair), k=k, radius=radius, theta=0.1, top_l=3),
            make_dtopl_query(set(pair), k=k, radius=radius, theta=0.1, top_l=2),
        ):
            method = "dtopl" if isinstance(query, DTopLQuery) else "topl"
            expected = getattr(live, method)(query).communities
            answered += bool(expected)
            assert getattr(reopened, method)(query).communities == expected, query
    assert answered >= 10


def test_update_on_a_store_keeps_its_packed_backend(graph_path, tmp_path, capsys):
    store = str(tmp_path / "fast.repro-store")
    assert main(["store", "pack", graph_path, "--out", store, "--backend", "fast"]) == 0
    assert main(["update", store, "--random", "2", "--seed", "3"]) == 0
    assert "(backend fast, epoch 1" in capsys.readouterr().out
    assert main(["update", store, "--random", "2", "--backend", "reference"]) == 0
    assert "(backend reference, epoch 1" in capsys.readouterr().out


def test_update_random_focus_restricts_churn(graph_path, capsys):
    exit_code = main(
        [
            "update", graph_path,
            "--random", "5", "--seed", "2",
            "--focus", "0", "--focus-radius", "1",
            "--damage-threshold", "1.0",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "patch" in captured  # the applied mode (patch/compact/rebuild)


def test_update_summary_reports_mode_epoch_and_dirt(graph_path, capsys):
    """The replay table carries the applied mode, epoch and overlay dirt ratio."""
    exit_code = main(
        [
            "update", graph_path,
            "--random", "6", "--seed", "3",
            "--batch-size", "3",
            "--damage-threshold", "1.0",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    for column in ("mode", "dirt", "epoch"):
        assert column in captured
    assert "patch" in captured
    assert "overlay dirt" in captured  # final summary line
    assert "backend reference" in captured


def test_update_fast_backend_patches_in_place(graph_path, capsys):
    """--backend fast replays through the DeltaCSR overlay (non-zero dirt)."""
    exit_code = main(
        [
            "update", graph_path,
            "--backend", "fast",
            "--random", "4", "--seed", "3",
            "--damage-threshold", "1.0",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "backend fast" in captured
    assert "patch" in captured or "compact" in captured
    assert "epoch 1" in captured


def test_update_unknown_focus_vertex_fails_cleanly(graph_path, capsys):
    exit_code = main(["update", graph_path, "--random", "5", "--focus", "no-such-vertex"])
    assert exit_code == 2
    assert "error" in capsys.readouterr().err


def test_update_empty_script_is_a_clean_noop(graph_path, tmp_path, capsys):
    script_path = tmp_path / "empty.json"
    UpdateBatch([]).save(script_path)
    exit_code = main(["update", graph_path, "--script", str(script_path)])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "epoch 0" in captured


def test_update_requires_script_or_random(graph_path, capsys):
    exit_code = main(["update", graph_path])
    assert exit_code == 2
    assert "exactly one of --script or --random" in capsys.readouterr().err


def test_update_rejects_bad_script(graph_path, tmp_path, capsys):
    script_path = tmp_path / "bad.json"
    script_path.write_text(json.dumps({"edits": [{"op": "delete", "u": 0, "v": 29}]}))
    exit_code = main(["update", graph_path, "--script", str(script_path)])
    assert exit_code == 2
    assert "does not exist" in capsys.readouterr().err
