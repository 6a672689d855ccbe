"""CLI tests for the service-era surface: --version, stats on a store, gateway."""

from __future__ import annotations

import json
import re

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.graph.datasets import uni
from repro.graph.io import save_graph_json


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-service") / "graph.json"
    save_graph_json(uni(num_vertices=120, rng=5), path)
    return str(path)


@pytest.fixture(scope="module")
def store_file(tmp_path_factory, graph_file):
    path = tmp_path_factory.mktemp("cli-service-store") / "graph.repro-store"
    assert main(["store", "pack", graph_file, "--out", str(path), "--max-radius", "2"]) == 0
    return str(path)


class TestVersionFlag:
    def test_version_exits_zero_and_prints_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert __version__ in output

    def test_version_matches_pyproject(self):
        """__version__ is sourced from the packaging metadata, not hardcoded."""
        from pathlib import Path

        import repro

        pyproject = (
            Path(repro.__file__).resolve().parent.parent.parent / "pyproject.toml"
        )
        declared = re.search(
            r'^version = "([^"]+)"', pyproject.read_text(), re.MULTILINE
        ).group(1)
        assert __version__ == declared


class TestStatsDescribe:
    def test_stats_with_index_prints_engine_diagnostics(self, graph_file, store_file, capsys):
        assert main(["stats", graph_file]) == 0
        json_table = capsys.readouterr().out
        assert main(["stats", store_file]) == 0
        output = capsys.readouterr().out
        # A store prints the graph's table, then its engine diagnostics.
        assert output.startswith(json_table)
        assert "engine diagnostics:" in output
        document = json.loads(output.split("engine diagnostics:")[1])
        # The same describe() document /v1/health serves.
        assert document["backend"] == "reference"
        assert document["epoch"] == 0
        assert document["store"]["store_backed"] is True
        assert document["store"]["path"] == store_file
        assert document["store"]["format_version"] == 2
        assert document["index"]["max_radius"] == 2
        assert document["dynamic"] == {"upp_rows": None, "upp_entries": None}

    def test_stats_without_index_unchanged(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        output = capsys.readouterr().out
        assert "graph statistics" in output
        assert "engine diagnostics:" not in output


class TestGatewayParser:
    def test_gateway_arguments(self):
        args = build_parser().parse_args(
            ["gateway", "graph.json", "--port", "9000", "--session", "main"]
        )
        assert args.command == "gateway"
        assert args.port == 9000
        assert args.session == "main"

    def test_gateway_graph_is_optional(self):
        args = build_parser().parse_args(["gateway"])
        assert args.graph is None

    def test_gateway_preloads_a_store(self, store_file, monkeypatch, capsys):
        from repro.service import agateway

        hosted = []

        class StoppedGateway:
            url = "http://127.0.0.1:0"

            def __init__(self, service, **options):
                hosted.append(service)

            def start(self):
                pass

            def serve_forever(self):
                raise KeyboardInterrupt

            def shutdown(self):
                pass

        monkeypatch.setattr(agateway, "AsyncServiceGateway", StoppedGateway)
        assert main(["gateway", store_file, "--backend", "fast"]) == 0
        assert "session 'default'" in capsys.readouterr().out
        describe = hosted[0].engine("default").describe()
        assert describe["backend"] == "fast"
        assert describe["store"]["store_backed"] and describe["store"]["path"] == store_file


class TestServiceEnvelopeVersion:
    def test_every_response_reports_api_version(self, graph_file):
        from repro.graph.io import load_graph_json, graph_to_dict
        from repro.service.facade import CommunityService
        from repro.service.schema import BuildRequest

        service = CommunityService()
        response = service.build(
            BuildRequest(
                session="v",
                graph=graph_to_dict(load_graph_json(graph_file)),
                config={"max_radius": 1},
            )
        )
        assert response.api_version == __version__
        assert response.to_json()["api_version"] == __version__
